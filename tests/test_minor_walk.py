"""The Fitting minor walk one depth at a time against the depth-first walk.

``fitting._minors_by_size`` holds all non-zero subdeterminants of one size
in one residue array and extends them by a column with one product per
column.  Its referee is ``minors_by_size_dfs`` in ``referees.py``, which
walks the same column subsets depth first with one ``mul`` per (row mask,
row).  Both must give the same minors of every size, in the same order.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iwafit.fitting as fitting
import iwafit.groupring as groupring
from iwafit import (
    GroupRingSpec,
    PresentedModule,
    RingMatrix,
    ShiftRequest,
    const,
    delta,
    fitting_ideal,
    lifted_fitting_ideal,
    one,
    shift_trivial,
    tvar,
    zero,
)
from iwafit.fitting import _minors_by_size

from conftest import random_element
from referees import minors_by_size_dfs

# Walk rings: the rings without T_d of the d = 1 shifts (d = 0) and of the
# d = 2 shifts (d = 1).
WALK_SPECS = {
    "p3-k2-d0": GroupRingSpec(3, 2, (3,), 0, 3),
    "p3-k4-d1": GroupRingSpec(3, 4, (3,), 1, 3),
    "p3-k2-d1-bicyclic": GroupRingSpec(3, 2, (3, 3), 1, 2),
    "p5-k2-d0": GroupRingSpec(5, 2, (5,), 0, 3),
    "p5-k4-d1": GroupRingSpec(5, 4, (2,), 1, 3),
    # int64 residues at the edge of the policy: 3^38 * 3 < 2^62.
    "p3-k19-d0": GroupRingSpec(3, 19, (3,), 0, 3),
    # Python-int residues.
    "p3-k19-d1": GroupRingSpec(3, 19, (3,), 1, 3),
    "p3-k21-d1": GroupRingSpec(3, 21, (2,), 1, 3),
}

# The a x b entries as indices into ``palette`` (0 is zero, drawn often so
# that sums cancel), whole zero rows and columns, jmin, and a seed.
WALKS = st.integers(0, 5).flatmap(lambda a: st.integers(0, 5).flatmap(lambda b: st.tuples(
    st.just((a, b)),
    st.lists(st.one_of(st.just(0), st.integers(0, 8)), min_size=a * b, max_size=a * b),
    st.sets(st.integers(0, 4), max_size=2),
    st.sets(st.integers(0, 4), max_size=2),
    st.integers(-2, min(a, b) + 1),
    st.integers(0, 2**32 - 1),
)))


def palette(spec, seed):
    rng = np.random.default_rng(seed)
    t = tvar(spec, 1) if spec.d else const(spec, spec.p)
    d1 = delta(spec, 1)
    return [zero(spec), one(spec), const(spec, spec.p), const(spec, -1), t,
            d1 - one(spec), d1 + t, random_element(spec, rng), random_element(spec, rng)]


def build_matrix(spec, shape, picks, zero_rows, zero_cols, seed):
    a, b = shape
    entries = palette(spec, seed)
    coeffs = np.zeros((a, b, spec.size), dtype=spec.dtype())
    for (i, c), pick in zip(np.ndindex(a, b), picks):
        if i not in zero_rows and c not in zero_cols:
            coeffs[i, c] = entries[pick].coeffs
    return RingMatrix(spec, coeffs)


def assert_same_walk(h, jmin):
    got = _minors_by_size(h, jmin)
    want = minors_by_size_dfs(h, jmin)
    assert len(got) == len(want) == h.nrows + 1
    for j, (rows, minors) in enumerate(zip(got, want)):
        assert rows.dtype == h.spec.dtype()
        assert rows.shape == (len(minors), h.spec.size), j
        for r, x in zip(rows, minors):
            assert np.array_equal(r, x.coeffs), j


@pytest.mark.parametrize("name", sorted(WALK_SPECS))
def test_walk_matches_the_depth_first_referee(name):
    spec = WALK_SPECS[name]

    @settings(max_examples=25, deadline=None, database=None)
    @given(case=WALKS)
    # Dense square, wide and tall matrices at every jmin the walk treats
    # differently; 0 x b and a x 0; a zero row and a zero column.
    @example(case=((4, 4), [7, 8, 5, 6] * 4, set(), set(), 0, 1))
    @example(case=((3, 5), [7, 8, 1, 6, 5] * 3, set(), set(), 3, 2))
    @example(case=((5, 3), [8, 6, 7] * 5, set(), set(), -2, 3))
    @example(case=((5, 3), [8, 6, 7] * 5, set(), set(), 4, 3))
    @example(case=((0, 3), [], set(), set(), 0, 4))
    @example(case=((3, 0), [], set(), set(), -1, 5))
    @example(case=((4, 5), [7] * 20, {1}, {3}, 2, 6))
    def check(case):
        shape, picks, zero_rows, zero_cols, jmin, seed = case
        assert_same_walk(build_matrix(spec, shape, picks, zero_rows, zero_cols, seed), jmin)

    check()


@pytest.fixture
def walk_calls(monkeypatch):
    """Every (h, jmin) that ``lifted_fitting_ideal`` hands to the walk."""
    calls = []

    def record(h, jmin):
        calls.append((h, jmin))
        return _minors_by_size(h, jmin)

    monkeypatch.setattr(fitting, "_minors_by_size", record)
    return calls


# (orders, d, k, N, n) of the rungs of the shift ladder.
LADDER = (
    [((3,), 1, 4, 6, n) for n in range(4)]
    + [((9,), 1, 4, 6, n) for n in range(4)]
    + [((3, 3), 1, 4, 6, n) for n in range(9)]
    + [((3, 9), 1, 4, 6, 2), ((9, 9), 1, 4, 6, 2), ((3, 3, 3), 1, 2, 5, 2)]
    + [((3,), 2, 4, 5, n) for n in (1, 2, 3)]
    + [((3, 3), 2, 3, 4, n) for n in (2, 3)]
    + [((3, 3), 1, 21, 6, 2)]
)


@pytest.mark.parametrize("rung", LADDER, ids=str)
def test_shift_walks_match_the_referee(rung, walk_calls):
    orders, d, k, N, n = rung
    shift_trivial(ShiftRequest(GroupRingSpec(3, k, orders, d, N), n))
    assert walk_calls
    for h, jmin in walk_calls:
        assert_same_walk(h, jmin)


def test_largest_shift_walk_matches_the_referee(walk_calls):
    # 10 x 15 over the tricyclic group ring, 3,324 minors of size 5.
    shift_trivial(ShiftRequest(GroupRingSpec(3, 2, (3, 3, 3), 1, 6), 3))
    [(h, jmin)] = walk_calls
    assert (h.nrows, h.ncols, jmin) == (10, 15, 5)
    assert_same_walk(h, jmin)


def test_row_masks_beyond_int64():
    # 64 rows: the row masks no longer fit int64.  Upper bidiagonal with
    # units on the diagonal, so every column but the first has two non-zero
    # entries and the maximal minor is a unit.
    spec = GroupRingSpec(3, 2, (3,), 0, 3)
    rng = np.random.default_rng(7)
    a = 64
    coeffs = np.zeros((a, a, spec.size), dtype=spec.dtype())
    for i in range(a):
        coeffs[i, i] = delta(spec, 1, i).coeffs
        if i + 1 < a:
            coeffs[i, i + 1] = random_element(spec, rng).coeffs
    h = RingMatrix(spec, coeffs)
    for jmin in (a, a - 1):
        assert_same_walk(h, jmin)


def test_columns_that_cannot_reach_jmin_are_never_tried():
    # A square upper bidiagonal matrix with jmin = a: with the column cut,
    # depth j holds the one column set {0, ..., j - 1}; without it, every
    # column set with a non-zero subdeterminant, some 6 MB of rows at a = 12.
    spec = GroupRingSpec(3, 2, (3,), 0, 3)
    a = 12
    coeffs = np.zeros((a, a, spec.size), dtype=spec.dtype())
    for i in range(a):
        coeffs[i, i] = delta(spec, 1, i).coeffs
        if i + 1 < a:
            coeffs[i, i + 1] = one(spec).coeffs
    h = RingMatrix(spec, coeffs)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        minors = _minors_by_size(h, a)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(minors[a], [one(spec).coeffs])
    assert peak < 256 * 1024


def test_walk_makes_no_ring_multiplications(monkeypatch):
    spec = WALK_SPECS["p3-k4-d1"]
    h = build_matrix(spec, (4, 5), [7, 8, 5, 6, 1] * 4, set(), set(), 1)
    target = GroupRingSpec(3, 4, (3,), 2, 3)

    def refuse(x, y):
        raise AssertionError("the minor walk called groupring.mul")

    monkeypatch.setattr(groupring, "mul", refuse)
    _minors_by_size(h, 0)
    fitting_ideal(PresentedModule(h))
    lifted_fitting_ideal(PresentedModule(h), target, 1)
