"""Ideals graded by T_d take their Howell forms one T_d-degree at a time.

A block whose generator images are all homogeneous in T_d (the last T
variable) gets its Howell form from one pass per distinct degree over the
ring without T_d (``ideals._graded_rows``).  Its referee is one Howell pass
over every stacked multiplication or block row (``stacked_canonical`` and
``stacked_key`` in ``referees.py``), which takes no notice of the grading.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iwafit.ideals as ideals
from iwafit import (
    GroupRingSpec,
    Ideal,
    PrecisionError,
    ShiftRequest,
    const,
    delta,
    from_vector,
    mul,
    one,
    shift_trivial,
    tvar,
)
from iwafit.shifts import UnsupportedShiftError

from conftest import random_element
from referees import stacked_canonical, stacked_key
from test_ideals import SPLIT_SPECS

GRADED_SPECS = dict(SPLIT_SPECS, **{
    # T_2 grades, T_1 lives in the ring without T_2; x^4 - 1 has a
    # quadratic factor mod 3.
    "d2-p3-m4": GroupRingSpec(3, 2, (4,), 2, 3),
    "d2-p3-group": GroupRingSpec(3, 2, (3,), 2, 3),
    # Object-dtype block rows whose images over the ring without T_1 are
    # int64: 3^19 with a block ring of one coefficient per degree.
    "p3-m2-k19": GroupRingSpec(3, 19, (2,), 1, 4),
    "p3-m3-k21": GroupRingSpec(3, 21, (3,), 1, 4),
    "p5-m4-N5": GroupRingSpec(5, 2, (4,), 1, 5),
})

# A factor of an element x of the ring without T_d: p, T_1 (when T_1 is not
# T_d), delta_i - c, a random element r, or T_1 + p*r.
X_FACTORS = st.one_of(
    st.just(("p",)), st.just(("t",)),
    st.tuples(st.just("delta"), st.integers(1, 3), st.integers(0, 4)),
    st.tuples(st.sampled_from(["random", "t+p*random"]), st.integers(0, 2**32 - 1)),
)
# The x_i, then the generators T_d^e * x_i or T_d^e * p * x_i as
# (e, i, times p); e above N - 1 stands for N - 1.
GRADED_SETS = st.tuples(
    st.lists(st.lists(X_FACTORS, max_size=3), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2), st.booleans()),
             min_size=1, max_size=5),
)
# Degrees 1, 3 and N - 1 (gaps at 0 and 2 once N >= 5), the same x at two
# degrees, p * x, and delta_1 - 1, which vanishes in the block of x - 1.
FEATURED = (
    [[("random", 1)], [("delta", 1, 1)], [("random", 2), ("delta", 1, 2)]],
    [(3, 0, False), (1, 0, False), (7, 1, False), (3, 2, True), (7, 2, False)],
)


def without_t_d(spec, x):
    """x with every coefficient of positive T_d-degree dropped."""
    c = x.coeffs.reshape(-1, spec.N).copy()
    c[:, 1:] = 0
    return from_vector(spec, c.reshape(-1))


def build_x(spec, factors):
    x = one(spec)
    t1 = tvar(spec, 1) if spec.d >= 2 else one(spec)
    for f in factors:
        if f[0] == "p":
            x = x * spec.p
        elif f[0] == "t":
            x = mul(x, t1)
        elif f[0] == "delta":
            if spec.s:
                x = mul(x, delta(spec, (f[1] - 1) % spec.s + 1) - const(spec, f[2]))
        else:
            r = without_t_d(spec, random_element(spec, np.random.default_rng(f[1])))
            x = mul(x, r if f[0] == "random" else t1 + r * spec.p)
    return x


def graded_ideal(spec, xs, gens):
    xs = [build_x(spec, f) for f in xs]
    t = tvar(spec, spec.d)
    return Ideal(spec, [mul(t**min(e, spec.N - 1), xs[i % len(xs)] * (spec.p if p else 1))
                        for e, i, p in gens])


def assert_matches_referee(I):
    assert I.canonical == stacked_canonical(I)
    assert I.key == stacked_key(I)


@pytest.mark.parametrize("name", sorted(GRADED_SPECS))
def test_graded_forms_match_the_stacked_referee(name):
    spec = GRADED_SPECS[name]

    @settings(max_examples=20, deadline=None, database=None)
    @given(case=GRADED_SETS)
    @example(case=FEATURED)
    def check(case):
        assert_matches_referee(graded_ideal(spec, *case))

    check()


@pytest.fixture
def graded_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    original = ideals._graded_rows
    monkeypatch.setattr(ideals, "_graded_rows", counted)
    return calls


@pytest.mark.parametrize("name", ["p5-m4-N5", "d2-p3-m4", "p3-group"])
def test_homogeneous_sets_take_the_graded_path(name, graded_calls):
    spec = GRADED_SPECS[name]
    I = graded_ideal(spec, *FEATURED)
    I.canonical
    assert [sorted(set(degrees)) for degrees in graded_calls] == [
        sorted({min(e, spec.N - 1) for e, _, _ in FEATURED[1]})]
    assert_matches_referee(I)


@pytest.mark.parametrize("name", ["p5-m4-N5", "d2-p3-m4", "p3-group", "p3-m2-k19"])
def test_a_mixed_set_takes_the_stacked_path(name, graded_calls):
    """p + T_d has two non-zero T_d-slices in every block, so no block is
    graded; taking it as p, its lowest slice, gives another ideal, since
    x = (delta_1 - 1) * r is not a unit in every block."""
    spec = GRADED_SPECS[name]
    t = tvar(spec, spec.d)
    x = build_x(spec, [("delta", 1, 1), ("random", 3)])
    I = Ideal(spec, [mul(t, x), const(spec, spec.p) + t])
    assert_matches_referee(I)
    assert graded_calls == []
    assert I.canonical != Ideal(spec, [mul(t, x), const(spec, spec.p)]).canonical


@pytest.mark.parametrize("orders", [(3,), (9,), (3, 3)])
@pytest.mark.parametrize("d", [1, 2])
def test_shift_numerators_match_the_stacked_referee(orders, d, graded_calls):
    """Every shift numerator sum_j T_d^(a - j + t) * I_j(h) is graded by T_d."""
    checked = 0
    for N in (2, 3, 4):
        for n in (-1, 0, 1, 2, 3):
            spec = GroupRingSpec(3, 3, orders, d, N)
            if spec.size > 200:
                continue
            try:
                I = shift_trivial(ShiftRequest(spec, n)).numerator
            except (PrecisionError, UnsupportedShiftError):
                continue
            assert_matches_referee(I)
            checked += 1
    assert checked and len(graded_calls) >= checked
