"""Fitting ideals: oracle agreement, functoriality, duality, lifted presentations."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwafit import (
    GroupRingSpec,
    Ideal,
    PresentedModule,
    RingMatrix,
    ShiftRequest,
    SpecMismatchError,
    fitting_ideal,
    from_vector,
    ideal_equal,
    ideal_mul,
    lift_presentation,
    lifted_fitting_ideal,
    make_element,
    matrix_from_rows,
    one,
    resolution_complex,
    scale_ideal,
    shift_trivial,
    transpose_dual,
    tvar,
    unit_ideal,
    zero,
    zero_ideal,
)
from iwafit.fitting import _minors_by_size

from conftest import random_element
from referees import fitting_ideal_naive


def random_matrix(spec, a, b, rng):
    return matrix_from_rows(
        spec, [[random_element(spec, rng) for _ in range(b)] for _ in range(a)]
    )


def test_matches_cofactor_oracle(rng):
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    for _ in range(60):
        a = int(rng.integers(1, 5))
        b = int(rng.integers(1, 7))
        h = random_matrix(spec, a, b, rng)
        assert ideal_equal(fitting_ideal(PresentedModule(h)),
                           fitting_ideal_naive(PresentedModule(h)))


def test_edge_shapes():
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    empty = RingMatrix(spec, np.zeros((0, 3, spec.size), dtype=np.int64))
    assert ideal_equal(fitting_ideal(PresentedModule(empty)), unit_ideal(spec))
    wide = matrix_from_rows(spec, [[tvar(spec, 1)], [zero(spec)]])
    assert ideal_equal(fitting_ideal(PresentedModule(wide)), zero_ideal(spec))


def test_diagonal_matrix():
    spec = GroupRingSpec(3, 3, (3,), 1, 4)
    t = tvar(spec, 1)
    z = zero(spec)
    h = matrix_from_rows(spec, [[t, z], [z, t * t]])
    assert ideal_equal(fitting_ideal(PresentedModule(h)),
                       Ideal(spec, [t ** 3]))


def block_diagonal(spec, h1, h2):
    z = zero(spec)
    return matrix_from_rows(spec, [
        [h1.at(i, j) for j in range(h1.ncols)] + [z] * h2.ncols for i in range(h1.nrows)] + [
        [z] * h1.ncols + [h2.at(i, j) for j in range(h2.ncols)] for i in range(h2.nrows)])


def test_direct_sum_multiplies(rng):
    # Fitt(M1 + M2) = Fitt(M1) * Fitt(M2), M1 + M2 presented block-diagonally
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    for _ in range(15):
        h1, h2 = random_matrix(spec, 2, 3, rng), random_matrix(spec, 1, 2, rng)
        total = fitting_ideal(PresentedModule(block_diagonal(spec, h1, h2)))
        assert ideal_equal(total, ideal_mul(fitting_ideal(PresentedModule(h1)),
                                            fitting_ideal(PresentedModule(h2))))


def test_square_transpose_invariance(rng):
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    for _ in range(25):
        a = int(rng.integers(1, 4))
        m = PresentedModule(random_matrix(spec, a, a, rng))
        assert ideal_equal(fitting_ideal(m), fitting_ideal(transpose_dual(m)))
    with pytest.raises(ValueError):
        transpose_dual(PresentedModule(random_matrix(spec, 1, 2, rng)))


def test_rectangular_transpose_with_scalar_blocks(rng):
    # For an a x b presentation h and a scalar f, appending f-identity
    # blocks balances transposition:
    #   Fitt(h^T | f 1_b) = f^(b - a) Fitt(h | f 1_a).
    spec = GroupRingSpec(3, 2, (3,), 1, 4)
    f = tvar(spec, 1)
    z = zero(spec)
    for _ in range(10):
        a, b = 1, 2
        h = random_matrix(spec, a, b, rng)
        left = matrix_from_rows(spec, [
            [h.at(j, i) for j in range(a)] + [f if r == i else z for r in range(b)]
            for i in range(b)
        ])
        right = matrix_from_rows(spec, [
            [h.at(i, j) for j in range(b)] + [f if r == i else z for r in range(a)]
            for i in range(a)
        ])
        lhs = fitting_ideal(PresentedModule(left))
        rhs = scale_ideal(f ** (b - a), fitting_ideal(PresentedModule(right)))
        assert ideal_equal(lhs, rhs)


def test_lift_presentation_appends_blocks(rng):
    sub = GroupRingSpec(3, 2, (3,), 1, 3)
    full = GroupRingSpec(3, 2, (3,), 2, 3)
    h = random_matrix(sub, 2, 2, rng)
    lifted = lift_presentation(PresentedModule(h), full, [tvar(full, 2)])
    assert (lifted.presentation.nrows, lifted.presentation.ncols) == (2, 4)
    t2 = tvar(full, 2)
    assert lifted.presentation.at(0, 2) == t2
    assert lifted.presentation.at(1, 3) == t2
    assert lifted.presentation.at(0, 3).is_zero()
    # entries of h come through verbatim (with a zero T_2 exponent)
    assert lifted.presentation.at(0, 0).coeffs.sum() == h.at(0, 0).coeffs.sum()


@pytest.mark.parametrize("k", (2, 21))
@pytest.mark.parametrize("extra", (1, 2))
def test_lift_presentation_matches_elementwise_lift(k, extra, rng):
    # Each entry keeps its terms, with zero exponents for the new T
    # variables; one f * identity block follows per kill element f.
    sub = GroupRingSpec(3, k, (3,), 1, 3)
    full = GroupRingSpec(3, k, (3,), 1 + extra, 3)
    assert (full.dtype() is object) == (k == 21)
    h = random_matrix(sub, 2, 3, rng)
    killed = [tvar(full, 1 + v) for v in range(1, extra + 1)]
    lifted = lift_presentation(PresentedModule(h), full, killed).presentation
    assert (lifted.nrows, lifted.ncols) == (2, 3 + 2 * extra)
    assert lifted.coeffs.dtype == full.dtype()
    pad = (0,) * extra
    for i in range(2):
        for j in range(3):
            expected = make_element(full, [(exps + pad, c) for exps, c in h.at(i, j).terms()])
            assert lifted.at(i, j) == expected
        for v, f in enumerate(killed):
            for r in range(2):
                assert lifted.at(i, 3 + 2 * v + r) == (f if r == i else zero(full))
    empty = RingMatrix(sub, np.zeros((0, 3, sub.size), dtype=sub.dtype()))
    assert lift_presentation(PresentedModule(empty), full, killed).presentation.coeffs.shape \
        == (0, 3, full.size)


def test_lift_presentation_validates_specs(rng):
    sub = GroupRingSpec(3, 2, (3,), 1, 3)
    full = GroupRingSpec(3, 2, (3,), 2, 3)
    other = GroupRingSpec(3, 2, (9,), 2, 3)
    m = PresentedModule(random_matrix(sub, 1, 1, rng))
    with pytest.raises(SpecMismatchError):
        lift_presentation(m, other, [tvar(other, 2)])
    with pytest.raises(SpecMismatchError):
        lift_presentation(m, full, [tvar(sub, 1)])


def test_fitting_annihilates_module(rng):
    # every maximal minor annihilates coker(h); sample via the adjugate
    # identity det * I = adj * h in the square case
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    from iwafit import mul, one

    for _ in range(10):
        h = random_matrix(spec, 2, 2, rng)
        det = (mul(h.at(0, 0), h.at(1, 1)) - mul(h.at(0, 1), h.at(1, 0)))
        adj = matrix_from_rows(spec, [[h.at(1, 1), -h.at(0, 1)],
                                      [-h.at(1, 0), h.at(0, 0)]])
        prod = adj.compose(h)
        for i in range(2):
            for j in range(2):
                expected = det if i == j else zero(spec)
                assert prod.at(i, j) == expected


# --------------------------------------------------------------------------
# Graded Fitting ideals of presentations lifted by one T variable


def sparse_matrix(spec, a, b, seed, zero_cols, terms):
    """a x b matrix with at most ``terms`` monomials per entry; the columns
    in ``zero_cols`` are zero."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(a):
        row = []
        for j in range(b):
            vec = np.zeros(spec.size, dtype=np.int64)
            if j not in zero_cols:
                idx = rng.integers(0, spec.size, size=int(rng.integers(0, terms + 1)))
                vec[idx] = rng.integers(0, spec.modulus, size=len(idx))
            row.append(from_vector(spec, vec))
        rows.append(row)
    if a == 0:
        return RingMatrix(spec, np.zeros((0, b, spec.size), dtype=np.int64))
    return matrix_from_rows(spec, rows)


@st.composite
def lifted_cases(draw):
    orders = draw(st.sampled_from([(3,), (3, 3)]))
    d = draw(st.sampled_from([1, 2]))
    N = draw(st.integers(2, 5))
    a = draw(st.integers(1, 4))
    b = draw(st.integers(0, 5))
    zero_cols = draw(st.sets(st.integers(0, 4), max_size=2))
    t_power = draw(st.sampled_from((0, 0, 1, 2)))
    seed = draw(st.integers(0, 2**32 - 1))
    full = GroupRingSpec(3, 2, orders, d, N)
    sub = GroupRingSpec(3, 2, orders, d - 1, N)
    return full, sparse_matrix(sub, a, b, seed, zero_cols, terms=6), t_power


def generic_lifted(m, full, t_power, fitting=fitting_ideal):
    td = tvar(full, full.d)
    return scale_ideal(td ** t_power, fitting(lift_presentation(m, full, [td])))


CASES = [
    # b < a, a >= N, zero columns, empty shapes, and a 1 x 0 matrix (the
    # presentation of N_0 over a trivial sub-ring)
    (GroupRingSpec(3, 2, (3,), 1, 2), 3, 2, 0, set()),
    (GroupRingSpec(3, 2, (3,), 1, 3), 4, 5, 1, {0, 2}),
    (GroupRingSpec(3, 2, (3, 3), 1, 2), 4, 4, 0, set()),
    (GroupRingSpec(3, 2, (3,), 2, 3), 0, 3, 2, set()),
    (GroupRingSpec(3, 2, (3,), 1, 4), 1, 0, 0, set()),
    (GroupRingSpec(3, 2, (3,), 1, 4), 3, 4, 0, {0, 1, 2, 3}),
]


@settings(max_examples=150, deadline=None, database=None)
@given(case=lifted_cases())
def test_lifted_matches_generic_fitting(case):
    full, h, t_power = case
    m = PresentedModule(h)
    assert lifted_fitting_ideal(m, full, t_power).canonical == \
        generic_lifted(m, full, t_power).canonical


@settings(max_examples=80, deadline=None, database=None)
@given(case=lifted_cases())
def test_lifted_matches_cofactor_oracle(case):
    full, h, _ = case
    m = PresentedModule(h)
    assert lifted_fitting_ideal(m, full).canonical == \
        generic_lifted(m, full, 0, fitting_ideal_naive).canonical


@pytest.mark.parametrize("full, a, b, t_power, zero_cols", CASES)
def test_lifted_boundary_shapes(full, a, b, t_power, zero_cols):
    sub = GroupRingSpec(full.p, full.k, full.orders, full.d - 1, full.N)
    m = PresentedModule(sparse_matrix(sub, a, b, 7, zero_cols, terms=4))
    got = lifted_fitting_ideal(m, full, t_power)
    assert got.canonical == generic_lifted(m, full, t_power, fitting_ideal_naive).canonical
    # the T_d-power of every size j <= a - N + t_power vanishes
    if a - min(a, b) + t_power >= full.N:
        assert got.is_zero()


def test_lifted_wide_modulus(rng):
    full = GroupRingSpec(3, 21, (3,), 1, 3)
    sub = GroupRingSpec(3, 21, (3,), 0, 3)
    assert full.dtype() is object
    h = random_matrix(sub, 2, 3, rng)
    m = PresentedModule(h)
    assert ideal_equal(lifted_fitting_ideal(m, full, 1), generic_lifted(m, full, 1))


def test_lifted_validates_specs(rng):
    sub = GroupRingSpec(3, 2, (3,), 1, 3)
    m = PresentedModule(random_matrix(sub, 1, 1, rng))
    with pytest.raises(SpecMismatchError):
        lifted_fitting_ideal(m, GroupRingSpec(3, 2, (3,), 3, 3))  # two more T
    with pytest.raises(SpecMismatchError):
        lifted_fitting_ideal(m, GroupRingSpec(3, 2, (9,), 2, 3))
    with pytest.raises(ValueError):
        lifted_fitting_ideal(m, GroupRingSpec(3, 2, (3,), 2, 3), -1)


def test_minors_by_size_spans_every_size(rng):
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    h = random_matrix(spec, 3, 4, rng)
    by_size = _minors_by_size(h, 0)
    assert np.array_equal(by_size[0], [one(spec).coeffs])
    assert len(by_size[1]) == sum(not h.at(i, j).is_zero()
                                  for i in range(3) for j in range(4))
    for j in (2, 3):
        # the j x j minors of h are the maximal minors of its j-row blocks
        blocks = [PresentedModule(matrix_from_rows(
            spec, [[h.at(i, c) for c in range(4)] for i in rows]))
            for rows in combinations(range(3), j)]
        gens = [g for blk in blocks for g in fitting_ideal_naive(blk).generators]
        minors = [from_vector(spec, x) for x in by_size[j]]
        assert ideal_equal(Ideal(spec, minors), Ideal(spec, gens))
    assert len(_minors_by_size(h, 3)[2]) == 0


@pytest.mark.parametrize("n", range(6))
def test_shift_trivial_matches_generic_lift(n):
    spec = GroupRingSpec(3, 2, (3, 3), 1, 5)
    sub = GroupRingSpec(3, 2, (3, 3), 0, 5)
    complex_ = resolution_complex(sub, n + 1)
    t = sum((-1) ** (n + j) * complex_.ranks[j] for j in range(n))
    m = PresentedModule(complex_.boundary(n + 1))
    expected = generic_lifted(m, spec, max(t, 0))
    value = shift_trivial(ShiftRequest(spec, n))
    assert value.numerator.canonical == expected.canonical
    assert value.denominator == tvar(spec, 1) ** max(-t, 0)
