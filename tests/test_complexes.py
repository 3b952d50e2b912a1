"""Resolutions, tensor products and the displayed boundary matrices."""

import numpy as np
import pytest

from iwafit import (
    GroupRingSpec,
    Ideal,
    PresentedModule,
    RingMatrix,
    SpecMismatchError,
    cyclic_complex,
    delta,
    fitting_ideal,
    ideal_equal,
    matrix_from_rows,
    mul,
    norm_element,
    one,
    t_complex,
    tensor,
    trivial_complex,
    tvar,
    zero,
)
from iwafit.shifts import resolution_complex

from conftest import random_element


def binomial(n, r):
    from math import comb

    return comb(n, r)


def test_cyclic_complex_boundaries():
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    C = cyclic_complex(spec, 1, 4)
    tau = delta(spec, 1) - one(spec)
    n = norm_element(spec, [1])
    assert [C.boundary(j).at(0, 0) for j in (1, 2, 3, 4)] == [tau, n, tau, n]
    assert C.ranks == (1, 1, 1, 1, 1)


def test_t_complex_shape():
    spec = GroupRingSpec(3, 2, (3,), 2, 3)
    D = t_complex(spec, 2)
    assert D.ranks == (1, 1)
    assert D.boundary(1).at(0, 0) == tvar(spec, 2)


def test_composites_vanish_everywhere():
    spec = GroupRingSpec(3, 2, (3, 9), 2, 3)
    C = resolution_complex(spec, 5)
    for j in range(1, C.length):
        assert C.boundary(j).compose(C.boundary(j + 1)).is_zero()


def test_tensor_ranks_match_generating_function():
    # ranks of the total complex are the coefficients of
    # (1 + x)^(number of T factors) / (1 - x)^(number of cyclic factors)
    spec = GroupRingSpec(3, 2, (3, 3), 2, 3)
    C = resolution_complex(spec, 6)
    s, d = 2, 2
    for n, r in enumerate(C.ranks):
        expected = sum(binomial(d, i) * binomial(n - i + s - 1, s - 1)
                       for i in range(0, min(d, n) + 1))
        assert r == expected


def test_first_boundary_spans_augmentation_ideal():
    spec = GroupRingSpec(3, 3, (3, 9), 2, 4)
    C = resolution_complex(spec, 2)
    d1 = C.boundary(1)
    entries = [d1.at(0, j) for j in range(d1.ncols)]
    aug = Ideal(spec, [delta(spec, 1) - one(spec), delta(spec, 2) - one(spec),
                       tvar(spec, 1), tvar(spec, 2)])
    assert ideal_equal(Ideal(spec, entries), aug)


def test_bicyclic_low_boundaries_match_displayed_matrices():
    """d_2 and d_3 of the tensor of two cyclic resolutions, compared through
    the Fitting ideals of their cokernels (basis order is a free choice)."""
    spec = GroupRingSpec(3, 3, (3, 3), 1, 4)
    sub = GroupRingSpec(3, 3, (3, 3), 0, 4)
    C = resolution_complex(sub, 3)
    tau1 = delta(sub, 1) - one(sub)
    tau2 = delta(sub, 2) - one(sub)
    n1 = norm_element(sub, [1])
    n2 = norm_element(sub, [2])
    z = zero(sub)
    assert C.ranks[:4] == (1, 2, 3, 4)
    d2 = matrix_from_rows(sub, [[n1, -tau2, z], [z, tau1, n2]])
    d3 = matrix_from_rows(sub, [[tau1, -n2, z, z], [z, n1, tau2, z],
                                [z, z, -tau1, n2]])
    assert ideal_equal(fitting_ideal(PresentedModule(C.boundary(2))),
                       fitting_ideal(PresentedModule(d2)))
    assert ideal_equal(fitting_ideal(PresentedModule(C.boundary(3))),
                       fitting_ideal(PresentedModule(d3)))


def test_tensor_factor_order_invariance():
    spec = GroupRingSpec(3, 2, (3, 9), 0, 3)
    A = cyclic_complex(spec, 1, 4)
    B = cyclic_complex(spec, 2, 4)
    AB = tensor([A, B], 4)
    BA = tensor([B, A], 4)
    assert AB.ranks == BA.ranks
    for j in range(1, 5):
        IA = fitting_ideal(PresentedModule(AB.boundary(j)))
        IB = fitting_ideal(PresentedModule(BA.boundary(j)))
        assert ideal_equal(IA, IB)


def test_trivial_complex_is_tensor_unit():
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    U = trivial_complex(spec, 3)
    C = cyclic_complex(spec, 1, 3)
    both = tensor([U, C], 3)
    assert both.ranks == C.ranks
    for j in range(1, 4):
        assert both.boundary(j) == C.boundary(j)


def test_short_factors_fill_the_requested_length():
    spec = GroupRingSpec(3, 2, (3,), 2, 3)
    C = tensor([t_complex(spec, 1)], 4)
    assert C.ranks == (1, 1, 0, 0, 0)
    assert C.boundary(1) == t_complex(spec, 1).boundary(1)
    assert [(C.boundary(j).nrows, C.boundary(j).ncols) for j in (2, 3, 4)] == \
        [(1, 0), (0, 0), (0, 0)]
    both = tensor([t_complex(spec, 1), t_complex(spec, 2)], 3)
    assert both.ranks == (1, 2, 1, 0)


def test_ring_matrix_is_one_coefficient_array():
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    with pytest.raises(ValueError):
        RingMatrix(spec, np.zeros((2, 2, spec.size + 1), dtype=np.int64))
    with pytest.raises(ValueError):
        RingMatrix(spec, np.zeros((2, spec.size), dtype=np.int64))
    t, z = tvar(spec, 1), zero(spec)
    m = matrix_from_rows(spec, [[t, z, one(spec)], [z, t * t, z]])
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.coeffs.shape == (2, 3, spec.size)
    assert m.coeffs.dtype == np.int64
    assert not m.coeffs.flags.writeable
    assert m.at(1, 1) == t * t
    assert m.transpose().at(2, 0) == one(spec)
    assert m == matrix_from_rows(spec, [[t, z, one(spec)], [z, t * t, z]])
    assert m != m.transpose()
    assert not m.is_zero()
    assert matrix_from_rows(spec, [[z, z]]).is_zero()
    other = GroupRingSpec(3, 2, (3,), 1, 4)
    with pytest.raises(SpecMismatchError):
        matrix_from_rows(spec, [[t, tvar(GroupRingSpec(5, 2, (3,), 1, 3), 1)]])
    assert matrix_from_rows(other, []).coeffs.shape == (0, 0, other.size)


@pytest.mark.parametrize("k", (2, 21))
def test_compose_matches_entrywise_products(k, rng):
    spec = GroupRingSpec(3, k, (3,), 1, 3)
    assert (spec.dtype() is object) == (k == 21)
    x = [[random_element(spec, rng) for _ in range(3)] for _ in range(2)]
    y = [[random_element(spec, rng) for _ in range(2)] for _ in range(3)]
    y[1][0] = zero(spec)
    prod = matrix_from_rows(spec, x).compose(matrix_from_rows(spec, y))
    assert (prod.nrows, prod.ncols) == (2, 2)
    for i in range(2):
        for j in range(2):
            expected = zero(spec)
            for t in range(3):
                expected = expected + mul(x[i][t], y[t][j])
            assert prod.at(i, j) == expected


def test_validation():
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    other = GroupRingSpec(3, 2, (3,), 1, 4)
    with pytest.raises(ValueError):
        cyclic_complex(spec, 2, 3)  # factor index out of range
    with pytest.raises(ValueError):
        cyclic_complex(spec, 1, 3, generator_power=3)  # not coprime to 3
    with pytest.raises(ValueError):
        t_complex(spec, 2)
    with pytest.raises(ValueError):
        tensor([], 3)
    with pytest.raises(SpecMismatchError):
        tensor([cyclic_complex(spec, 1, 2), t_complex(other, 1)], 2)
