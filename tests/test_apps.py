"""Euler factors, the untwisting character, and Tate twists."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iwafit import (
    DecompositionData,
    GroupRingSpec,
    Ideal,
    euler_character,
    euler_factor_closed,
    euler_factor_direct,
    frac_equal,
    ideal_equal,
    norm_element,
    one,
    twist_hom,
)
from iwafit.apps import _teichmuller
from iwafit.errors import IwafitError
from iwafit.paperchecks import euler_grid


def make_data(p=3, k=4, N=6, inertia=(3,), m_v=2, q=2):
    orders = inertia + ((m_v,) if m_v > 1 else ())
    local = GroupRingSpec(p, k, orders, 1, N)
    frob = tuple(0 for _ in inertia) + ((1,) if m_v > 1 else ())
    return DecompositionData(inertia, m_v, q, local, frob)


def test_routes_agree_on_sample_points():
    for data in (make_data(), make_data(inertia=(), m_v=1, q=4),
                 make_data(p=5, k=3, inertia=(5,), m_v=1, q=6)):
        closed = euler_factor_closed(data, assume_nzd=True)
        direct = euler_factor_direct(data, assume_nzd=True)
        assert frac_equal(closed, direct).equal


@pytest.mark.parametrize("k", [1, 4, 21])
def test_teichmuller_is_a_root_of_unity_lifting_q(k):
    @settings(max_examples=50, deadline=None, database=None)
    @given(p=st.sampled_from([3, 5, 7, 11]), q=st.integers(1, 10**6))
    def check(p, q):
        assume(q % p)
        omega = _teichmuller(q, p, k)
        assert omega % p == q % p
        assert pow(omega, p - 1, p**k) == 1

    check()


def test_grid_has_twelve_points():
    grid = euler_grid(k=3, N=4)
    assert len(grid) == 12
    assert {d.local.p for d in grid} == {3, 5}


def test_closed_form_structure():
    data = make_data()
    spec = data.local
    out = euler_factor_closed(data, assume_nzd=True)
    f = data.frobenius() - one(spec) * data.q_reduced
    assert out.denominator == f
    assert ideal_equal(out.numerator,
                       Ideal(spec, [norm_element(spec, [1]), f]))


def test_character_takes_frobenius_to_q():
    # kappa(frobenius) = omega(q) * q1 = q, with the root-of-unity part on
    # the finite factor and the principal-unit part on 1 + T
    data = make_data()
    spec = data.local
    dv, u = euler_character(data)
    assert dv[:-1] == (1,) * (spec.s - 1)
    v = dv[-1]
    assert pow(v, data.m_v, spec.modulus) == 1
    assert u % spec.p == 1 % spec.p and u % spec.p != 0
    assert (v * u) % spec.modulus == data.q_reduced % spec.modulus


def test_character_rejects_incompatible_data():
    with pytest.raises(IwafitError):
        # q = 2 has Teichmuller part of order 2 mod 3^k, but m_v = 1
        euler_character(make_data(inertia=(3,), m_v=1, q=2))
    with pytest.raises(IwafitError):
        euler_character(make_data(q=3))  # q not a unit mod p


def test_decomposition_data_validation():
    spec = GroupRingSpec(3, 2, (3, 2), 1, 3)
    with pytest.raises(ValueError):
        DecompositionData((3,), 3, 2, spec, (0, 1))  # m_v not prime to p
    with pytest.raises(ValueError):
        DecompositionData((3,), 2, 1, spec, (0, 1))  # q too small
    with pytest.raises(ValueError):
        DecompositionData((9,), 2, 2, spec, (0, 1))  # spec mismatch
    with pytest.raises(ValueError):
        DecompositionData((3,), 2, 2, spec, (0, 0))  # frobenius not a generator


def test_denominator_guard():
    # p = 5, q = 2, m_v = 4: Phi_4 is reducible over Q_5 so the certificate
    # is inconclusive and the strict mode refuses to divide
    data = make_data(p=5, k=3, N=4, inertia=(), m_v=4, q=2)
    with pytest.raises(IwafitError):
        euler_factor_closed(data, assume_nzd=False)
    out = euler_factor_closed(data, assume_nzd=True)
    assert out.nzd_status == "assumed"


def test_tate_twist_rejects_non_units():
    # a Tate twist needs a unit value on delta; 3 is not a unit mod 3^2
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    with pytest.raises(ValueError):
        twist_hom(spec, (3,), (1,))
