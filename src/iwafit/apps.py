"""Euler factors computed two independent ways.

The local ring models Z_p[[G_v]] for G_v = I_v x <frobenius-image> x Z_p:
its cyclic factors are the inertia factors followed (when m_v > 1) by one
factor of order m_v generated by the finite part of the Frobenius lift,
and one T variable for the free part.  The closed form of the Euler factor
is (N_I, frob - q) / (frob - q); the direct route evaluates the (-1)-st
shift of Z_p over the local ring and untwists by the character sending the
free generator 1 + T to q^(m_v).  Their equality is a theorem; the library
recomputes both sides and compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import IwafitError
from .groupring import (
    GroupRingSpec,
    RingElement,
    apply_hom,
    group_like,
    twist_hom,
)
from .ideals import FractionalIdeal, Ideal, nzd_status
from .shifts import ShiftRequest, shift_trivial


@dataclass(frozen=True)
class DecompositionData:
    """Local data at a prime: inertia shape, unramified index, residue size.

    ``local`` is the spec for the local ring; its orders are
    ``inertia_orders`` plus one trailing factor of order m_v when m_v > 1.
    ``frobenius_delta`` / ``frobenius_gamma`` give the Frobenius lift as the
    group-like monomial delta^a * (1 + T_1)^c in local coordinates.
    """

    inertia_orders: tuple[int, ...]
    m_v: int
    q: int
    local: GroupRingSpec
    frobenius_delta: tuple[int, ...]
    frobenius_gamma: int = 1

    def __post_init__(self):
        if self.m_v < 1:
            raise ValueError("m_v must be positive")
        if gcd(self.m_v, self.local.p) != 1:
            raise ValueError("m_v must be prime to p")
        if self.q < 2:
            raise ValueError("residue size q must be at least 2")
        expected = tuple(self.inertia_orders) + ((self.m_v,) if self.m_v > 1 else ())
        if self.local.orders != expected or self.local.d != 1:
            raise ValueError("local spec does not match inertia_orders, m_v, d = 1")
        if len(self.frobenius_delta) != self.local.s:
            raise ValueError("frobenius_delta has wrong arity")
        if self.m_v > 1:
            # The finite part of the Frobenius must generate the m_v factor.
            a = self.frobenius_delta[-1] % self.m_v
            if gcd(a, self.m_v) != 1:
                raise ValueError("Frobenius image is inconsistent with m_v")

    @property
    def q_reduced(self) -> int:
        # Integers congruent mod p^k are indistinguishable at this precision.
        return self.q % self.local.modulus

    def frobenius(self) -> RingElement:
        return group_like(self.local, self.frobenius_delta,
                          (self.frobenius_gamma,))

    def inertia_indices(self) -> list[int]:
        return list(range(1, len(self.inertia_orders) + 1))


def _check_denominator(f: RingElement, assume_nzd: bool) -> str:
    status = nzd_status(f)
    if status != "certified" and not assume_nzd:
        raise IwafitError(
            "denominator is not certified as a non-zero-divisor; "
            "pass assume_nzd=True to proceed"
        )
    return status


def euler_factor_closed(data: DecompositionData,
                        assume_nzd: bool = False) -> FractionalIdeal:
    """(N_inertia, frob - q) / (frob - q) over the local ring."""
    from .groupring import norm_element, const

    spec = data.local
    f = data.frobenius() - const(spec, data.q_reduced)
    status = _check_denominator(f, assume_nzd)
    num = Ideal(spec, [norm_element(spec, data.inertia_indices()), f])
    return FractionalIdeal(num, f, status)


def _teichmuller(q: int, p: int, k: int) -> int:
    """The mod p^k root of unity congruent to q mod p."""
    # p^(k - 1) is 1 mod p - 1 and kills the principal-unit part of q.
    return pow(q, p ** (k - 1), p**k)


def euler_character(data: DecompositionData) -> tuple[tuple[int, ...], int]:
    """Unit values of the character kappa with kappa(frobenius) = q.

    kappa is trivial on inertia and continuous, so its value on the free
    generator 1 + T_1 lies in 1 + pZ_p and its value on the order-m_v
    Frobenius factor is a root of unity: the Teichmuller part of q goes to
    the finite factor and the principal-unit part to the free generator.
    Raises if q and m_v are incompatible or the gamma exponent is not
    invertible.
    """
    spec = data.local
    p, mod = spec.p, spec.modulus
    q = data.q_reduced
    if q % p == 0:
        raise IwafitError("residue size q must be a unit mod p")
    omega = _teichmuller(q, p, spec.k)
    q1 = q * pow(omega, -1, mod) % mod
    if pow(omega, data.m_v, mod) != 1:
        raise IwafitError(
            f"no character with kappa(frobenius) = {q}: the Teichmuller part "
            f"of q does not have order dividing m_v = {data.m_v}"
        )
    c = data.frobenius_gamma
    if c % p == 0:
        raise IwafitError(
            f"gamma exponent {c} admits no character with kappa(frobenius) = q"
        )
    u = pow(q1, pow(c, -1, p ** (spec.k - 1)), mod)
    delta_values = [1] * spec.s
    if data.m_v > 1:
        a = data.frobenius_delta[-1] % data.m_v
        delta_values[-1] = pow(omega, pow(a, -1, data.m_v), mod)
    return tuple(delta_values), u


def euler_factor_direct(data: DecompositionData,
                        assume_nzd: bool = False) -> FractionalIdeal:
    """The (-1)-st shift of Z_p over the local ring, untwisted by kappa.

    Computes shift^(-1)(Z_p) = (norm, T_1)/T_1 over the local ring and
    applies the inverse of the character twist from ``euler_character``.
    """
    spec = data.local
    mod = spec.modulus
    base = shift_trivial(ShiftRequest(spec, -1))
    delta_values, gamma_value = euler_character(data)
    untwist = twist_hom(
        spec,
        tuple(pow(v, -1, mod) for v in delta_values),
        (pow(gamma_value, -1, mod),),
    )
    # The numerator generators and the denominator, untwisted as one stack.
    elements = base.numerator.generators + (base.denominator,)
    images = apply_hom(untwist, np.array([x.coeffs for x in elements], spec.dtype()))
    num = Ideal(spec, [RingElement(spec, c) for c in images[:-1]])
    den = RingElement(spec, images[-1])
    status = _check_denominator(den, assume_nzd)
    return FractionalIdeal(num, den, status)

