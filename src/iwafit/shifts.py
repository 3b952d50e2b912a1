"""Shift invariants of the trivial module and of user-supplied sequences.

For n >= 0 the n-th shift of Z_p over (Z/p^k)[delta][T_1..T_d] is computed
from the tensor product of the cyclic-factor resolutions and the two-term
complexes for T_1..T_(d-1), built over the spec without T_d.  The boundary
h = d_(n+1) presents the n-th kernel module N_n there; over the full ring
N_n is presented by [h | T_d * 1_a], and the value is T_d^t * Fitt(N_n)
with t the alternating sum of the complex ranks below degree n.  The
Fitting ideal comes from the minors of h, grouped by size
(``fitting.lifted_fitting_ideal``), so the lifted matrix is never built;
the minors come from one walk over h that extends all subdeterminants of
one size at a time (``fitting._minors_by_size``).
A negative t puts T_d^(-t) in the denominator, which needs N > -t; below
that a ``PrecisionError`` is raised before any minor is computed.

Negative shifts are restricted to the regimes with a computable answer:
d = 1 (any finite abelian group, via the norm-multiplication embedding for
n = -1 and duality for n <= -2) and cyclic or trivial groups (any d, via
two-periodicity of the shifts).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ChainComplex, cyclic_complex, t_complex, tensor, trivial_complex
from .errors import IwafitError, PrecisionError
from .fitting import PresentedModule, fitting_ideal, lifted_fitting_ideal
from .groupring import GroupRingSpec, mul, norm_element, one, tvar
from .ideals import (
    FractionalIdeal,
    FracVerdict,
    Ideal,
    frac_equal,
    ideal_equal,
    nzd_status,
    scale_ideal,
)


class UnsupportedShiftError(IwafitError):
    """The (n, d, group-shape) combination has no computable recipe here."""


@dataclass(frozen=True)
class ShiftRequest:
    """Shift evaluation request with well-definedness knobs.

    ``generator_powers`` replaces each delta_i by delta_i^(u_i) (u_i coprime
    to m_i) as the chosen generator; ``factor_order`` permutes the cyclic
    factors in the tensor product.  Both must leave the value unchanged.
    """

    spec: GroupRingSpec
    n: int
    generator_powers: tuple[int, ...] | None = None
    factor_order: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.spec.d < 1:
            raise ValueError("shift evaluation needs at least one T variable")
        from math import gcd

        if self.generator_powers is not None:
            if len(self.generator_powers) != self.spec.s:
                raise ValueError("need one generator power per cyclic factor")
            for u, m in zip(self.generator_powers, self.spec.orders):
                if gcd(u, m) != 1:
                    raise ValueError(f"generator power {u} not coprime to {m}")
        if self.factor_order is not None:
            if sorted(self.factor_order) != list(range(1, self.spec.s + 1)):
                raise ValueError("factor_order must permute 1..s")


def _sub_spec(spec: GroupRingSpec) -> GroupRingSpec:
    return GroupRingSpec(spec.p, spec.k, spec.orders, spec.d - 1, spec.N)


def resolution_complex(spec: GroupRingSpec, length: int,
                       generator_powers=None, factor_order=None) -> ChainComplex:
    """Tensor complex of the cyclic resolutions and the T_1..T_d two-term
    complexes over ``spec``, with terms 0..``length``."""
    order = list(factor_order) if factor_order else list(range(1, spec.s + 1))
    powers = list(generator_powers) if generator_powers else [1] * spec.s
    factors = [cyclic_complex(spec, i, length, powers[i - 1]) for i in order]
    factors += [t_complex(spec, j) for j in range(1, spec.d + 1)]
    if not factors:
        return trivial_complex(spec, length)
    return tensor(factors, length)


def shift_trivial(req: ShiftRequest) -> FractionalIdeal:
    """The n-th shift of the trivial module Z_p as a fractional ideal."""
    spec, n = req.spec, req.n
    if n >= 0:
        return _shift_nonnegative(req)
    if spec.d == 1:
        if n == -1:
            # Multiplication by the norm embeds Z_p into Z_p[group]; the
            # cokernel has presentation (norm | T) over the full ring.
            num = Ideal(spec, [norm_element(spec), tvar(spec, 1)])
            return FractionalIdeal(num, tvar(spec, 1), nzd_status(tvar(spec, 1)))
        # Duality: the (-n-2)-nd shift of the dual, with Z_p self-dual.
        return shift_trivial(ShiftRequest(spec, -2 - n,
                                          req.generator_powers, req.factor_order))
    if spec.s <= 1:
        # Cyclic (or trivial) group: shifts are two-periodic.
        return shift_trivial(ShiftRequest(spec, n % 2,
                                          req.generator_powers, req.factor_order))
    raise UnsupportedShiftError(
        f"negative shift n={n} is unsupported for d={spec.d}, s={spec.s}"
    )


def _shift_nonnegative(req: ShiftRequest) -> FractionalIdeal:
    spec, n = req.spec, req.n
    sub = _sub_spec(spec)
    complex_ = resolution_complex(sub, n + 1,
                                  req.generator_powers, req.factor_order)
    ranks = complex_.ranks
    t = sum((-1) ** (n + j) * ranks[j] for j in range(n))
    if -t >= spec.N:
        raise PrecisionError(
            f"shift n={n} for orders {spec.orders}, d={spec.d} has denominator "
            f"T{spec.d}^{-t}, which vanishes at N={spec.N}; it needs N >= {1 - t}",
            needed_N=1 - t)
    fitt = lifted_fitting_ideal(PresentedModule(complex_.boundary(n + 1)), spec, max(t, 0))
    if t >= 0:
        return FractionalIdeal(fitt, one(spec), "certified")
    den = tvar(spec, spec.d) ** (-t)
    return FractionalIdeal(fitt, den, nzd_status(den))


@dataclass(frozen=True)
class SequenceData:
    """An exact sequence 0 -> N -> P_1 -> ... -> P_n -> M -> 0, caller-asserted.

    Each P_i comes with a declared principal generator g_i of its Fitting
    ideal; exactness over the exact ring is the caller's obligation and is
    not checked.
    """

    P_list: tuple  # pairs (PresentedModule, RingElement)
    N_module: PresentedModule
    n: int

    def __post_init__(self):
        if len(self.P_list) != self.n:
            raise ValueError("P_list length must equal n")


def shift_from_sequence(data: SequenceData) -> FractionalIdeal:
    """Alternating product of the P_i Fitting generators times Fitt(N)."""
    spec = data.N_module.spec
    numerator = fitting_ideal(data.N_module)
    denominator = one(spec)
    for i, (P, g) in enumerate(data.P_list, start=1):
        if P.spec != spec or g.spec != spec:
            raise IwafitError("sequence terms live on different specs")
        if not ideal_equal(Ideal(spec, [g]), fitting_ideal(P)):
            raise IwafitError(
                f"declared generator of P_{i} does not generate its Fitting ideal"
            )
        if i % 2 == 1:
            denominator = mul(denominator, g)
        else:
            numerator = scale_ideal(g, numerator)
    status = nzd_status(denominator)
    return FractionalIdeal(numerator, denominator, status)


def b_delta_module(spec: GroupRingSpec) -> PresentedModule:
    """coker(d_3) of the group-only resolution, over the spec without T.

    Requires d = 1.  The degree-two kernel module B is this presentation
    lifted by the T variable, so Fitt(B) is
    ``lifted_fitting_ideal(b_delta_module(spec), spec)``.
    """
    if spec.d != 1:
        raise ValueError("the degree-two kernel module is set up for d = 1")
    complex_ = resolution_complex(_sub_spec(spec), 3)
    return PresentedModule(complex_.boundary(3))


def verify_thm01_identity(spec: GroupRingSpec) -> FracVerdict:
    """Check shift^2(Z_p) = Fitt(B) / T^(s-1) for the degree-two kernel B."""
    if spec.d != 1:
        raise ValueError("the identity is stated for d = 1")
    s = spec.s
    lhs = shift_trivial(ShiftRequest(spec, 2))
    t1 = tvar(spec, 1)
    den = t1 ** (s - 1)
    rhs = FractionalIdeal(lifted_fitting_ideal(b_delta_module(spec), spec), den,
                          nzd_status(den))
    return frac_equal(lhs, rhs)
