"""Ideals and fractional ideals of the truncated group ring.

An ideal is stored as a generator list; its canonical form is the Howell
normal form of the Z/p^k-module it spans inside R.  The products of each
generator with every basis monomial span that module, so one bulk Howell
pass over their stacked multiplication matrices computes it.
Equality of canonical forms decides equality of ideal images in the
truncated ring, so a "false" verdict certifies exact inequality while a
"true" verdict is evidence at the working precision.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SpecMismatchError
from .groupring import (
    GroupRingSpec,
    RingElement,
    all_characters,
    char_eval,
    from_vector,
    mul,
    multiplication_rows,
    one,
    zero,
)
from .linalg import CoeffMatrix, _reduce, howell_span_rows


def distinct_nonzero(elements) -> list[RingElement]:
    """The non-zero elements, each coefficient vector kept once, in order."""
    seen = set()
    out = []
    for x in elements:
        if x.is_zero():
            continue
        c = x.coeffs
        key = tuple(c) if c.dtype == object else c.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(x)
    return out


class Ideal:
    """Finitely generated ideal of the truncated ring."""

    def __init__(self, spec: GroupRingSpec, generators):
        self.spec = spec
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, RingElement) or g.spec != spec:
                raise SpecMismatchError("generator does not live on the ideal's spec")
        self.generators = gens
        self._canonical = None
        self._lock = threading.Lock()

    @property
    def canonical(self) -> CoeffMatrix:
        if self._canonical is None:
            with self._lock:
                if self._canonical is None:
                    self._canonical = self._canonicalize()
        return self._canonical

    def _canonicalize(self) -> CoeffMatrix:
        # The Z/p^k-span of {g * b : g generator, b basis monomial} is the
        # whole ideal, so one bulk Howell pass over the stacked
        # multiplication matrices canonicalizes it.
        spec = self.spec
        blocks = [multiplication_rows(g) for g in distinct_nonzero(self.generators)]
        if not blocks:
            return CoeffMatrix(spec.p, spec.k, spec.size, ())
        rows = howell_span_rows(spec.p, spec.k, spec.size, np.vstack(blocks))
        return CoeffMatrix(spec.p, spec.k, spec.size, tuple(rows))

    def canonical_elements(self) -> list[RingElement]:
        return [from_vector(self.spec, row) for row in self.canonical.rows]

    def is_zero(self) -> bool:
        return self.canonical.nrows == 0

    def contains(self, x: RingElement) -> bool:
        if x.spec != self.spec:
            raise SpecMismatchError("element does not live on the ideal's spec")
        return _reduce(x.coeffs, self.canonical)

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators over {self.spec})"


def unit_ideal(spec: GroupRingSpec) -> Ideal:
    return Ideal(spec, [one(spec)])


def zero_ideal(spec: GroupRingSpec) -> Ideal:
    return Ideal(spec, [zero(spec)])


def _check(I: Ideal, J: Ideal):
    if I.spec != J.spec:
        raise SpecMismatchError("ideals live on different specs")


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Canonical-form equality; false verdicts certify exact inequality."""
    _check(I, J)
    return I.canonical == J.canonical


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    _check(I, J)
    return Ideal(I.spec, I.generators + J.generators)


def ideal_mul(I: Ideal, J: Ideal) -> Ideal:
    _check(I, J)
    return Ideal(I.spec, [mul(a, b) for a in I.generators for b in J.generators])


def ideal_pow(I: Ideal, e: int) -> Ideal:
    if e < 0:
        raise ValueError("negative ideal powers are not defined")
    result = unit_ideal(I.spec)
    for _ in range(e):
        result = ideal_mul(result, I)
    return result


def scale_ideal(f: RingElement, I: Ideal) -> Ideal:
    if f.spec != I.spec:
        raise SpecMismatchError("scalar does not live on the ideal's spec")
    return Ideal(I.spec, [mul(f, g) for g in I.generators])


@dataclass(frozen=True)
class FractionalIdeal:
    """A fractional ideal numerator / denominator with a non-zero-divisor flag."""

    numerator: Ideal
    denominator: RingElement
    nzd_status: str = "assumed"  # "certified" or "assumed"

    def __post_init__(self):
        if self.denominator.spec != self.numerator.spec:
            raise SpecMismatchError("numerator and denominator specs differ")
        if self.denominator.is_zero():
            raise ValueError("denominator must be nonzero")

    @property
    def spec(self) -> GroupRingSpec:
        return self.numerator.spec


def integral(I: Ideal) -> FractionalIdeal:
    return FractionalIdeal(I, one(I.spec), "certified")


class FracVerdict(NamedTuple):
    equal: bool
    certified_t_precision: int | None  # None on an unequal verdict


def frac_equal(X: FractionalIdeal, Y: FractionalIdeal) -> FracVerdict:
    """Cross-multiplied comparison of fractional ideals.

    For X = I/f and Y = J/g, compares g*I with f*J.  An equal verdict holds
    at T-precision N - degT(f) - degT(g); unequal verdicts are exact.
    """
    if X.spec != Y.spec:
        raise SpecMismatchError("fractional ideals live on different specs")
    lhs = scale_ideal(Y.denominator, X.numerator)
    rhs = scale_ideal(X.denominator, Y.numerator)
    if not ideal_equal(lhs, rhs):
        return FracVerdict(False, None)
    certified = X.spec.N - X.denominator.t_degree() - Y.denominator.t_degree()
    return FracVerdict(True, certified)


def frac_mul(X: FractionalIdeal, Y: FractionalIdeal) -> FractionalIdeal:
    if X.spec != Y.spec:
        raise SpecMismatchError("fractional ideals live on different specs")
    status = "certified" if X.nzd_status == Y.nzd_status == "certified" else "assumed"
    return FractionalIdeal(
        ideal_mul(X.numerator, Y.numerator), mul(X.denominator, Y.denominator), status
    )


# --------------------------------------------------------------------------
# Non-zero-divisor certificates


def _cyclotomic_field_ok(spec: GroupRingSpec, e: int) -> bool:
    """True iff Phi_e is irreducible over Q_p, so the character check is sound.

    Writing e = p^a * m with p coprime to m, Phi_e is irreducible over Q_p
    exactly when p generates (Z/m)^x.
    """
    m = e
    while m % spec.p == 0:
        m //= spec.p
    if m == 1:
        return True
    phi_m = sum(1 for t in range(1, m + 1) if np.gcd(t, m) == 1)
    order = 1
    acc = spec.p % m
    while acc != 1:
        acc = acc * spec.p % m
        order += 1
        if order > phi_m:
            return False
    return order == phi_m


def nzd_status(f: RingElement) -> str:
    """Denominator status for a FractionalIdeal: certified or assumed."""
    return "certified" if nzd_certificate(f) == "certified" else "assumed"


def nzd_certificate(f: RingElement) -> str:
    """Sufficient check that f is a non-zero-divisor of the exact ring.

    Evaluates every character of the finite group on f in the cyclotomic
    coefficient ring; "certified" means every value is nonzero at working
    precision, which proves f is a non-zero-divisor of the untruncated ring.
    "inconclusive" proves nothing.
    """
    spec = f.spec
    if f.is_zero():
        return "inconclusive"
    chars = list(all_characters(spec))
    if chars and not _cyclotomic_field_ok(spec, chars[0].e):
        return "inconclusive"
    for chi in chars:
        if char_eval(chi, f).is_zero():
            return "inconclusive"
    # With no characters (the trivial group), f != 0 suffices over (Z/p^k)[[T]].
    return "certified"
