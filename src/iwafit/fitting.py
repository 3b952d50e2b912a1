"""Fitting ideals of presentation matrices.

The Fitting ideal of coker(h: R^b -> R^a) is generated by all a x a minors
of h.  The ring has zero divisors, so fraction-free elimination is not
available; minors are computed division-free by one depth-first walk over
increasing column subsets.  At depth j the walk carries, for every j-row
subset, the determinant of those rows and the j chosen columns, and
choosing one more column extends each of them by Laplace expansion along
it.  Subdeterminants are shared between column subsets with a common
prefix, but the walk still visits every column subset of size j <= a, each
holding up to C(a, j) subdeterminants: at most
sum_j C(b, j) * C(a, j) * (a - j) ring multiplications, not O(2^a * b).
Branches whose subdeterminants all vanish are cut.

Presentations lifted by one T variable are graded.  For h over the ring
without T_d, choosing a - j of the T_d columns of [h | T_d * 1_a] leaves a
j x j minor of h, so

    Fitt(coker [h | T_d * 1_a]) = sum_j T_d^(a - j) * I_j(h),

with I_j(h) the ideal of j x j minors (I_0 = R).  ``lifted_fitting_ideal``
takes the I_j(h) from one walk over h, on a ring N times smaller than the
lift, and drops the sizes j <= a - N, whose T_d-power vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .complexes import RingMatrix
from .errors import SpecMismatchError
from .groupring import GroupRingSpec, RingElement, _zeros, apply_hom, mul, one, zero
from .ideals import Ideal, distinct_nonzero, unit_ideal, zero_ideal


@dataclass(frozen=True)
class PresentedModule:
    """Module given as coker(h: R^b -> R^a) for an a x b matrix h."""

    presentation: RingMatrix

    @property
    def spec(self) -> GroupRingSpec:
        return self.presentation.spec


def _minors_by_size(h: RingMatrix, jmin: int) -> list[list[RingElement]]:
    """Non-zero j x j minors of h for every size j >= jmin, indexed by j.

    Each minor carries a sign that depends only on j, so the list for j
    generates I_j(h); sizes below ``jmin`` get empty lists.
    """
    a, b = h.nrows, h.ncols
    jmax = min(a, b)
    found: list[list[RingElement]] = [[] for _ in range(a + 1)]
    if jmin <= 0:
        found[0].append(one(h.spec))
    # Each column's entries, None where zero, read once for the whole walk.
    nonzero = h.coeffs.any(axis=2)
    columns = [[h.at(i, c) if nonzero[i, c] else None for i in range(a)] for c in range(b)]

    def extend(col: int, state: dict[int, RingElement], depth: int):
        # state maps row-bitmasks of size `depth` to the non-zero
        # subdeterminants of the columns chosen so far.  Column c is only
        # tried while enough columns remain after it to reach size jmin.
        for c in range(col, b - max(jmin - depth, 1) + 1):
            new_state: dict[int, RingElement] = {}
            column = columns[c]
            for mask, det in state.items():
                sign = 1
                for i in range(a):
                    bit = 1 << i
                    if mask & bit:
                        sign = -sign
                        continue
                    entry = column[i]
                    if entry is None:
                        continue
                    term = mul(det, entry) if sign == 1 else -mul(det, entry)
                    new_mask = mask | bit
                    acc = new_state.get(new_mask)
                    new_state[new_mask] = term if acc is None else acc + term
            new_state = {k: x for k, x in new_state.items() if not x.is_zero()}
            if depth + 1 >= jmin:
                found[depth + 1].extend(new_state.values())
            # An empty state has no non-zero extension: every larger minor
            # through these columns is a combination of its entries.
            if new_state and depth + 1 < jmax:
                extend(c + 1, new_state, depth + 1)

    if jmax >= max(jmin, 1):
        # Seed: empty column set, empty row set, determinant 1.
        extend(0, {0: one(h.spec)}, 0)
    return found


def fitting_ideal(m: PresentedModule) -> Ideal:
    """Ideal of all maximal minors of the presentation matrix."""
    h = m.presentation
    return Ideal(h.spec, _minors_by_size(h, h.nrows)[h.nrows])


def lifted_fitting_ideal(m: PresentedModule, target: GroupRingSpec,
                         t_power: int = 0) -> Ideal:
    """T_d^t_power * Fitt(coker [h | T_d * 1_a]) over ``target``.

    ``m`` = coker(h) lives on ``target`` without its last T variable T_d,
    and the result equals ``fitting_ideal(lift_presentation(m, target,
    [T_d]))`` scaled by T_d^t_power.  The generators are the distinct
    non-zero minors of each size j, placed at T_d-degree a - j + t_power
    (T_d is the last radix, so no ring multiplication is needed); sizes
    whose degree reaches N are skipped.
    """
    h = m.presentation
    src = h.spec
    if t_power < 0:
        raise ValueError("t_power must be nonnegative")
    if (target.d < 1 or (src.p, src.k, src.orders, src.d + 1, src.N)
            != (target.p, target.k, target.orders, target.d, target.N)):
        raise SpecMismatchError("source spec is not the target without its last T variable")
    a, N = h.nrows, target.N
    by_size = _minors_by_size(h, a + t_power - N + 1)
    gens = [RingElement(target, _place(x.coeffs, target, a - j + t_power))
            for j, minors in enumerate(by_size) for x in distinct_nonzero(minors)]
    return Ideal(target, gens)


def _place(coeffs: np.ndarray, target: GroupRingSpec, degree: int = 0) -> np.ndarray:
    """Coefficients over ``target`` without its trailing T variables, lifted
    to ``target`` and multiplied by T_d^degree, T_d the last variable.

    The trailing T variables are the last radices, so the lift puts the
    source coefficients in one column of a (..., source size, N^extra) array.
    """
    lead, size = coeffs.shape[:-1], coeffs.shape[-1]
    out = _zeros(target, *lead).reshape(*lead, size, target.size // size)
    out[..., degree] = coeffs
    return out.reshape(*lead, target.size)


def fitting_ideal_naive(m: PresentedModule) -> Ideal:
    """Independent oracle: cofactor expansion over explicit column subsets."""
    h = m.presentation
    a, b = h.nrows, h.ncols
    spec = h.spec
    if a == 0:
        return unit_ideal(spec)
    if b < a:
        return zero_ideal(spec)

    def det(rows, cols):
        if len(rows) == 1:
            return h.at(rows[0], cols[0])
        acc = zero(spec)
        for t, r in enumerate(rows):
            entry = h.at(r, cols[0])
            if entry.is_zero():
                continue
            sub = det([x for x in rows if x != r], cols[1:])
            term = mul(entry, sub)
            acc = acc + term if t % 2 == 0 else acc - term
        return acc

    gens = [det(list(range(a)), list(cols)) for cols in combinations(range(b), a)]
    return Ideal(spec, gens)


def lift_presentation(m: PresentedModule, target: GroupRingSpec,
                      killed) -> PresentedModule:
    """Lift a presentation over a quotient spec by appending f * identity blocks.

    The source spec must equal ``target`` with trailing T variables removed
    (the quotient by those variables); entries are lifted verbatim and one
    block f_t * 1_a is appended per kill element f_t (elements of the target
    ring).  An empty ``killed`` list with matching specs returns the input.
    """
    killed = list(killed)
    h = m.presentation
    src = h.spec
    if (src.p, src.k, src.orders, src.N) != (target.p, target.k, target.orders, target.N):
        raise SpecMismatchError("source spec is not a T-quotient of the target")
    if src.d > target.d:
        raise SpecMismatchError("source spec has more T variables than the target")
    for f in killed:
        if f.spec != target:
            raise SpecMismatchError("kill element lives on the wrong spec")

    a = h.nrows
    blocks = [_place(h.coeffs, target)]
    for f in killed:
        block = _zeros(target, a, a)
        block[range(a), range(a)] = f.coeffs
        blocks.append(block)
    return PresentedModule(RingMatrix(target, np.concatenate(blocks, axis=1)))


def transpose_dual(m: PresentedModule) -> PresentedModule:
    """Dual of a module with square presentation: transpose the matrix."""
    h = m.presentation
    if h.nrows != h.ncols:
        raise ValueError("transpose dual needs a square presentation")
    return PresentedModule(h.transpose())


def direct_sum(m1: PresentedModule, m2: PresentedModule) -> PresentedModule:
    if m1.spec != m2.spec:
        raise SpecMismatchError("summands live on different specs")
    h1, h2 = m1.presentation, m2.presentation
    out = _zeros(m1.spec, h1.nrows + h2.nrows, h1.ncols + h2.ncols)
    out[:h1.nrows, :h1.ncols] = h1.coeffs
    out[h1.nrows:, h1.ncols:] = h2.coeffs
    return PresentedModule(RingMatrix(m1.spec, out))


def apply_hom_to_presentation(hom, m: PresentedModule) -> PresentedModule:
    """Entrywise image of the presentation under a ring homomorphism."""
    h = m.presentation
    out = _zeros(hom.target, h.nrows, h.ncols)
    for i, j in np.ndindex(h.nrows, h.ncols):
        out[i, j] = apply_hom(hom, h.at(i, j)).coeffs
    return PresentedModule(RingMatrix(hom.target, out))
