"""Fitting ideals of presentation matrices.

The Fitting ideal of coker(h: R^b -> R^a) is generated by all a x a minors
of h.  The ring has zero divisors, so fraction-free elimination is not
available; minors are computed division-free by a walk over increasing
column subsets that goes one depth at a time.  Depth j holds every non-zero
j x j subdeterminant of h, for a j-row subset and a set of j columns, as
one row of an (n, B) residue array, and choosing one more column extends
each of them by Laplace expansion along it.  A depth costs one product per
column c, the rows whose last column lies before c against the
multiplication matrices of c's non-zero entries side by side, and one
merge: the terms of each (column set, row subset) are summed after a
lexsort and the zero sums are dropped.  Subdeterminants are shared between
column subsets with a common prefix, and column subsets whose
subdeterminants all vanish are never extended.

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
import numpy as np

from .complexes import RingMatrix
from .errors import SpecMismatchError
from .groupring import GroupRingSpec, RingElement, _zeros, multiplication_rows, one
from .ideals import Ideal, _distinct_nonzero_positions


@dataclass(frozen=True)
class PresentedModule:
    """Module given as coker(h: R^b -> R^a) for an a x b matrix h."""

    presentation: RingMatrix

    @property
    def spec(self) -> GroupRingSpec:
        return self.presentation.spec


def _minors_by_size(h: RingMatrix, jmin: int) -> list[np.ndarray]:
    """Non-zero j x j minors of h for every size j >= jmin, indexed by j,
    each size an (n_j, B) residue array.

    Each minor carries a sign that depends only on j, so the rows for j
    generate I_j(h); sizes below ``jmin`` get no rows.  The walk goes one
    depth at a time.  Every frontier row is the non-zero subdeterminant of a
    j-row subset (its bit mask) and a set of j columns (its rank in
    lexicographic order, and its last column); every column c past the last
    extends it by Laplace expansion along c.  The minors of each size come
    out by column set in lexicographic order, and within a column set by
    the first (parent, row) term that reaches each row mask.
    """
    spec = h.spec
    a, b = h.nrows, h.ncols
    jmax = min(a, b)
    found = [_zeros(spec, 0) for _ in range(a + 1)]
    seed = one(spec).coeffs[None]
    if jmin <= 0:
        found[0] = seed
    if jmax < max(jmin, 1):
        return found
    B, mod = spec.size, spec.modulus
    bits = np.array([1 << i for i in range(a)], dtype=np.int64 if a < 63 else object)
    # Per column, the rows of its non-zero entries and their multiplication
    # matrices side by side, so det @ mats holds every det * entry.
    nonzero = h.coeffs.any(axis=2)
    columns = []
    for c in range(b):
        rows = np.flatnonzero(nonzero[:, c])
        mats = multiplication_rows(spec, h.coeffs[rows, c])
        columns.append((rows, mats.transpose(1, 0, 2).reshape(B, -1)))

    dets, sets, last = seed, np.zeros(1, np.int64), np.full(1, -1)
    masks = np.zeros(1, dtype=bits.dtype)
    for depth in range(jmax):
        # Row i enters a frontier row's mask with the sign of the parity of
        # the mask bits below i: its count up to i, as i is not in the mask.
        member = (masks[:, None] & bits) != 0
        odd_below = np.cumsum(member, axis=1) % 2 == 1
        parents, cols, new_masks, terms = [], [], [], []
        # Column c is only tried while enough columns remain after it to
        # reach size jmin.
        for c in range(b - max(jmin - depth, 1) + 1):
            rows, mats = columns[c]
            sel = np.flatnonzero(last < c)
            if not len(rows) or not len(sel):
                continue
            prods = (dets[sel] @ mats).reshape(len(sel), len(rows), B)
            # Pairs (parent, row) with the row outside the parent's mask, in
            # (parent, row) order.
            pi, ri = np.nonzero(~member[np.ix_(sel, rows)])
            if not len(pi):
                continue
            parent, row = sel[pi], rows[ri]
            term = prods[pi, ri] % mod
            odd = odd_below[parent, row]
            term[odd] = -term[odd]
            parents.append(parent)
            cols.append(np.full(len(pi), c))
            new_masks.append(masks[parent] | bits[row])
            terms.append(term)
        if not terms:
            break
        parent, col = np.concatenate(parents), np.concatenate(cols)
        new_mask, term = np.concatenate(new_masks), np.concatenate(terms)
        new_set = sets[parent] * b + col
        # Merge the terms of each (column set, row mask); the stable sort
        # keeps each key's first (parent, row) term first.
        order = np.lexsort((new_mask, new_set))
        key_set, key_mask = new_set[order], new_mask[order]
        starts = np.flatnonzero(np.r_[True, (key_set[1:] != key_set[:-1])
                                      | (key_mask[1:] != key_mask[:-1])])
        sums = np.add.reduceat(term[order], starts, axis=0) % mod
        groups = np.lexsort((order[starts], key_set[starts]))
        groups = groups[sums[groups].any(axis=1)]
        if not len(groups):
            break
        dets, masks = sums[groups], key_mask[starts][groups]
        last = col[order[starts]][groups]
        key_set = key_set[starts][groups]
        sets = np.cumsum(np.r_[0, key_set[1:] != key_set[:-1]])
        if depth + 1 >= jmin:
            found[depth + 1] = dets
    return found


def fitting_ideal(m: PresentedModule) -> Ideal:
    """Ideal of all maximal minors of the presentation matrix."""
    h = m.presentation
    minors = _minors_by_size(h, h.nrows)[h.nrows]
    return Ideal(h.spec, [RingElement(h.spec, x) for x in minors])


def lifted_fitting_ideal(m: PresentedModule, target: GroupRingSpec,
                         t_power: int = 0) -> Ideal:
    """T_d^t_power * Fitt(coker [h | T_d * 1_a]) over ``target``.

    ``m`` = coker(h) lives on ``target`` without its last T variable T_d,
    and the result equals ``fitting_ideal(lift_presentation(m, target,
    [T_d]))`` scaled by T_d^t_power.  The generators are the distinct
    non-zero minors of each size j, placed at T_d-degree a - j + t_power
    (T_d is the last radix, so no ring multiplication is needed); sizes
    whose degree reaches N are skipped.  Every generator is homogeneous in
    T_d, so the result's Howell forms are taken one T_d-degree at a time
    (see ``ideals``).
    """
    h = m.presentation
    src = h.spec
    if t_power < 0:
        raise ValueError("t_power must be nonnegative")
    if (target.d < 1 or (src.p, src.k, src.orders, src.d + 1, src.N)
            != (target.p, target.k, target.orders, target.d, target.N)):
        raise SpecMismatchError("source spec is not the target without its last T variable")
    a, N = h.nrows, target.N
    gens = []
    for j, minors in enumerate(_minors_by_size(h, a + t_power - N + 1)):
        if len(minors):
            placed = _place(minors[_distinct_nonzero_positions(minors)], target, a - j + t_power)
            gens += [RingElement(target, x) for x in placed]
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

