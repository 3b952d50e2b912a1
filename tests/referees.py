"""Slow referees that the tests hold the library's fast paths to.

``HowellBuilder`` inserts rows one at a time into a Howell form, the
referee for ``iwafit.linalg.howell_span_rows``; ``fitting_ideal_naive``
expands every maximal minor by cofactors, the referee for
``iwafit.fitting.fitting_ideal``; ``char_eval_naive`` walks the group
monomials one at a time, the referee for ``iwafit.groupring.char_eval``.
No library path uses any of them.
"""

from itertools import combinations

import numpy as np

from iwafit.errors import SpecMismatchError
from iwafit.fitting import PresentedModule
from iwafit.groupring import Character, CyclotomicElement, RingElement, _zeta_powers, mul, zero
from iwafit.ideals import Ideal, unit_ideal, zero_ideal
from iwafit.linalg import residue_dtype


class HowellBuilder:
    """Incremental Howell-form accumulator, the referee for the kernel.

    Rows are inserted one at a time; the builder keeps at most one pivot row
    per column, pivots normalized to powers of p.  Installing a pivot p^e
    with e > 0 also inserts p^(k-e) times the row, which is what makes the
    row set span-closed.
    """

    def __init__(self, p: int, k: int, ncols: int):
        self.p = p
        self.k = k
        self.mod = p**k
        self.ncols = ncols
        self.pivots: dict[int, np.ndarray] = {}
        self.pivot_val: dict[int, int] = {}
        self._dtype = residue_dtype(self.mod)

    def _valuation(self, x: int) -> int:
        e = 0
        while x % self.p == 0:
            x //= self.p
            e += 1
        return e

    def insert(self, vec) -> None:
        queue = [np.asarray(vec, dtype=self._dtype) % self.mod]
        while queue:
            v = queue.pop()
            col = 0
            while col < self.ncols:
                x = int(v[col])
                if x == 0:
                    col += 1
                    continue
                e = self._valuation(x)
                if col not in self.pivots:
                    self._install(col, v, e, queue)
                    break
                pe = self.pivot_val[col]
                if e >= pe:
                    c = (x // self.p**pe) % self.mod
                    v = (v - c * self.pivots[col]) % self.mod
                    # v[col] is now zero; continue along the row.
                else:
                    old = self.pivots.pop(col)
                    self.pivot_val.pop(col)
                    self._install(col, v, e, queue)
                    queue.append(old)
                    break
            # Row fully reduced to zero when the loop runs off the end.

    def _install(self, col: int, v, e: int, queue) -> None:
        unit = int(v[col]) // self.p**e
        if unit % self.p == 0:
            raise AssertionError("valuation bookkeeping broke")
        inv = pow(unit, -1, self.mod)
        v = (v * inv) % self.mod
        self.pivots[col] = v
        self.pivot_val[col] = e
        if e > 0:
            queue.append((v * self.p ** (self.k - e)) % self.mod)

    def normalized_rows(self) -> list[np.ndarray]:
        """Back-substituted rows, sorted by pivot column."""
        cols = sorted(self.pivots)
        rows = {c: self.pivots[c].copy() for c in cols}
        for c in cols:
            pe = self.p ** self.pivot_val[c]
            prow = None
            for c2 in cols:
                if c2 >= c:
                    break
                r = rows[c2]
                q = int(r[c]) // pe
                if q:
                    if prow is None:
                        prow = rows[c]
                    rows[c2] = (r - q * prow) % self.mod
        return [rows[c] for c in cols]


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


def char_eval_naive(chi: Character, x: RingElement) -> CyclotomicElement:
    """Substitute chi(delta_i) for delta_i, keeping the T variables."""
    spec = x.spec
    if spec != chi.spec:
        raise SpecMismatchError("character and element specs differ")
    e = chi.e
    mod = spec.modulus
    zpow = _zeta_powers(e, mod)
    deg = zpow.shape[1]
    tsize = spec.N**spec.d
    G = spec.group_size
    shaped = x.coeffs.reshape(G, tsize).astype(object)
    out = np.zeros((deg, tsize), dtype=object)
    # Walk the group monomials; G is small at desk scale.
    import itertools

    for gi, a in enumerate(itertools.product(*(range(m) for m in spec.orders))) if spec.s else [(0, ())]:
        row = shaped[gi]
        if not np.any(row):
            continue
        w = sum((e // m) * t * ai for m, t, ai in zip(spec.orders, chi.exponents, a)) % e
        out = (out + zpow[w][:, None] * row[None, :]) % mod
    return CyclotomicElement(mod, e, out)
