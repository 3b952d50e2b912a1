"""Slow referees that the tests hold the library's fast paths to.

``HowellBuilder`` inserts rows one at a time into a Howell form, the
referee for ``iwafit.linalg.howell_span_rows``; ``fitting_ideal_naive``
expands every maximal minor by cofactors, the referee for
``iwafit.fitting.fitting_ideal``; ``minors_by_size_dfs`` walks the column
subsets depth first with one ``mul`` per (row mask, row), the referee for
the minors of ``iwafit.fitting._minors_by_size`` and their order;
``char_eval_naive`` walks the group monomials one at a time, the referee
for ``iwafit.groupring.char_eval``; ``nzd_certificate_by_characters``
evaluates the characters one at a time by that walk, the referee for
``iwafit.ideals.nzd_certificate``; ``norm_element_by_products`` and
``group_like_by_products`` build their elements by ``mul`` and
``__pow__``, the referees for ``iwafit.groupring.norm_element`` and
``group_like``; ``stacked_canonical`` and
``stacked_key`` take one Howell pass over every block row of every
generator (``distinct_nonzero`` keeps each non-zero generator once), the
referees for ``Ideal.canonical`` and, through ``back_substituted``, for
``Ideal.key`` on ideals generated by T_d-homogeneous elements.
``Ideal.key`` holds echelon forms, which are not unique; back-substituting
one by the kernel's own step gives the unique Howell form, so a key block
is held to the referee's block that way.
``frac_equal_by_products`` compares the cross-multiplied ideals with no
unit cancelled, the referee for ``iwafit.ideals.frac_equal``.
``per_element_generator_texts`` prints an ideal's canonical generators
one element at a time, the referee for ``iwafit.cli.ideal_generators_text``;
``split_top_level_by_chars`` and ``closing_paren_by_chars`` walk a command
line one character at a time, the referees for ``iwafit.cli``'s
``_split_top_level`` and ``_closing_paren``.
No library path uses any of them.
"""

import math
from itertools import combinations

import numpy as np

from iwafit.complexes import RingMatrix
from iwafit.errors import SpecMismatchError
from iwafit.fitting import PresentedModule
from iwafit.groupring import (
    Character,
    CyclotomicElement,
    GroupRingSpec,
    RingElement,
    _exponent_array,
    _zeta_powers,
    all_characters,
    delta,
    from_vector,
    make_element,
    mul,
    multiplication_rows,
    one,
    tvar,
    zero,
)
from iwafit.ideals import (
    FractionalIdeal,
    FracVerdict,
    Ideal,
    _block_images,
    _block_rows,
    _cyclotomic_field_ok,
    _distinct_nonzero_positions,
    _split,
    ideal_equal,
    scale_ideal,
    unit_ideal,
    zero_ideal,
)
from iwafit.linalg import (
    CoeffMatrix,
    _arithmetic,
    _ops,
    _reduce,
    howell_span_rows,
    residue_dtype,
)
from iwafit.parser import element_to_text


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

    def length(self) -> int:
        """L with p^L elements in the span: the sum of k - e over the pivots."""
        return sum(self.k - e for e in self.pivot_val.values())

    def contains(self, vec) -> bool:
        """True iff vec reduces to zero against the pivot rows, in column
        order; they have the Howell property, so this is membership."""
        v = np.asarray(vec, dtype=self._dtype) % self.mod
        for col in sorted(self.pivots):
            x = int(v[col])
            if x == 0:
                continue
            pe = self.p ** self.pivot_val[col]
            if x % pe:
                return False
            v = (v - (x // pe) * self.pivots[col]) % self.mod
        return not np.any(v)

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


def minors_by_size_dfs(h: RingMatrix, jmin: int) -> list[list[RingElement]]:
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


def nzd_certificate_by_characters(f: RingElement) -> str:
    """"certified" iff Phi_e is irreducible over Q_p and no character takes
    the value zero on f, the characters evaluated one at a time by
    ``char_eval_naive``; else "inconclusive"."""
    spec = f.spec
    if f.is_zero():
        return "inconclusive"
    chars = list(all_characters(spec))
    if not _cyclotomic_field_ok(spec, chars[0].e):
        return "inconclusive"
    for chi in chars:
        if char_eval_naive(chi, f).is_zero():
            return "inconclusive"
    return "certified"


def norm_element_by_products(spec: GroupRingSpec, subset=None) -> RingElement:
    """The product of the sums 1 + delta_i + ... + delta_i^(m_i - 1) over
    the chosen factors (1-based; all by default), one ``mul`` per factor."""
    subset = range(1, spec.s + 1) if subset is None else subset
    result = one(spec)
    for i in sorted(set(subset)):
        factor = zero(spec)
        for j in range(spec.orders[i - 1]):
            factor = factor + delta(spec, i, j)
        result = mul(result, factor)
    return result


def group_like_by_products(spec: GroupRingSpec, delta_exps, gamma_exps) -> RingElement:
    """delta^a times (1 + T_j)^(c_j) for each j, by ``mul`` and ``__pow__``."""
    exps = [a % m for a, m in zip(delta_exps, spec.orders)] + [0] * spec.d
    result = make_element(spec, [(tuple(exps), 1)])
    for j, c in enumerate(gamma_exps, 1):
        result = mul(result, (one(spec) + tvar(spec, j)) ** c)
    return result


def distinct_nonzero(elements) -> list[RingElement]:
    """The non-zero elements, each coefficient vector kept once, in order."""
    elements = list(elements)
    return [elements[i] for i in _distinct_nonzero_positions([x.coeffs for x in elements])]


def stacked_canonical(I: Ideal) -> CoeffMatrix:
    """The Howell form of the stacked multiplication matrices of the
    distinct non-zero generators, whatever their T-degrees."""
    spec = I.spec
    stack = [multiplication_rows(spec, g.coeffs) for g in distinct_nonzero(I.generators)]
    rows = howell_span_rows(spec.p, spec.k, spec.size, np.vstack(stack)) if stack else ()
    return CoeffMatrix(spec.p, spec.k, spec.size, tuple(rows))


def stacked_key(I: Ideal) -> tuple[CoeffMatrix, ...]:
    """Per CRT block, the Howell form of the stacked block rows of the
    distinct non-zero generator images; ``(stacked_canonical(I),)`` on a
    spec without a split axis."""
    spec = I.spec
    split = _split(spec)
    if not split.axes:
        return (stacked_canonical(I),)
    images = [_block_images(spec, split, g.coeffs) for g in distinct_nonzero(I.generators)]
    forms = []
    for b, block in enumerate(split.blocks):
        ncols = split.rest.size * math.prod(n for _, n in block)
        block_images = [img[b] for img in images]
        stack = [_block_rows(split, block, block_images[i][None])
                 for i in _distinct_nonzero_positions(block_images)]
        rows = howell_span_rows(spec.p, spec.k, ncols, np.vstack(stack)) if stack else ()
        forms.append(CoeffMatrix(spec.p, spec.k, ncols, tuple(rows)))
    return tuple(forms)


def frac_equal_by_products(X: FractionalIdeal, Y: FractionalIdeal) -> FracVerdict:
    """I/f = J/g iff g*I = f*J, both products built in the whole ring and
    compared by ``ideal_equal``; an equal verdict holds at T-precision
    N - degT(f) - degT(g)."""
    f, g = X.denominator, Y.denominator
    if not ideal_equal(scale_ideal(g, X.numerator), scale_ideal(f, Y.numerator)):
        return FracVerdict(False, None)
    return FracVerdict(True, X.spec.N - f.t_degree() - g.t_degree())


def back_substituted(E: CoeffMatrix) -> CoeffMatrix:
    """The rows of E reduced above every pivot by the kernel's
    back-substitution: the Howell form of their span."""
    mod = E.p**E.k
    tier, width = _arithmetic(mod)
    ops = _ops(tier, mod)
    H = np.array(E.rows, dtype=ops.dtype)
    _reduce(H, H, E.cols, width, ops, above=True)
    return CoeffMatrix(E.p, E.k, E.ncols, H)


def per_element_generator_texts(I: Ideal) -> list[str]:
    """The canonical generators of I, each printed as its own element and
    sorted by (lowest total degree of a non-zero delta/T monomial, text)."""
    spec = I.spec
    degree = _exponent_array(spec).sum(axis=1)
    keyed = []
    for row in I.canonical.rows:
        x = from_vector(spec, row)
        support = np.flatnonzero(x.coeffs)
        keyed.append((int(degree[support].min()) if len(support) else 0, element_to_text(x)))
    return [text for _, text in sorted(keyed)]


def split_top_level_by_chars(src: str, sep=None) -> list[str]:
    """Split at ``sep`` (each part stripped) or, when None, at whitespace
    (empty parts dropped), wherever the bracket depth is 0."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(src):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0 and (ch.isspace() if sep is None else ch == sep):
            parts.append(src[start:i])
            start = i + 1
    parts.append(src[start:])
    if sep is None:
        return [p for p in parts if p]
    return [p.strip() for p in parts]


def closing_paren_by_chars(src: str) -> int:
    """Index at which the parenthesis depth of ``src`` first returns to 0,
    or -1."""
    depth = 0
    for i, ch in enumerate(src):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0:
            return i
    return -1
