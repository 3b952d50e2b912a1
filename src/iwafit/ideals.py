"""Ideals and fractional ideals of the truncated group ring.

An ideal is stored as a generator list; its canonical form is the Howell
normal form of the Z/p^k-module it spans inside R.  The products of each
generator with every basis monomial span that module, so one bulk Howell
pass over their stacked multiplication matrices computes it (one pass per
T_d-degree for ideals graded by T_d, below).  Only the printers need that
unique form.

Comparisons (``ideal_equal``, ``Ideal.contains`` and with them
``frac_equal``) are decided one prime-to-p block at a time.  On a group
axis of order m that is not a power of p, x^m - 1 = F_1 * ... * F_r over
Z/p^k with monic F_j pairwise coprime mod p (``groupring.crt_factors``),
so R is the product of the rings R_b = R' (x) Z/p^k[x]/(F_j) over the
choices b of one F_j per such axis, R' the ring without those axes.  The
projection pi_b: R -> R_b is a surjective ring map, so pi_b(I) is the
ideal of R_b generated by the pi_b(g), spanned over Z/p^k by the
pi_b(g) * pi_b(b) for the basis monomials b, and I is the product of its
images.  pi_b(g) is g reduced mod F_j(delta) along each split axis, taken
before any multiplication matrix is built; its multiplication rows are
sum_a kron(X_a, multiplication_rows(g_a)) over the monomials x^a of the
quotients, X_a the multiplication by x^a, which is
``multiplication_rows`` of pi_b(g) itself when every F_j is linear.  The
reductions are one ``groupring.along_axes`` call per element, with the
transposed CRT matrix on each split axis.  A block ring need not be
local: the block of two quadratic factors of x^4 - 1 mod 3 is
F_9 (x) F_9 = F_9 x F_9 modulo 3.

``Ideal.key`` holds, per block, the echelon form of pi_b(I) that the
kernel's elimination leaves before back-substitution
(``linalg.echelon_span_rows``); it has the Howell property, so it decides
membership and gives the length L_b of pi_b(I), |pi_b(I)| = p^(L_b)
(``linalg`` module docstring).  The rule: I = J iff in every block the
lengths agree and each generator image pi_b(g) of I reduces to zero
against J's form, since then pi_b(I) lies in pi_b(J) and both have the
same number of elements.  x lies in I iff each pi_b(x) reduces to zero
against I's form.  Both are exact statements about the images in the
truncated ring, so a "false" verdict certifies exact inequality while a
"true" verdict is evidence at the working precision.

The canonical form is the same construction for the one-block split
``_Split((), (), ((),), spec)``, with no split axis: its only block image
is g and its block rows are ``multiplication_rows(g)``.  So it is the
delta-basis Howell form of the whole ideal, which only the printers
compute on a split spec.  A spec without a split axis has that one block;
its key is the canonical form when that is already known (a Howell form
is an echelon form), else the block's echelon form.

A block whose generator images are homogeneous in T_d, the last T
variable (the Fitting ideals of ``fitting.lifted_fitting_ideal``, (norm, T),
(tau, T)), takes its forms one T_d-degree at a time.  With S the block
ring without T_d, images T_d^(e_i) x_i span the direct sum of the
T_d^e J_e, J_e = sum_(e_i <= e) x_i S, and degree e owns the columns
j * N + e, T_d being the fastest axis.  The rows of the Howell(J_e), each
placed at its degree and sorted by pivot column, are echelon with p-power
pivots, reduced (rows of different degrees share no column) and
span-closed (each degree part of a vector of I that vanishes before a
column is spanned by its form's rows past it), so by uniqueness they are
the Howell form.  The same placement of echelon forms of the J_e with the
Howell property gives an echelon form of the block with it, the key's.
Any other block takes the stacked pass.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import SpecMismatchError
from .groupring import (
    GroupRingSpec,
    RingElement,
    all_characters,
    along_axes,
    char_eval,
    crt_factors,
    from_vector,
    mul,
    multiplication_rows,
    one,
    power_residues,
    zero,
)
from .linalg import (
    CoeffMatrix,
    Echelon,
    echelon,
    echelon_span_rows,
    howell_span_rows,
    residue_dtype,
    spans,
)


def _distinct_nonzero_positions(arrays) -> list[int]:
    """Positions of the non-zero arrays, each value kept once, in order."""
    seen = set()
    out = []
    for i, c in enumerate(arrays):
        if not np.any(c):
            continue
        key = tuple(c.reshape(-1)) if c.dtype == object else c.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(i)
    return out


def distinct_nonzero(elements) -> list[RingElement]:
    """The non-zero elements, each coefficient vector kept once, in order."""
    elements = list(elements)
    return [elements[i] for i in _distinct_nonzero_positions([x.coeffs for x in elements])]


def _nonzero_rows(rows: np.ndarray) -> np.ndarray:
    """Drop the zero rows of a multiplication matrix (the products that
    T-truncation kills); ``rows`` itself, not a copy, when there are none."""
    keep = np.any(rows, axis=1)
    return rows if keep.all() else rows[keep]


class _Split(NamedTuple):
    """The CRT blocks of a spec's ring; see the module docstring."""

    axes: tuple[int, ...]  # group axes whose order is not a power of p
    # Per split axis, the (m, m) matrix whose row a holds x^a mod each F_j
    # of the axis, the factors' columns side by side.
    crt: tuple[np.ndarray, ...]
    # Per block, the (column offset, degree) of its factor on each split axis.
    blocks: tuple[tuple[tuple[int, int], ...], ...]
    rest: GroupRingSpec  # the spec without the split axes


@lru_cache(maxsize=None)
def _split(spec: GroupRingSpec) -> _Split:
    """The CRT blocks of ``spec``: one block, with no split axis, when no
    group axis splits."""
    axes, crt, per_axis = [], [], []
    for axis, m in enumerate(spec.orders):
        factors = crt_factors(spec.p, spec.k, m)
        if len(factors) == 1:
            continue
        offsets, off = [], 0
        for F in factors:
            offsets.append((off, len(F) - 1))
            off += len(F) - 1
        axes.append(axis)
        crt.append(np.hstack([power_residues(F, m, spec.modulus) for F in factors]))
        per_axis.append(offsets)
    rest = GroupRingSpec(spec.p, spec.k,
                         tuple(m for i, m in enumerate(spec.orders) if i not in axes),
                         spec.d, spec.N)
    return _Split(tuple(axes), tuple(crt), tuple(itertools.product(*per_axis)), rest)


def _block_images(spec: GroupRingSpec, split: _Split, coeffs: np.ndarray) -> list[np.ndarray]:
    """pi_b of the element of ``spec`` with these coefficients, for every
    block b of ``split`` in order, each as an (n_1, ..., n_S, rest size)
    array: n_i is the degree of the block's factor on the i-th split axis."""
    mats = [None] * spec.s
    for axis, mat in zip(split.axes, split.crt):
        mats[axis] = mat.T
    a = np.moveaxis(along_axes(spec, coeffs, mats), split.axes, range(len(split.axes)))
    a = a.reshape(a.shape[:len(split.axes)] + (split.rest.size,))
    dtype = split.rest.dtype()
    return [np.ascontiguousarray(a[tuple(slice(off, off + n) for off, n in block)], dtype=dtype)
            for block in split.blocks]


def _block_rows(split: _Split, block, image: np.ndarray) -> np.ndarray:
    """The multiplication matrix of a block image: row (u, b) holds
    pi_b(g) * x^u * b in the block basis x^v * c, with u, v the monomials of
    the split-axis quotients and b, c those of the rest."""
    rest = split.rest
    if image.shape[:-1] == (1,) * len(block):
        return multiplication_rows(RingElement(rest, image.reshape(rest.size)))
    mod, dtype = rest.modulus, rest.dtype()
    out = np.zeros((math.prod(image.shape[:-1]) * rest.size,) * 2, dtype=dtype)
    for a in np.ndindex(image.shape[:-1]):
        if not np.any(image[a]):
            continue
        # Row u of the multiplication by x^a_i modulo F is x^(u + a_i) mod
        # F, and F divides x^m - 1.
        X = reduce(np.kron, (mat[(np.arange(n) + ai) % len(mat), off:off + n]
                             for mat, (off, n), ai in zip(split.crt, block, a)))
        term = np.kron(X.astype(dtype), multiplication_rows(RingElement(rest, image[a])))
        out = (out + term) % mod
    return out


def _t_degrees(rest: GroupRingSpec, images) -> list[int] | None:
    """The T_d-degree of each block image, T_d the last T variable of
    ``rest``; None unless every image has exactly one non-zero T_d-slice."""
    if rest.d < 1 or not images:
        return None
    slices = [np.flatnonzero((img.reshape(-1, rest.N) != 0).any(axis=0)) for img in images]
    return [int(e[0]) for e in slices] if all(len(e) == 1 for e in slices) else None


def _block_width(split: _Split, block) -> int:
    return split.rest.size * math.prod(n for _, n in block)


def _graded_rows(span, split: _Split, block, images, degrees) -> np.ndarray:
    """The form of the block spanned by images x_i of T_d-degree e_i: the
    rows of each form of J_e, J_e = sum_(e_i <= e) x_i * S over the ring S
    without T_d, placed at degree e and merged in pivot order; see the
    module docstring.  ``span`` is the kernel call (``howell_span_rows`` or
    ``echelon_span_rows``) that computes the forms of the J_e."""
    rest = split.rest
    N, dtype = rest.N, residue_dtype(rest.modulus)
    S = GroupRingSpec(rest.p, rest.k, rest.orders, rest.d - 1, N)
    sub = split._replace(rest=S)
    width = _block_width(sub, block)
    # J_e is J_(e') plus the generators of degree e, e' the degree before.
    forms, H = [], np.zeros((0, width), dtype)
    for e in sorted(set(degrees)):
        stack = [H] + [_nonzero_rows(_block_rows(sub, block, np.ascontiguousarray(
            img.reshape(img.shape[:-1] + (S.size, N))[..., e], dtype=S.dtype())))
            for img, d in zip(images, degrees) if d == e]
        H = np.array(span(rest.p, rest.k, width, np.vstack(stack)), dtype)
        forms.append((e, H))
    # J_e is the last form up to degree N - 1; column (j, e) of the block is
    # j * N + e.
    placed = []
    for (first, H), end in zip(forms, [e for e, _ in forms[1:]] + [N]):
        for e in range(first, end):
            rows = np.zeros((len(H), width * N), dtype)
            rows[:, e::N] = H
            placed.append(rows)
    out = np.vstack(placed)
    return out[np.argsort(np.argmax(out != 0, axis=1))]


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
        self._key = None
        # Per CRT block, the distinct non-zero generator images as the rows
        # of one matrix; set with the key.
        self._key_generators = None
        self._lock = threading.Lock()

    @property
    def canonical(self) -> CoeffMatrix:
        if self._canonical is None:
            with self._lock:
                if self._canonical is None:
                    # The Z/p^k-span of {g * b : g generator, b basis
                    # monomial} is the whole ideal: the one block of the
                    # unsplit ring.
                    spec = self.spec
                    split = _Split((), (), ((),), spec)
                    rows, = self._block_forms(split, self._generator_images(split),
                                              howell_span_rows)
                    self._canonical = CoeffMatrix(spec.p, spec.k, spec.size, tuple(rows))
        return self._canonical

    @property
    def key(self) -> tuple[Echelon, ...]:
        """An echelon form with the Howell property of each CRT block, in
        block order; ``ideal_equal`` and ``contains`` decide on it.  On a
        spec without a split axis whose canonical form is already known, that
        form, since a Howell form is an echelon form."""
        if self._key is None:
            with self._lock:
                if self._key is None:
                    spec, split = self.spec, _split(self.spec)
                    images = self._generator_images(split)
                    if not split.axes and self._canonical is not None:
                        forms = [self._canonical.rows]
                    else:
                        forms = self._block_forms(split, images, echelon_span_rows)
                    widths = [_block_width(split, block) for block in split.blocks]
                    self._key_generators = tuple(
                        np.array([img.reshape(-1) for img in imgs], split.rest.dtype())
                        .reshape(-1, n) for imgs, n in zip(images, widths))
                    self._key = tuple(echelon(spec.p, spec.k, n, rows)
                                      for rows, n in zip(forms, widths))
        return self._key

    def _generator_images(self, split: _Split) -> list[list[np.ndarray]]:
        """Per block of ``split``, the distinct non-zero images of the
        generators."""
        images = [_block_images(self.spec, split, g.coeffs)
                  for g in distinct_nonzero(self.generators)]
        per_block = [[img[b] for img in images] for b in range(len(split.blocks))]
        return [[imgs[i] for i in _distinct_nonzero_positions(imgs)] for imgs in per_block]

    def _block_forms(self, split: _Split, images, span) -> list:
        """The rows of each block's form, computed by the kernel call
        ``span`` from the block's generator images: one call per distinct
        T_d-degree over the ring without T_d when every image is homogeneous
        in T_d (``_graded_rows``), else one call on their stacked block
        rows."""
        spec = self.spec
        forms = []
        for block, block_images in zip(split.blocks, images):
            degrees = _t_degrees(split.rest, block_images)
            if degrees:
                rows = _graded_rows(span, split, block, block_images, degrees)
            else:
                stack = [_nonzero_rows(_block_rows(split, block, img)) for img in block_images]
                rows = span(spec.p, spec.k, _block_width(split, block),
                            np.vstack(stack)) if stack else ()
            forms.append(rows)
        return forms

    def canonical_elements(self) -> list[RingElement]:
        return [from_vector(self.spec, row) for row in self.canonical.rows]

    def is_zero(self) -> bool:
        return self.canonical.nrows == 0

    def contains(self, x: RingElement) -> bool:
        if x.spec != self.spec:
            raise SpecMismatchError("element does not live on the ideal's spec")
        return all(spans(E, image.reshape(1, -1))
                   for image, E in zip(_block_images(self.spec, _split(self.spec), x.coeffs),
                                       self.key))

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
    """I = J iff in every CRT block the two keys have the same length and
    the generator images of I reduce to zero against J's key: I lies in J
    and |I| = |J| in a finite ring.  False verdicts certify exact
    inequality."""
    _check(I, J)
    return all(a.length == b.length for a, b in zip(I.key, J.key)) and all(
        spans(E, gens) for E, gens in zip(J.key, I._key_generators))


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
    at T-precision N - degT(f) - degT(g).  An unequal verdict is exact when
    no truncated twist (``groupring.twist_hom`` with a gamma value other
    than 1) went into either side; a truncated twist may lose p-adic
    precision that nothing here accounts for, so an unequal verdict may
    then reflect that loss (ROADMAP open item 1).
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
