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
reductions are one ``groupring.along_axes`` call on the stacked
generators, with the transposed CRT matrix on each split axis.  A block
ring need not be local: the block of two quadratic factors of x^4 - 1
mod 3 is F_9 (x) F_9 = F_9 x F_9 modulo 3.

``Ideal.key`` holds, per block, the echelon form of pi_b(I) that the
kernel's elimination leaves before back-substitution
(``linalg.echelon_span_rows``), a ``linalg.CoeffMatrix`` like the
canonical form; it has the Howell property, so it decides
membership and gives the length L_b of pi_b(I), |pi_b(I)| = p^(L_b)
(``linalg`` module docstring).  The rule (``_block_equal``, the one
per-block rule of ``ideal_equal`` and ``frac_equal``): pi_b(I) = pi_b(J)
when both have the same distinct non-zero generator images, with no form
computed; otherwise iff the lengths agree and each generator image
pi_b(g) of I reduces to zero against J's form, since then pi_b(I) lies in
pi_b(J) and both have the same number of elements.  A block's form is
computed the first time a comparison needs it.  x lies in I iff each
pi_b(x) reduces to zero against I's form.  Both are exact statements
about the images in the truncated ring, so a "false" verdict certifies
exact inequality while a "true" verdict is evidence at the working
precision.

``frac_equal`` compares g*I with f*J for I/f and J/g block by block,
after cancelling units, by three facts about R_b:
- a unit factor cancels: f_b * pi_b(J) = pi_b(J) when f_b is a unit;
- a unit generator makes its block whole: pi_b(J) = R_b when some
  pi_b(g) is a unit, and then f_b * pi_b(J) = (f_b);
- the ideal (p, tau, T) of R_b is nilpotent, tau the delta - 1 of the p-power
  axes of R' (delta^(p^a) = 1 makes tau^(p^a) divisible by p), so x is a
  unit iff its residue modulo (p, tau, T) is one.  That residue sums the
  T-degree-0 coefficients of x over the group monomials of R', mod p, an
  element of the F_p-algebra F_p[x]/(F_j) over the split axes: on a linear
  block one scalar, a unit iff non-zero, and on any other block a unit iff
  its multiplication matrix over F_p is invertible, a test that holds on
  non-local blocks such as F_9 x F_9 too (``_units``).
On the Euler factors of ``apps``, (N_I, f)/f against (N', T')/T' with
f = frob - q and N', T' the untwisted norm and T, f is a unit in most
blocks; there f makes the closed numerator whole and N' vanishes, so both
sides reduce to the image of T' and the block needs no form.

Whole blocks: a block ideal with a unit generator is the whole block
ring, whose form (Howell or echelon) is the identity, so ``_block_form``
returns it with no kernel call (``_whole``).  The unit test needs the
rest to have only p-power axes, so that (p, tau, T) is nilpotent there:
every block of ``_split(spec)`` has such a rest, and the canonical
form's one-block split below has one only when ``_split(spec)`` has no
split axis.

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
J_e only grows with e, so once the generators of some degree include a
unit of S's block, J_e and every later J_e are the whole block, with the
identity as form and no further kernel call.
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
    _character_table,
    along_axes,
    crt_factors,
    mul,
    multiplication_rows,
    one,
    power_residues,
    zero,
)
from .linalg import (
    CoeffMatrix,
    echelon_span_rows,
    frozen,
    howell_span_rows,
    residue_dtype,
    spans,
)


def _value_key(c: np.ndarray):
    """A hashable key of an array's values, for arrays of one shape and dtype."""
    return tuple(c.reshape(-1)) if c.dtype == object else c.tobytes()


def _distinct_nonzero_positions(arrays) -> list[int]:
    """Positions of the non-zero arrays, each value kept once, in order."""
    seen = set()
    out = []
    for i, c in enumerate(arrays):
        if not np.any(c):
            continue
        key = _value_key(c)
        if key not in seen:
            seen.add(key)
            out.append(i)
    return out


def _nonzero_rows(rows: np.ndarray) -> np.ndarray:
    """Drop the zero rows of a multiplication matrix (the products that
    T-truncation kills); ``rows`` itself, not a copy, when there are none."""
    keep = np.any(rows, axis=1)
    return rows if keep.all() else rows[keep]


def _distinct_nonzero(stack: np.ndarray) -> np.ndarray:
    """The non-zero arrays of a stack, each value kept once, in order."""
    return stack[_distinct_nonzero_positions(stack)]


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
        crt.append(frozen(np.hstack([power_residues(F, m, spec.modulus) for F in factors])))
        per_axis.append(offsets)
    rest = GroupRingSpec(spec.p, spec.k,
                         tuple(m for i, m in enumerate(spec.orders) if i not in axes),
                         spec.d, spec.N)
    return _Split(tuple(axes), tuple(crt), tuple(itertools.product(*per_axis)), rest)


def _block_images(spec: GroupRingSpec, split: _Split, coeffs: np.ndarray) -> list[np.ndarray]:
    """pi_b of the elements of ``spec`` with coefficients ``coeffs`` (..., size)
    for every block b of ``split`` in order, each as a (..., n_1, ..., n_S,
    rest size) array: n_i is the degree of the block's factor on split axis i."""
    mats = [None] * spec.s
    for axis, mat in zip(split.axes, split.crt):
        mats[axis] = mat.T
    lead, S = coeffs.ndim - 1, len(split.axes)
    a = np.moveaxis(along_axes(spec, coeffs, mats), [lead + axis for axis in split.axes],
                    range(lead, lead + S))
    a = a.reshape(a.shape[:lead + S] + (split.rest.size,))
    return [np.ascontiguousarray(a[(...,) + tuple(slice(off, off + n) for off, n in block)
                                   + (slice(None),)], dtype=split.rest.dtype())
            for block in split.blocks]


def _block_rows(split: _Split, block, images: np.ndarray) -> np.ndarray:
    """The multiplication matrices of a stack of block images (n, n_1, ...,
    n_S, rest size), one under the other: row (u, b) of pi_b(g)'s holds
    pi_b(g) * x^u * b in the block basis x^v * c, with u, v the monomials of
    the split-axis quotients and b, c those of the rest."""
    rest = split.rest
    shape = images.shape[1:-1]
    if shape == (1,) * len(block):
        return multiplication_rows(rest, images.reshape(-1, rest.size)).reshape(-1, rest.size)
    mod, dtype, U = rest.modulus, rest.dtype(), math.prod(shape)
    out = np.zeros((len(images), U, rest.size, U, rest.size), dtype=dtype)
    for a in np.ndindex(shape):
        part = images[(slice(None),) + a]
        if not np.any(part):
            continue
        # Row u of the multiplication by x^a_i modulo F is x^(u + a_i) mod
        # F, and F divides x^m - 1.
        X = reduce(np.kron, (mat[(np.arange(n) + ai) % len(mat), off:off + n]
                             for mat, (off, n), ai in zip(split.crt, block, a)))
        # kron(X, M) for the multiplication matrix M of every image at once.
        M = multiplication_rows(rest, part)[:, None, :, None, :]
        out = (out + X.astype(dtype)[None, :, None, :, None] * M) % mod
    return out.reshape(-1, U * rest.size)


def _t_degrees(rest: GroupRingSpec, images: np.ndarray) -> np.ndarray | None:
    """The T_d-degree of each block image, T_d the last T variable of
    ``rest``; None unless every image has exactly one non-zero T_d-slice."""
    if rest.d < 1 or not len(images):
        return None
    slices = (images.reshape(len(images), -1, rest.N) != 0).any(axis=1)
    return slices.argmax(axis=1) if (slices.sum(axis=1) == 1).all() else None


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
    slices = images.reshape(images.shape[:-1] + (S.size, N))
    forms, H = [], np.zeros((0, width), dtype)
    for e in np.unique(degrees).tolist():
        new = np.ascontiguousarray(slices[degrees == e, ..., e], dtype=S.dtype())
        if _whole(sub, block, new):
            # J_e is all of S's block, and so is every later J_e.
            forms.append((e, np.eye(width, dtype=dtype)))
            break
        stack = np.vstack([H, _nonzero_rows(_block_rows(sub, block, new))])
        H = np.array(span(rest.p, rest.k, width, stack), dtype)
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


def _block_form(span, split: _Split, block, images: np.ndarray) -> CoeffMatrix:
    """The form of the block ideal spanned by a stack of images, computed
    by the kernel call ``span``: one call per distinct T_d-degree over the
    ring without T_d when every image is homogeneous in T_d
    (``_graded_rows``), else one call on their stacked block rows."""
    rest, width = split.rest, _block_width(split, block)
    degrees = _t_degrees(rest, images)
    if degrees is not None:
        rows = _graded_rows(span, split, block, images, degrees)
    elif _whole(split, block, images):
        rows = np.eye(width, dtype=np.int64)
    elif len(images):
        rows = span(rest.p, rest.k, width, _nonzero_rows(_block_rows(split, block, images)))
    else:
        rows = ()
    return CoeffMatrix(rest.p, rest.k, width, rows)


def _units(split: _Split, block, images: np.ndarray) -> np.ndarray:
    """Which images of a stack (n, n_1, ..., n_S, rest size) are units of
    the block ring.  (p, tau, T) is nilpotent there, tau the delta - 1 of
    the rest's p-power axes, so x is a unit iff its residue modulo that
    ideal is one.  The residue sums x's T-degree-0 coefficients over the
    rest's group monomials, mod p: an element of F_p[x]/(F_j) over the
    split axes, a unit iff its multiplication matrix over F_p is
    invertible (one k = 1 kernel call), or iff it is non-zero on a linear
    block."""
    rest, p = split.rest, split.rest.p
    shape = images.shape[:-1] + (rest.group_size, rest.size // rest.group_size)
    residues = (images.reshape(shape)[..., 0] % p).sum(axis=-1) % p
    if images.shape[1:-1] == (1,) * len(block):
        return residues.reshape(len(images)) != 0
    # The block rows of the residues over a rest with one coefficient mod p.
    residue = split._replace(crt=tuple(c % p for c in split.crt), rest=GroupRingSpec(p, 1, (), 0, 1))
    U = math.prod(n for _, n in block)
    mats = _block_rows(residue, block, residues[..., None].astype(np.int64)).reshape(-1, U, U)
    return np.array([len(howell_span_rows(p, 1, U, M)) == U for M in mats], dtype=bool)


def _whole(split: _Split, block, images: np.ndarray) -> bool:
    """Whether some image of a stack is a unit of the block ring, so that
    the images span the whole block and its form is the identity.  The
    unit test (``_units``) needs a rest with only p-power axes: every block
    of ``_split(spec)`` has one, and the one-block split of the canonical
    form has one only when ``_split(spec)`` has no split axis."""
    if not len(images) or _split(split.rest).axes:
        return False
    return bool(_units(split, block, images).any())


def _block_equal(X: np.ndarray, Y: np.ndarray, form_x, form_y) -> bool:
    """Whether two ideals of one CRT block are equal, from stacks X and Y
    of their distinct non-zero generator images and zero-argument calls
    ``form_x`` and ``form_y`` returning their echelon forms: equal when X
    and Y hold the same images, with no kernel call; else iff the forms
    have the same length and X reduces to zero against Y's form, since then
    X's ideal lies in Y's and both have the same number of elements."""
    if len(X) == len(Y) and set(map(_value_key, X)) == set(map(_value_key, Y)):
        return True
    E, F = form_x(), form_y()
    return E.length == F.length and spans(F, X.reshape(len(X), -1))


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
        # Per CRT block of ``_split(spec)``: the distinct non-zero generator
        # images as one stack, and the key's form by block index once computed.
        self._images = None
        self._forms = {}
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
                    block, = split.blocks
                    images, = self._generator_images(split)
                    self._canonical = _block_form(howell_span_rows, split, block, images)
        return self._canonical

    @property
    def key(self) -> tuple[CoeffMatrix, ...]:
        """Per CRT block in order, a ``CoeffMatrix`` of an echelon form
        with the Howell property (not unique: keys of equal ideals may
        differ entrywise); ``ideal_equal`` and ``contains`` decide on it,
        computing a block's form only when they need it.  On a spec without
        a split axis, ``(self._canonical,)`` once that Howell form is
        known."""
        return tuple(self._block_key(b) for b in range(len(_split(self.spec).blocks)))

    @property
    def _block_generators(self) -> list[np.ndarray]:
        """Per CRT block, the distinct non-zero generator images."""
        if self._images is None:
            with self._lock:
                if self._images is None:
                    self._images = self._generator_images(_split(self.spec))
        return self._images

    def _block_key(self, b: int) -> CoeffMatrix:
        """The key's form of block ``b``, computed on first use."""
        form = self._forms.get(b)
        if form is None:
            images = self._block_generators
            with self._lock:
                form = self._forms.get(b)
                if form is None:
                    split = _split(self.spec)
                    if not split.axes and self._canonical is not None:
                        form = self._canonical
                    else:
                        form = _block_form(echelon_span_rows, split, split.blocks[b], images[b])
                    self._forms[b] = form
        return form

    def _generator_images(self, split: _Split) -> list[np.ndarray]:
        """Per block of ``split``, the distinct non-zero images of the
        generators as one stack, in generator order."""
        spec = self.spec
        coeffs = np.array([g.coeffs for g in self.generators], spec.dtype()).reshape(-1, spec.size)
        return [_distinct_nonzero(imgs) for imgs in _block_images(spec, split, coeffs)]

    def is_zero(self) -> bool:
        return self.canonical.nrows == 0

    def contains(self, x: RingElement) -> bool:
        if x.spec != self.spec:
            raise SpecMismatchError("element does not live on the ideal's spec")
        return all(spans(self._block_key(b), image.reshape(1, -1)) for b, image in
                   enumerate(_block_images(self.spec, _split(self.spec), x.coeffs)))

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
    """I = J iff they are equal in every CRT block (``_block_equal``): a
    block where both have the same generator images needs no form, and any
    other compares lengths and reduces I's images against J's form.  False
    verdicts certify exact inequality."""
    _check(I, J)
    return all(_block_equal(X, Y, lambda: I._block_key(b), lambda: J._block_key(b))
               for b, (X, Y) in enumerate(zip(I._block_generators, J._block_generators)))


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


def _side(split: _Split, block, f: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """The distinct non-zero generator images of f * I in one block, from
    f's image and the stack of I's: I's when f is a unit, f's when some
    generator is (I is then the whole block), else the products."""
    if _units(split, block, f[None])[0]:
        return gens
    if _units(split, block, gens).any():
        return _distinct_nonzero(f[None])
    # pi_b(f * g) = pi_b(g) times pi_b(f)'s multiplication matrix.
    mod, width = split.rest.modulus, _block_width(split, block)
    dtype = residue_dtype(mod, width)
    M = _block_rows(split, block, f[None]).astype(dtype)
    products = (gens.reshape(-1, width).astype(dtype) @ M) % mod
    return _distinct_nonzero(products.astype(split.rest.dtype()).reshape(gens.shape))


def frac_equal(X: FractionalIdeal, Y: FractionalIdeal) -> FracVerdict:
    """Cross-multiplied comparison of fractional ideals.

    For X = I/f and Y = J/g, compares g*I with f*J one CRT block at a time,
    after cancelling units there: a unit factor cancels (f_b * J_b = J_b),
    and a unit generator makes its block ideal whole (f_b * J_b = (f_b)
    when J_b holds one), exactly, in the truncated ring.  Units are found
    modulo the nilpotent ideal (p, tau, T) (``_units``).  A block where the
    two sides are then generated by the same images is equal with no kernel
    call; any other is compared as ``ideal_equal`` compares a block.

    An equal verdict holds at T-precision N - degT(f) - degT(g).  An
    unequal verdict is exact when no truncated twist (``groupring.twist_hom``
    with a gamma value other than 1) went into either side; a truncated
    twist may lose p-adic precision that nothing here accounts for, so an
    unequal verdict may then reflect that loss (ROADMAP open item 1).
    """
    if X.spec != Y.spec:
        raise SpecMismatchError("fractional ideals live on different specs")
    spec, split = X.spec, _split(X.spec)
    f, g = X.denominator, Y.denominator
    dens = _block_images(spec, split, np.array([f.coeffs, g.coeffs], spec.dtype()))
    for block, (f_b, g_b), A, B in zip(split.blocks, dens, X.numerator._block_generators,
                                       Y.numerator._block_generators):
        lhs, rhs = _side(split, block, g_b, A), _side(split, block, f_b, B)
        if not _block_equal(lhs, rhs, lambda: _block_form(echelon_span_rows, split, block, lhs),
                            lambda: _block_form(echelon_span_rows, split, block, rhs)):
            return FracVerdict(False, None)
    return FracVerdict(True, spec.N - f.t_degree() - g.t_degree())


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
    phi_m = sum(1 for t in range(1, m + 1) if math.gcd(t, m) == 1)
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
    coefficient ring for e = lcm(orders); "certified" means every value is
    nonzero at working precision, which proves f is a non-zero-divisor of
    the untruncated ring.  "inconclusive" proves nothing; it is the answer
    at once when Phi_e is reducible over Q_p (``_cyclotomic_field_ok``).

    All characters are evaluated in one product ``table @ f``, with
    ``groupring._character_table(spec)`` of shape (|G| * phi(e), |G|),
    cached per spec, and f's (|G|, N^d) coefficients; character t's value
    is row block t of the result.  The table has |G|^2 * phi(e) entries,
    against the B^2 = |G|^2 * N^(2d) of the multiplication table
    ``groupring._mul_table``, so it is the smaller of the two whenever
    phi(e) <= N^(2d).  On the trivial group the one character is the
    identity, and f != 0 suffices over (Z/p^k)[[T]].
    """
    spec = f.spec
    if not _cyclotomic_field_ok(spec, reduce(math.lcm, spec.orders, 1)) or f.is_zero():
        return "inconclusive"
    table = _character_table(spec)
    G = spec.group_size
    values = table @ f.coeffs.reshape(G, -1).astype(table.dtype, copy=False) % spec.modulus
    return "certified" if (values.reshape(G, -1) != 0).any(axis=1).all() else "inconclusive"
