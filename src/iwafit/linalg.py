"""Canonical linear algebra over the chain ring Z/p^k.

The Howell normal form is the canonical representative of a row span over
Z/p^k: row echelon, every pivot a power of p, entries above a pivot reduced
modulo that pivot, and the row set closed under scalar multiplication.  Two
matrices span the same submodule of (Z/p^k)^n iff their Howell forms are
identical; the printers show it.

``howell_span_rows`` is the one kernel that computes it, by the blocked
elimination of Storjohann and Mulders ("Fast algorithms for linear
algebra modulo N", 1998) in its left-looking, or Crout, form, followed by
back-substitution.

Elimination walks the columns in panels of at most ``PANEL`` columns.  A
panel holds its rows ``A`` as they stood at its start, the multipliers
``C`` and its finished pivot rows ``U``, full width from the panel start;
a row's current entries are its ``A`` row less its ``C`` row times ``U``.
A column is brought up to date only when elimination reaches it, as
``red(A[:, j] - C @ U[:, j])``.  Its pivot is the first row r of least
valuation p^e, found by one gcd with p^k over the column: gcd(x, p^k) is
p^valuation(x), and p^k for x = 0.  The pivot row, panel part and
trailing part at once, is ``red(red(A[r, j:] - C[r] @ U[:, j:]) * inv)``,
inv the inverse of the pivot's unit part u.  The column divided by p^e
becomes a column of ``C``, except at row r, whose multiplier
u - p^(k-e) turns the row into p^(k-e) times the pivot row: zero for a
unit pivot, else the multiple that keeps the row set span-closed, kept
in the row's own place.  At the end of the panel one product
``A - C @ U`` brings the trailing columns up to date, and zero rows are
dropped.

One routine, ``_reduce``, reduces target rows against echelon rows H with
pivots p^e (Howell, "Spans in the module (Z_m)^s", 1986), one block of
the same width at a time.  The quotients of the block's t-th pivot are
left-looking too, ``red(S[:, t] - Q[:, :t] @ Hbc[:t, t]) // pivot``: S
holds the targets' entries in the block's pivot columns at the block
start, Q the block's quotients so far and Hbc the block rows' entries in
those columns.  The block then takes one product ``Q @ H_block``, and
every entry in the column of a pivot p^e ends in [0, p^e).
Back-substitution is the call whose targets are the rows of H above each
pivot.

Comparisons need less.  ``echelon_span_rows`` is the same kernel call
stopped before back-substitution, and its rows E already have the Howell
property: for every column c, the rows with pivot column >= c span M_c, the
vectors of the span M that vanish left of c.  Proof: back-substitution
turns E into the Howell form H by adding to each row multiples of rows with
later pivots (a block's product ``Q @ H_block`` is a batch of such steps).
Fix a column c.  A step whose target row has its pivot at or past c adds a
row whose pivot is past c, so it is an invertible change inside the rows
with pivot >= c; any other step leaves those rows alone.  So for every c
the rows of E with pivot >= c span what the rows of H with pivot >= c
span, which is M_c because H has the Howell property (c = 0 gives
span E = M).  Two consequences:

- Membership (``spans``).  ``_reduce`` takes a vector v to a remainder r
  with v - r in M, so r = 0 puts v in M.  If v lies in M and vanishes
  left of a pivot column c, it lies in M_c, so its entry at c is a
  multiple of the pivot there: the floor quotient is exact and the step
  leaves a vector of M that vanishes up to c, so r = 0.  Hence v lies in
  M iff it reduces to zero.
- Length.  v -> v[c] maps M_c onto p^e * Z/p^k when c holds a pivot p^e
  (its row is the only one of M_c not zero at c) and onto 0 otherwise, with
  kernel M_(c+1).  So |M| = p^L with L = sum (k - e) over the pivots; the
  kernel normalises every pivot to exactly p^e, so e is read off the
  pivot.  Two spans are equal iff they have the same length and one lies
  in the other.

``CoeffMatrix`` is the one type for these forms, Howell or echelon: one
read-only array of residues, from which it derives the pivot columns and
the length L.  It is an ``ArrayValue``, the base of every frozen dataclass
of the library that holds arrays: equal by content, never hashed.

Every sum the kernel reduces is one residue plus at most w residue
products, each below (mod - 1)^2, for a panel or block of width w: a
column or pivot row is a residue less one product over the panel's
pivots, and so is a quotient or a block product of ``_reduce``.  One
policy (``residue_dtype`` for stored residues, ``_arithmetic`` for the
kernel) picks where that arithmetic is exact.  The float64 and Python-int
tiers delay reduction: products are raw ``*`` and ``@``, reduced only
when a sum is complete.

- float64 (BLAS products, reduced by one int64 cast and one ``%``) while
  ``PANEL*(mod-1)^2 + mod < 2^53``, so every sum is an integer that
  float64 holds exactly and the cast keeps it;
- exact int64 (``EXACT_INT64``) above that while ``PANEL^2*mod < 2^53``,
  that is about 1.19e7 < mod < 2^41 (3^15 to 3^25): residues are int64
  and every product is reduced at once.  A product S of width w <= PANEL
  (w = 1 for a scalar product) is computed twice: in int64, where it
  wraps mod 2^64, and in float64 through BLAS, which holds every residue
  below 2^41 exactly.  The float error, below ~w^2*mod^2*2^-53 < mod,
  puts ``q = floor(S_float/mod)`` within one of floor(S/mod), so the
  wrapped remainder ``S_int64 - q*mod`` lies in [-mod, 2mod), where int64
  holds it exactly, and a final ``% mod`` gives the residue.  A sum is
  then a residue less one reduced product, in (-mod, mod);
- Python ints (dtype object) above that, in panels of ``OBJECT_PANEL``.

The tests hold the kernel to a slow referee that inserts rows one at a
time (``HowellBuilder`` in ``tests/referees.py``).
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

PANEL = 64
# Object-dtype products run in Python, so width buys no speed there, and a
# narrow panel does less eager work per pivot.
OBJECT_PANEL = 16
# Rows converted or updated at once: bounds the temporaries on tall inputs.
_ROW_CHUNK = 4096
# Set by ``echelon_span_rows`` for the one call it makes.
_ECHELON_ONLY = ContextVar("echelon_only", default=False)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % q for q in range(2, int(n**0.5) + 1))


def residue_dtype(mod: int, inner: int = 1, factor: int | None = None):
    """Storage dtype for residues mod ``mod`` whose products with factors
    up to ``factor`` (default mod - 1, another residue) are summed ``inner``
    at a time: int64 while mod * factor * inner < 2^62, else Python ints
    (object)."""
    factor = mod - 1 if factor is None else factor
    return np.int64 if mod * factor * max(inner, 1) < 2**62 else object


# The tier of ``_arithmetic`` that stores int64 residues and reduces every
# product at once; the other tiers are named by their dtype.
EXACT_INT64 = "exact-int64"


def _arithmetic(mod: int):
    """(tier, panel width) of the Howell kernel modulo ``mod``."""
    if PANEL * (mod - 1) ** 2 + mod < 2**53:
        return np.float64, PANEL
    if PANEL * PANEL * mod < 2**53:
        return EXACT_INT64, PANEL
    return object, OBJECT_PANEL


class ArrayValue:
    """Base of the frozen dataclasses that hold arrays: equal when of one
    type with equal fields (arrays by ``np.array_equal``, so int64 and
    object arrays with equal entries are equal; tuples element by
    element), and unhashable.  Subclasses declare ``eq=False``, else the
    dataclass decorator replaces ``__eq__`` and adds a field hash, and make
    their arrays read-only when they are built."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only in place: for arrays that are cached or shared."""
    a.flags.writeable = False
    return a


def _equal(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@dataclass(frozen=True, eq=False)
class CoeffMatrix(ArrayValue):
    """Matrix over Z/p^k as one read-only (nrows, ncols) array in
    ``residue_dtype(p^k)``, from a 2-d array or rows of Python ints of any
    size.  It holds Howell forms and echelon forms with the Howell
    property; for those, ``cols`` is each row's pivot column and the span
    has p^``length`` elements.  Equality is entrywise, and echelon forms
    are not unique."""

    p: int
    k: int
    ncols: int
    rows: np.ndarray = ()

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.p**self.k >= 2**128:
            raise ValueError("p^k must fit in a 128-bit word")
        rows = np.array(self.rows, dtype=residue_dtype(self.modulus))
        if rows.shape == (0,):
            rows = rows.reshape(0, self.ncols)
        if rows.ndim != 2 or rows.shape[1] != self.ncols:
            raise ValueError("row length does not match ncols")
        if not self.ncols and len(rows):
            raise ValueError("rows given for a matrix with no columns")
        rows %= self.modulus
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def modulus(self) -> int:
        return self.p**self.k

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @cached_property
    def cols(self) -> np.ndarray:
        """The column of each row's first non-zero entry."""
        # np.argmax has no answer over zero columns, where there are no rows.
        cols = np.argmax(self.rows != 0, axis=1) if self.ncols else np.zeros(0, dtype=np.intp)
        cols.flags.writeable = False
        return cols

    @cached_property
    def length(self) -> int:
        """The sum of k - e over the pivots p^e of echelon rows."""
        pivots = self.rows[np.arange(self.nrows), self.cols]
        # sum e = the number of (row, j) with p^j | p^e, 1 <= j < k
        es = sum(int(np.count_nonzero(pivots % self.p**j == 0)) for j in range(1, self.k))
        return self.k * self.nrows - es


class _Ops(NamedTuple):
    """A tier's arithmetic: storage dtype, reduction into [0, mod) (to
    int64 in the float tier), elementwise product and matrix product."""

    dtype: type
    red: Callable
    mul: Callable
    dot: Callable


def _ops(tier, mod: int) -> _Ops:
    if tier is np.float64:
        # Every sum is an exact integer below 2^53, so the cast is exact.
        return _Ops(tier, lambda x: x.astype(np.int64, copy=False) % mod, np.multiply, np.matmul)
    if tier is EXACT_INT64:
        fmod = float(mod)

        def remainder(s, f):
            # s is the int64 product wrapped mod 2^64 and f its float64 value.
            return (s - np.floor(f / fmod).astype(np.int64) * mod) % mod

        return _Ops(
            np.int64,
            lambda x: x % mod,
            lambda a, b: remainder(a * b, np.multiply(a, b, dtype=np.float64)),
            lambda a, b: remainder(a @ b, a.astype(np.float64) @ b.astype(np.float64)),
        )
    return _Ops(tier, lambda x: x % mod, np.multiply, np.matmul)


def _pivot(col: np.ndarray, mod: int) -> tuple[int, int]:
    """(r, p^e): the first row of least p-adic valuation e among the
    residues ``col`` mod ``mod`` = p^k, and p^e, which is ``mod`` when the
    column is zero.  gcd(x, p^k) is p^valuation(x), and p^k for x = 0."""
    g = np.gcd(col, mod)
    r = int(np.argmin(g))
    return r, int(g[r])


def _working_copy(mat, ncols: int, mod: int, tier, dtype):
    """The non-zero rows of ``mat`` reduced mod ``mod``, in the kernel's
    dtype.  Zero rows go before the conversion, and this is the only
    full-size copy the kernel makes.  Python-int input to the exact int64
    tier is narrowed only after the reduction."""
    A = np.asarray(mat)
    if not (A.dtype == object and tier in (object, EXACT_INT64)):
        A = A.astype(object if tier is object else np.int64, copy=False)
    if A.ndim != 2 or (len(A) and A.shape[1] != ncols):
        raise ValueError("matrix shape does not match ncols")
    keep = np.flatnonzero(np.any(A, axis=1))
    M = np.zeros((len(keep), ncols), dtype=dtype)
    for s in range(0, len(keep), _ROW_CHUNK):
        t = keep[s:s + _ROW_CHUNK]
        M[s:s + len(t)] = A[t] % mod
    return M


def _eliminate(M, mod: int, width: int, ops: _Ops):
    """Echelon rows of the span of M, as (H, pivot columns).

    M holds the working rows and is consumed in place.  Column j, and a
    pivot row from column j on, is its ``A`` part less ``C`` times the
    finished pivot rows ``U`` (module docstring).  Row i of H has its
    pivot p^e_i in column cols[i] and zeros left of it; ``U`` is a view of
    H's rows.
    """
    red, mul, dot = ops.red, ops.mul, ops.dot
    n, ncols = M.shape
    H = np.zeros((ncols, ncols), dtype=M.dtype)
    cols: list[int] = []
    c0 = 0
    while c0 < ncols and n:
        w = min(width, ncols - c0)
        A = M[:n, c0:]  # a row's entries less C[row] @ U are its current ones
        U = H[len(cols):len(cols) + w, c0:]  # the panel's finished pivot rows
        C = np.zeros((n, w), dtype=M.dtype)
        npiv = 0
        for j in range(w):
            col = red(A[:, j] - dot(C[:, :npiv], U[:npiv, j]))
            r, pe = _pivot(col, mod)
            if pe == mod:
                continue
            u = int(col[r]) // pe
            U[npiv, j:] = red(mul(red(A[r, j:] - dot(C[r, :npiv], U[:npiv, j:])), pow(u, -1, mod)))
            cols.append(c0 + j)
            # p^e divides every entry of the column, so the division is exact.
            C[:, npiv] = col // pe
            # Row r is u * U[npiv] now and becomes (p^k / p^e) * U[npiv]:
            # zero for a unit pivot, else the multiple that keeps the row
            # set span-closed.
            C[r, npiv] = (u - mod // pe) % mod
            npiv += 1
        touched = np.flatnonzero(np.any(C[:, :npiv], axis=1))
        for s in range(0, len(touched), _ROW_CHUNK):
            t = touched[s:s + _ROW_CHUNK]
            A[t, w:] = red(A[t, w:] - dot(C[t, :npiv], U[:npiv, w:]))
        # Move the non-zero rows up (keep[i] >= i, so no chunk reads a row
        # that an earlier one wrote).
        keep = np.flatnonzero(np.any(A[:, w:], axis=1))
        for s in range(0, len(keep), _ROW_CHUNK):
            t = keep[s:s + _ROW_CHUNK]
            M[s:s + len(t), c0 + w:] = A[t, w:]
        n = len(keep)
        c0 += w
    return H[:len(cols)], np.array(cols, dtype=np.intp)


def _reduce(T, H, cols, width: int, ops: _Ops, above: bool = False):
    """Reduce the rows of T against the echelon rows H, in place, so that
    every entry in the column of a pivot p^e lies in [0, p^e).  With
    ``above``, T is H and each row is reduced by the rows below it only:
    back-substitution.  One block of ``width`` pivots at a time (module
    docstring)."""
    red, dot = ops.red, ops.dot
    for i0 in range(0, len(H), width):
        i1 = min(i0 + width, len(H))
        block = cols[i0:i1]
        b0 = int(block[0])
        Hb = H[i0:i1, b0:]
        Hbc = Hb[:, block - b0]
        R = T[:i1] if above else T
        # The entries of the target rows in the block's pivot columns at the
        # start of the block, and the quotients of its pivots.
        S = R[:, block]
        Q = np.zeros((len(R), i1 - i0), dtype=T.dtype)
        for t, pivot in enumerate(Hbc.diagonal().tolist()):
            n = i0 + t if above else len(R)
            q = red(S[:n, t] - dot(Q[:n, :t], Hbc[:t, t]))
            Q[:n, t] = q if pivot == 1 else q // pivot
        touched = np.flatnonzero(np.any(Q, axis=1))
        R[touched, b0:] = red(R[touched, b0:] - dot(Q[touched], Hb))


def howell_span_rows(p: int, k: int, ncols: int, mat) -> list[np.ndarray]:
    """Howell normal form rows of the row span of a stacked matrix.

    Left-looking blocked elimination, then back-substitution by
    ``_reduce``, in the tier that ``_arithmetic`` picks (module docstring).
    Rows come back in pivot order, as int64 for moduli below 2^31 and as
    Python ints (object) above, whatever the tier.  Inside
    ``echelon_span_rows`` the call stops before back-substitution.
    """
    mod = p**k
    tier, width = _arithmetic(mod)
    ops = _ops(tier, mod)
    H, cols = _eliminate(_working_copy(mat, ncols, mod, tier, ops.dtype), mod, width, ops)
    if not _ECHELON_ONLY.get():
        _reduce(H, H, cols, width, ops, above=True)
    return [row for row in H.astype(residue_dtype(mod), copy=False)]


def echelon_span_rows(p: int, k: int, ncols: int, mat) -> list[np.ndarray]:
    """The rows of ``howell_span_rows`` before back-substitution: echelon,
    pivots p^e, with the Howell property (module docstring).  The call goes
    through ``howell_span_rows``, so the kernel keeps one entry point, with
    the signature that ``perfbench/spans.py`` wraps and counts."""
    token = _ECHELON_ONLY.set(True)
    try:
        return howell_span_rows(p, k, ncols, mat)
    finally:
        _ECHELON_ONLY.reset(token)


def spans(E: CoeffMatrix, vectors) -> bool:
    """True iff every row of ``vectors`` lies in the span of E, echelon
    rows with pivots p^e and the Howell property, that is iff ``_reduce``
    takes every row to zero (module docstring)."""
    mod = E.p**E.k
    tier, width = _arithmetic(mod)
    # The float tier's sums stay below 2^53, so int64 holds them too, and
    # reduces them with one ``%``.
    ops = _ops(np.int64 if tier is np.float64 else tier, mod)
    V = _working_copy(vectors, E.ncols, mod, tier, ops.dtype)
    _reduce(V, E.rows.astype(V.dtype, copy=False), E.cols, width, ops)
    return not V.any()


def howell_form(A: CoeffMatrix) -> CoeffMatrix:
    """The unique Howell normal form of the row span of A (zero rows removed)."""
    return CoeffMatrix(A.p, A.k, A.ncols, howell_span_rows(A.p, A.k, A.ncols, A.rows))


def same_span(A: CoeffMatrix, B: CoeffMatrix) -> bool:
    if (A.p, A.k, A.ncols) != (B.p, B.k, B.ncols):
        raise ValueError("matrices are not comparable")
    return howell_form(A) == howell_form(B)


def member(v, A: CoeffMatrix) -> bool:
    """True iff v lies in the row span of A: v reduces to zero against the
    Howell form of A, which has the Howell property."""
    vec = np.asarray(v)
    if vec.shape != (A.ncols,):
        raise ValueError("vector length does not match ncols")
    return spans(howell_form(A), vec[None])
