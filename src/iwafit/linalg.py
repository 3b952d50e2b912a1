"""Canonical linear algebra over the chain ring Z/p^k.

The Howell normal form is the canonical representative of a row span over
Z/p^k: row echelon, every pivot a power of p, entries above a pivot reduced
modulo that pivot, and the row set closed under scalar multiplication.  Two
matrices span the same submodule of (Z/p^k)^n iff their Howell forms are
identical; the printers show it.

``howell_span_rows`` is the one kernel that computes it, by blocked
elimination with delayed updates (after Storjohann and Mulders, "Fast
algorithms for linear algebra modulo N", 1998):

- Elimination walks the columns in panels of at most ``PANEL`` columns.
  Inside a panel, the panel columns are updated eagerly, on the rows whose
  multiplier is non-zero, and the multipliers ``C`` and each pivot's
  trailing part ``T`` are recorded.  A pivot row's trailing part is first
  brought up to date from the panel's earlier pivots.  The rows p^(k-e)
  times a pivot p^e, which keep the row set span-closed, enter the panel
  as they arise.  At the end of the panel one matrix product ``Tr - C @ T``
  updates the trailing columns, and pivot rows and zero rows are dropped.
- Back-substitution reduces the entries above each pivot in blocks of the
  same width.  Within a block each pivot row is still in its state at the
  start of the block when it is used, so the block's reductions of all the
  rows above are one product ``Q @ H_block``.

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

- Membership (``spans``).  Reduce a vector v against the rows in pivot
  order.  If v lies in M and vanishes left of a pivot column c, it lies in
  M_c, so its entry at c is a multiple of the pivot there and subtracting
  that multiple of the row leaves a vector of M that vanishes up to c.  So
  v lies in M iff no division fails and the reduction ends at zero.
- Length.  v -> v[c] maps M_c onto p^e * Z/p^k when c holds a pivot p^e
  (its row is the only one of M_c not zero at c) and onto 0 otherwise, with
  kernel M_(c+1).  So |M| = p^L with L = sum (k - e) over the pivots; the
  kernel normalises every pivot to exactly p^e, so e is read off the
  pivot.  Two spans are equal iff they have the same length and one lies
  in the other.

A product sums at most ``width`` terms, each below (mod - 1)^2.  One policy
(``residue_dtype`` for stored residues, ``_arithmetic`` for the kernel)
picks where that arithmetic is exact.  The first two tiers and the last
delay reduction: products are raw ``*`` and ``@``, reduced only when a sum
is complete.

- float64 (BLAS products, reductions ``x - floor(x/mod)*mod``) while
  ``PANEL*(mod-1)^2 + mod < 2^53``, so every partial sum is an integer that
  float64 holds exactly;
- int64 for ``mod < 2^31`` (``mod^2 < 2^62``), with the panel cut to the
  largest width whose products stay below 2^63;
- exact int64 (``EXACT_INT64``) while ``PANEL^2*mod < 2^53``, that is
  2^31 <= mod < 2^41 (3^20 to 3^25): residues are int64 and every product
  is reduced at once.  A product S of width w <= PANEL (w = 1 for a
  scalar product) is computed twice: in int64, where it wraps mod 2^64,
  and in float64 through BLAS, which holds every residue below 2^41
  exactly.  The float error, below about w^2*mod^2*2^-53 < mod, puts
  ``q = floor(S_float/mod)`` within one of floor(S/mod), so the wrapped
  remainder ``S_int64 - q*mod`` lies in [-mod, 2mod), where int64 holds
  it exactly, and a final ``% mod`` gives the residue.  Panel entries
  still collect up to PANEL reduced products before they are reduced,
  far below 2^63;
- Python ints (dtype object) above that, in panels of ``OBJECT_PANEL``.

The tests hold the kernel to a slow referee that inserts rows one at a
time (``HowellBuilder`` in ``tests/referees.py``).
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
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


def residue_dtype(mod: int, inner: int = 1):
    """Storage dtype for residues mod ``mod`` whose pairwise products are
    summed ``inner`` at a time: int64 while mod^2 * inner < 2^62, else
    Python ints (object)."""
    return np.int64 if mod * mod * max(inner, 1) < 2**62 else object


# The tier of ``_arithmetic`` that stores int64 residues and reduces every
# product at once; the other tiers are named by their dtype.
EXACT_INT64 = "exact-int64"


def _arithmetic(mod: int):
    """(tier, panel width) of the Howell kernel modulo ``mod``."""
    if PANEL * (mod - 1) ** 2 + mod < 2**53:
        return np.float64, PANEL
    if residue_dtype(mod) is np.int64:
        return np.int64, min(PANEL, (2**63 - mod) // (mod - 1) ** 2)
    if PANEL * PANEL * mod < 2**53:
        return EXACT_INT64, PANEL
    return object, OBJECT_PANEL


@dataclass(frozen=True)
class CoeffMatrix:
    """Matrix over Z/p^k with entries stored as machine residues."""

    p: int
    k: int
    ncols: int
    rows: tuple = ()

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.p**self.k >= 2**128:
            raise ValueError("p^k must fit in a 128-bit word")
        mod = self.p**self.k
        dtype = residue_dtype(mod)
        normalized = []
        for row in self.rows:
            arr = np.asarray(row, dtype=dtype) % mod
            if arr.shape != (self.ncols,):
                raise ValueError("row length does not match ncols")
            arr.setflags(write=False)
            normalized.append(arr)
        object.__setattr__(self, "rows", tuple(normalized))

    @property
    def modulus(self) -> int:
        return self.p**self.k

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, CoeffMatrix):
            return NotImplemented
        return (
            (self.p, self.k, self.ncols) == (other.p, other.k, other.ncols)
            and self.nrows == other.nrows
            and all(np.array_equal(a, b) for a, b in zip(self.rows, other.rows))
        )

    __hash__ = None


class _Ops(NamedTuple):
    """A tier's arithmetic: storage dtype, reduction into [0, mod),
    elementwise product and matrix product."""

    dtype: type
    red: Callable
    mul: Callable
    dot: Callable


def _ops(tier, mod: int) -> _Ops:
    if tier is np.float64:
        fmod = float(mod)
        return _Ops(tier, lambda x: x - np.floor(x / fmod) * fmod, np.multiply, np.matmul)
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


def _min_valuation(vals: np.ndarray, p: int, k: int) -> tuple[int, int]:
    """(e, i): the least p-adic valuation among non-zero ``vals`` and the
    first index attaining it."""
    for e in range(k):
        hit = np.flatnonzero(vals % p ** (e + 1))
        if len(hit):
            return e, int(hit[0])
    raise AssertionError("a zero entry was taken for a non-zero one")


def _working_copy(mat, ncols: int, mod: int, tier, dtype):
    """The non-zero rows of ``mat`` reduced mod ``mod``, in the kernel's
    dtype.  Zero rows go before the conversion, and this is the only
    full-size copy the kernel makes.  Python-int input to the exact int64
    tier is narrowed only after the reduction."""
    A = np.asarray(mat)
    if not (A.dtype == object and tier in (object, EXACT_INT64)):
        A = A.astype(object if tier is object else np.int64, copy=False)
    if A.ndim != 2 or (A.size and A.shape[1] != ncols):
        raise ValueError("matrix shape does not match ncols")
    keep = np.flatnonzero(np.any(A, axis=1))
    M = np.empty((len(keep), ncols), dtype=dtype)
    for s in range(0, len(keep), _ROW_CHUNK):
        M[s:s + _ROW_CHUNK] = A[keep[s:s + _ROW_CHUNK]] % mod
    return M


def _eliminate(M, p: int, k: int, width: int, ops: _Ops):
    """Echelon rows of the span of M, as (H, pivot columns, valuations).

    Row i of H has its pivot p^e_i in column cols[i] and zeros left of it.
    M is consumed panel by panel; see the module docstring.
    """
    mod = p**k
    dtype = M.dtype
    red, mul, dot = ops.red, ops.mul, ops.dot
    ncols = M.shape[1]
    H = np.zeros((ncols, ncols), dtype=dtype)
    cols: list[int] = []
    es: list[int] = []
    c0 = 0
    while c0 < ncols and len(M):
        w = min(width, ncols - c0)
        n = len(M)
        P = np.zeros((n + w, w), dtype=dtype)  # room for appended rows
        P[:n] = M[:, :w]
        Tr = M[:, w:]
        Ta = np.zeros((w, ncols - c0 - w), dtype=dtype)  # appended rows' trailing parts
        C = np.zeros((n + w, w), dtype=dtype)
        T = np.zeros((w, ncols - c0 - w), dtype=dtype)
        live = np.zeros(n + w, dtype=bool)
        live[:n] = True
        appended = npiv = 0
        for j in range(w):
            # Panel entries are reduced only when their column is reached:
            # each took at most one product per pivot, so they stay exact.
            colj = red(P[:, j])
            nz = np.flatnonzero(colj)
            if not len(nz):
                continue
            c = colj[nz]
            e, ri = _min_valuation(c, p, k)
            r = int(nz[ri])
            pe = p**e
            inv = pow(int(c[ri]) // pe, -1, mod)
            prow = red(mul(red(P[r, j:]), inv))
            trail = Tr[r] if r < n else Ta[r - n]
            T[npiv] = red(mul(red(trail - dot(C[r, :npiv], T[:npiv])), inv))
            H[len(cols), c0 + j:c0 + w] = prow
            H[len(cols), c0 + w:] = T[npiv]
            cols.append(c0 + j)
            es.append(e)
            # e is minimal among the non-zero entries, so the division is exact.
            c //= pe
            c[ri] = 0
            P[nz, j + 1:] -= mul(c[:, None], prow[1:])
            C[nz, npiv] = c
            P[r] = 0
            live[r] = False
            if e > 0:
                scale = p ** (k - e)
                P[n + appended, j:] = red(mul(prow, scale))
                Ta[appended] = red(mul(T[npiv], scale))
                live[n + appended] = True
                appended += 1
            npiv += 1
        if npiv:
            rows = np.flatnonzero(live)
            Tr = np.concatenate([Tr[rows[rows < n]], Ta[rows[rows >= n] - n]])
            C = C[rows, :npiv]
            touched = np.flatnonzero(np.any(C, axis=1))
            for s in range(0, len(touched), _ROW_CHUNK):
                t = touched[s:s + _ROW_CHUNK]
                Tr[t] = red(Tr[t] - dot(C[t], T[:npiv]))
        del M, P, C
        M = Tr[np.any(Tr, axis=1)]
        c0 += w
    return H[:len(cols)], cols, es


def _back_substitute(H, cols: list[int], es: list[int], p: int, width: int, ops: _Ops):
    """Reduce every entry above a pivot p^e into [0, p^e), in place."""
    red, mul, dot = ops.red, ops.mul, ops.dot
    cols = np.asarray(cols)
    for i0 in range(0, len(H), width):
        i1 = min(i0 + width, len(H))
        block = cols[i0:i1]
        b0 = int(block[0])
        Hb = H[i0:i1, b0:].copy()
        Hbc = Hb[:, block - b0]
        # The entries of rows [0, i1) in the block's pivot columns, kept up
        # to date step by step; they decide the quotients.
        S = H[:i1][:, block]
        Q = np.zeros((i1, i1 - i0), dtype=H.dtype)
        for t in range(i1 - i0):
            q = red(S[:i0 + t, t]) // p ** es[i0 + t]
            nz = np.flatnonzero(q)
            if len(nz):
                Q[nz, t] = q[nz]
                S[nz, t + 1:] -= mul(q[nz, None], Hbc[t, t + 1:])
        touched = np.flatnonzero(np.any(Q, axis=1))
        if len(touched):
            H[touched, b0:] = red(H[touched, b0:] - dot(Q[touched], Hb))


def howell_span_rows(p: int, k: int, ncols: int, mat) -> list[np.ndarray]:
    """Howell normal form rows of the row span of a stacked matrix.

    Blocked elimination, then blocked back-substitution, in the arithmetic
    the module docstring describes: float64 or int64 with delayed
    reduction below 2^31, exact int64 with every product reduced from 2^31
    to 2^41, Python ints above.  Rows come back in pivot order, as int64
    for moduli below 2^31 and as Python ints (object) above, whatever the
    tier.  Inside ``echelon_span_rows`` the call stops before
    back-substitution.
    """
    mod = p**k
    tier, width = _arithmetic(mod)
    ops = _ops(tier, mod)
    H, cols, es = _eliminate(_working_copy(mat, ncols, mod, tier, ops.dtype), p, k, width, ops)
    if not _ECHELON_ONLY.get():
        _back_substitute(H, cols, es, p, width, ops)
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


class Echelon(NamedTuple):
    """Echelon rows over Z/p^k with the Howell property and pivots p^e:
    the rows of ``echelon_span_rows`` or of a Howell form."""

    p: int
    k: int
    rows: np.ndarray  # (r, ncols) in residue_dtype(p^k), in pivot order
    cols: np.ndarray  # the pivot column of each row
    length: int  # the span has p^length elements


def echelon(p: int, k: int, ncols: int, rows) -> Echelon:
    """``rows``, echelon with pivots p^e and the Howell property, as an
    ``Echelon``: its length is the sum of k - e over the pivots."""
    mod = p**k
    H = np.array(rows, dtype=residue_dtype(mod)).reshape(-1, ncols)
    cols = np.argmax(H != 0, axis=1)
    pivots = H[np.arange(len(H)), cols]
    # sum e = the number of (row, j) with p^j | p^e, 1 <= j < k
    es = sum(int(np.count_nonzero(pivots % p**j == 0)) for j in range(1, k))
    return Echelon(p, k, H, cols, k * len(H) - es)


def spans(E: Echelon, vectors) -> bool:
    """True iff every row of ``vectors`` reduces to zero against E.

    All rows are reduced at once, one block of ``width`` pivots at a time
    as in back-substitution: a pivot's quotients are the vectors' entries
    in its column, less the block's earlier quotients times their rows'
    entries there, divided by the pivot; the block's reduction of the whole
    vectors is then one product.  The loop stops at the first division that
    fails.
    """
    p, k, H, cols = E.p, E.k, E.rows, E.cols
    mod = p**k
    tier, width = _arithmetic(mod)
    # The float tier's sums stay below 2^53, so int64 holds them too, and
    # reduces them with one ``%``.
    ops = _ops(np.int64 if tier is np.float64 else tier, mod)
    dot = ops.dot
    V = _working_copy(vectors, H.shape[1], mod, tier, ops.dtype)
    if not len(V):
        return True
    H = H.astype(V.dtype, copy=False)
    pivots = [int(x) for x in E.rows[np.arange(len(H)), cols]]
    for i0 in range(0, len(H), width):
        i1 = min(i0 + width, len(H))
        block = cols[i0:i1]
        b0 = int(block[0])
        Hb = H[i0:i1, b0:]
        Hbc = Hb[:, block - b0]
        S = V[:, block]
        Q = np.zeros((len(V), i1 - i0), dtype=V.dtype)
        for t in range(i1 - i0):
            x = (S[:, t] - dot(Q[:, :t], Hbc[:t, t])) % mod
            xs = x.tolist()
            if not any(xs):
                continue
            pe = pivots[i0 + t]
            if pe != 1:
                if any(v % pe for v in xs):
                    return False
                x //= pe
            Q[:, t] = x
        V[:, b0:] = (V[:, b0:] - dot(Q, Hb)) % mod
    return not V.any()


def howell_form(A: CoeffMatrix) -> CoeffMatrix:
    """The unique Howell normal form of the row span of A (zero rows removed)."""
    mat = np.array(A.rows, dtype=residue_dtype(A.modulus)).reshape(A.nrows, A.ncols)
    return CoeffMatrix(A.p, A.k, A.ncols, tuple(howell_span_rows(A.p, A.k, A.ncols, mat)))


def same_span(A: CoeffMatrix, B: CoeffMatrix) -> bool:
    if (A.p, A.k, A.ncols) != (B.p, B.k, B.ncols):
        raise ValueError("matrices are not comparable")
    return howell_form(A) == howell_form(B)


def _reduce(v, H: CoeffMatrix) -> bool:
    """True iff v reduces to zero against H, which must have the Howell
    property (a Howell form has)."""
    vec = np.asarray(v)
    if vec.shape != (H.ncols,):
        raise ValueError("vector length does not match ncols")
    return spans(echelon(H.p, H.k, H.ncols, H.rows), vec[None])


def member(v, A: CoeffMatrix) -> bool:
    """True iff v lies in the row span of A."""
    return _reduce(v, howell_form(A))
