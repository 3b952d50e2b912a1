"""Standard resolutions of the trivial module and their tensor products.

A matrix of ring elements is one dense coefficient array of shape
(nrows, ncols, B), B the ring's basis size.  A chain complex is a list of
free-module ranks together with boundary matrices d_j: C_j -> C_(j-1).
The building blocks are the periodic cyclic-group complex (boundaries
alternate delta_i - 1 and the norm) and the two-term complex for a T
variable; the total complex of a tensor product uses the Koszul sign rule
d(x (x) y) = dx (x) y + (-1)^deg(x) x (x) dy.  ``tensor`` folds its factors
into the tensor unit, so every total complex has exactly the requested
length, with rank 0 past the end of a short factor; only finitely many
terms are ever consumed downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import SpecMismatchError
from .groupring import (
    GroupRingSpec,
    RingElement,
    _zeros,
    delta,
    multiplication_rows,
    norm_element,
    tvar,
)
from .linalg import ArrayValue


@dataclass(frozen=True, eq=False)
class RingMatrix(ArrayValue):
    """Rectangular matrix of ring elements as a read-only (nrows, ncols, B)
    coefficient array in the spec's residue dtype."""

    spec: GroupRingSpec
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=self.spec.dtype())
        if coeffs.ndim != 3 or coeffs.shape[2] != self.spec.size:
            raise ValueError("coefficient array must have shape (nrows, ncols, spec.size)")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def nrows(self) -> int:
        return self.coeffs.shape[0]

    @property
    def ncols(self) -> int:
        return self.coeffs.shape[1]

    def at(self, i: int, j: int) -> RingElement:
        return RingElement(self.spec, self.coeffs[i, j])

    def transpose(self) -> "RingMatrix":
        return RingMatrix(self.spec, self.coeffs.swapaxes(0, 1))

    def compose(self, other: "RingMatrix") -> "RingMatrix":
        """Matrix product self * other."""
        if self.spec != other.spec:
            raise SpecMismatchError("matrices live on different specs")
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        mod = self.spec.modulus
        out = _zeros(self.spec, self.nrows, other.ncols)
        # Row i of the product is the sum over t of other's row t times the
        # entry (i, t): a coefficient row y times multiplication_rows(x) is
        # the coefficient row of x * y.
        i, t = np.nonzero(self.coeffs.any(axis=2))
        np.add.at(out, i, other.coeffs[t] @ multiplication_rows(self.spec, self.coeffs[i, t]) % mod)
        return RingMatrix(self.spec, out % mod)

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)


def matrix_from_rows(spec: GroupRingSpec, rows) -> RingMatrix:
    rows = [list(r) for r in rows]
    if any(e.spec != spec for r in rows for e in r):
        raise SpecMismatchError("matrix entry lives on the wrong spec")
    ncols = len(rows[0]) if rows else 0
    coeffs = np.array([[e.coeffs for e in r] for r in rows], dtype=spec.dtype())
    return RingMatrix(spec, coeffs.reshape(len(rows), ncols, spec.size))


@dataclass(frozen=True)
class ChainComplex:
    """Graded free modules with boundaries d_j: C_j -> C_(j-1), j >= 1."""

    spec: GroupRingSpec
    ranks: tuple[int, ...]
    boundaries: tuple[RingMatrix, ...]

    def __post_init__(self):
        for j, d in enumerate(self.boundaries, start=1):
            if d.nrows != self.ranks[j - 1] or d.ncols != self.ranks[j]:
                raise ValueError(f"boundary d_{j} has the wrong shape")
        for j in range(1, len(self.boundaries)):
            if not self.boundaries[j - 1].compose(self.boundaries[j]).is_zero():
                raise ValueError(f"d_{j} . d_{j + 1} != 0")

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def boundary(self, j: int) -> RingMatrix:
        """d_j for 1 <= j <= length."""
        return self.boundaries[j - 1]


def cyclic_complex(spec: GroupRingSpec, i: int, length: int,
                   generator_power: int = 1) -> ChainComplex:
    """Rank-one complex with boundaries alternating (delta_i^u - 1) and the norm.

    ``generator_power`` replaces the chosen generator delta_i by delta_i^u,
    which must be coprime to the factor order; the norm element is unchanged.
    """
    if not 1 <= i <= spec.s:
        raise ValueError(f"group factor index {i} out of range")
    if length < 1:
        raise ValueError("length must be >= 1")
    m = spec.orders[i - 1]
    if gcd(generator_power, m) != 1:
        raise ValueError("generator power must be coprime to the factor order")
    tau = matrix_from_rows(spec, [[delta(spec, i, generator_power) - delta(spec, i, 0)]])
    norm = matrix_from_rows(spec, [[norm_element(spec, [i])]])
    boundaries = tuple(tau if j % 2 == 1 else norm for j in range(1, length + 1))
    return ChainComplex(spec, (1,) * (length + 1), boundaries)


def t_complex(spec: GroupRingSpec, j: int) -> ChainComplex:
    """The two-term complex 0 -> R --T_j--> R -> 0."""
    if not 1 <= j <= spec.d:
        raise ValueError(f"T-variable index {j} out of range")
    return ChainComplex(spec, (1, 1), (matrix_from_rows(spec, [[tvar(spec, j)]]),))


def _tensor_pair(C: ChainComplex, D: ChainComplex, length: int) -> ChainComplex:
    spec = C.spec
    # Basis of (C (x) D)_n: pairs (i, alpha, j, beta), i + j = n, ordered by
    # ascending first-factor degree i, then alpha, then beta.
    basis = []
    for n in range(length + 1):
        layer = []
        for i in range(min(n, C.length) + 1):
            j = n - i
            if j > D.length:
                continue
            for alpha in range(C.ranks[i]):
                for beta in range(D.ranks[j]):
                    layer.append((i, alpha, j, beta))
        basis.append(layer)
    ranks = tuple(len(layer) for layer in basis)
    boundaries = []
    for n in range(1, length + 1):
        pos = {key: r for r, key in enumerate(basis[n - 1])}
        out = _zeros(spec, ranks[n - 1], ranks[n])
        # The dC and dD parts of a column land in rows of first-factor
        # degree i - 1 and i respectively, so they never share an entry.
        for c, (i, alpha, j, beta) in enumerate(basis[n]):
            if i >= 1:
                rows = [pos[(i - 1, ap, j, beta)] for ap in range(C.ranks[i - 1])]
                out[rows, c] = C.boundary(i).coeffs[:, alpha]
            if j >= 1:
                rows = [pos[(i, alpha, j - 1, bp)] for bp in range(D.ranks[j - 1])]
                entries = D.boundary(j).coeffs[:, beta]
                out[rows, c] = (-entries) % spec.modulus if i % 2 else entries
        boundaries.append(RingMatrix(spec, out))
    return ChainComplex(spec, ranks, tuple(boundaries))


def trivial_complex(spec: GroupRingSpec, length: int) -> ChainComplex:
    """The complex concentrated in degree 0 with rank 1 (tensor unit)."""
    ranks = (1,) + (0,) * length
    boundaries = tuple(
        RingMatrix(spec, _zeros(spec, ranks[j - 1], ranks[j])) for j in range(1, length + 1)
    )
    return ChainComplex(spec, ranks, boundaries)


def tensor(factors, length: int) -> ChainComplex:
    """Total complex of a list of chain complexes, with terms 0..``length``."""
    factors = list(factors)
    if not factors:
        raise ValueError("tensor needs at least one factor")
    spec = factors[0].spec
    for f in factors:
        if f.spec != spec:
            raise SpecMismatchError("tensor factors live on different specs")
    total = trivial_complex(spec, length)
    for f in factors:
        total = _tensor_pair(total, f, length)
    return total
