"""Exact arithmetic in the truncated group ring (Z/p^k)[d1..ds, T1..Td].

The ring is R = (Z/p^k)[delta_1, ..., delta_s, T_1, ..., T_d] subject to
delta_i^(m_i) = 1 and T_j^N = 0.  Elements are dense coefficient vectors
indexed by the monomials delta^a * T^b with 0 <= a_i < m_i, 0 <= b_j < N.
Everything here is immutable; operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import SpecMismatchError
from .linalg import _is_prime, residue_dtype


@dataclass(frozen=True)
class GroupRingSpec:
    """Ambient ring parameters: prime p, precision k, cyclic orders, T data.

    ``orders`` are the orders (m_1, ..., m_s) of the cyclic factors of the
    finite group; ``d`` is the number of T variables, all truncated at
    degree ``N``.
    """

    p: int
    k: int
    orders: tuple[int, ...]
    d: int
    N: int

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(m) for m in self.orders))
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.p == 2:
            raise ValueError("p must be an odd prime")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.p**self.k >= 2**128:
            raise ValueError("p^k must fit in a 128-bit word")
        if any(m < 2 for m in self.orders):
            raise ValueError("cyclic factor orders must be >= 2")
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        if self.N < 1:
            raise ValueError("N must be positive")

    @property
    def s(self) -> int:
        return len(self.orders)

    @property
    def modulus(self) -> int:
        return self.p**self.k

    @property
    def radices(self) -> tuple[int, ...]:
        return self.orders + (self.N,) * self.d

    @property
    def size(self) -> int:
        return math.prod(self.radices) if self.radices else 1

    @property
    def group_size(self) -> int:
        return math.prod(self.orders) if self.orders else 1

    def dtype(self):
        # A convolution sums up to ``size`` products of two residues.
        return residue_dtype(self.modulus, self.size)

    def index_of(self, exps: tuple[int, ...]) -> int:
        radices = self.radices
        if len(exps) != len(radices):
            raise ValueError("monomial index has wrong arity")
        idx = 0
        for e, r in zip(exps, radices):
            if not 0 <= e < r:
                raise ValueError(f"monomial exponent {e} out of range [0, {r})")
            idx = idx * r + e
        return idx

    def exps_of(self, index: int) -> tuple[int, ...]:
        exps = []
        for r in reversed(self.radices):
            exps.append(index % r)
            index //= r
        return tuple(reversed(exps))


@lru_cache(maxsize=None)
def _exponent_array(spec: GroupRingSpec) -> np.ndarray:
    """(size, s+d) array of the exponent tuple of every basis monomial."""
    radices = spec.radices
    if not radices:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.indices(radices).reshape(len(radices), -1).T
    return np.ascontiguousarray(grids, dtype=np.int64)


@lru_cache(maxsize=None)
def _mul_table(spec: GroupRingSpec) -> np.ndarray:
    """(size, size) table of product monomial indices; ``size`` marks drops."""
    B = spec.size
    exps = _exponent_array(spec)
    s = spec.s
    out = np.zeros((B, B), dtype=np.int64)
    drop = np.zeros((B, B), dtype=bool)
    strides = np.ones(len(spec.radices), dtype=np.int64)
    for i in range(len(spec.radices) - 2, -1, -1):
        strides[i] = strides[i + 1] * spec.radices[i + 1]
    for axis, r in enumerate(spec.radices):
        tot = exps[:, axis][:, None] + exps[:, axis][None, :]
        if axis < s:
            tot %= r
        else:
            drop |= tot >= r
        out += strides[axis] * tot
    out[drop] = B
    return out


@dataclass(frozen=True)
class RingElement:
    """Dense element of the truncated group ring."""

    spec: GroupRingSpec
    coeffs: np.ndarray = field(compare=False)

    def __post_init__(self):
        if self.coeffs.shape != (self.spec.size,):
            raise ValueError("coefficient vector has wrong length")

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.coeffs, other.coeffs)

    __hash__ = None

    def __add__(self, other):
        _check_specs(self, other)
        return RingElement(self.spec, (self.coeffs + other.coeffs) % self.spec.modulus)

    def __sub__(self, other):
        _check_specs(self, other)
        return RingElement(self.spec, (self.coeffs - other.coeffs) % self.spec.modulus)

    def __neg__(self):
        return RingElement(self.spec, (-self.coeffs) % self.spec.modulus)

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.spec, (self.coeffs * (other % self.spec.modulus)) % self.spec.modulus)
        return mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponents are not supported")
        result = one(self.spec)
        base = self
        while e:
            if e & 1:
                result = mul(result, base)
            base = mul(base, base) if e > 1 else base
            e >>= 1
        return result

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def t_degree(self) -> int:
        """Maximal total T-degree of a nonzero monomial (0 for the zero element)."""
        nz = np.nonzero(self.coeffs)[0]
        if len(nz) == 0 or self.spec.d == 0:
            return 0
        exps = _exponent_array(self.spec)
        return int(exps[nz, self.spec.s:].sum(axis=1).max())

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        return [
            (self.spec.exps_of(int(i)), int(self.coeffs[i]))
            for i in np.nonzero(self.coeffs)[0]
        ]


def _check_specs(x, y):
    if x.spec != y.spec:
        raise SpecMismatchError("elements live on different ring specs")


def _zeros(spec: GroupRingSpec, *lead: int) -> np.ndarray:
    """Zero coefficient array of shape (*lead, spec.size) in the spec's dtype."""
    return np.zeros((*lead, spec.size), dtype=spec.dtype())


def zero(spec: GroupRingSpec) -> RingElement:
    return RingElement(spec, _zeros(spec))


def one(spec: GroupRingSpec) -> RingElement:
    c = _zeros(spec)
    c[0] = 1
    return RingElement(spec, c)


def make_element(spec: GroupRingSpec, terms) -> RingElement:
    """Build an element from (exponent-tuple, coefficient) pairs.

    ``terms`` may also be a dict; unspecified coefficients are zero and all
    coefficients are reduced mod p^k.  Exponent tuples may be given either
    flat (a_1..a_s, b_1..b_d) or as a pair (a-tuple, b-tuple).
    """
    c = _zeros(spec)
    items = terms.items() if isinstance(terms, dict) else terms
    for exps, coeff in items:
        if len(exps) == 2 and all(isinstance(part, (tuple, list)) for part in exps):
            exps = tuple(exps[0]) + tuple(exps[1])
        idx = spec.index_of(tuple(exps))
        c[idx] = (c[idx] + coeff) % spec.modulus
    return RingElement(spec, c)


def from_vector(spec: GroupRingSpec, vec: np.ndarray) -> RingElement:
    c = _zeros(spec)
    c[:] = np.asarray(vec) % spec.modulus
    return RingElement(spec, c)


def delta(spec: GroupRingSpec, i: int, power: int = 1) -> RingElement:
    """The group generator delta_i (1-based), optionally raised to a power."""
    if not 1 <= i <= spec.s:
        raise ValueError(f"group factor index {i} out of range")
    exps = [0] * (spec.s + spec.d)
    exps[i - 1] = power % spec.orders[i - 1]
    return make_element(spec, [(tuple(exps), 1)])


def tvar(spec: GroupRingSpec, j: int) -> RingElement:
    """The variable T_j (1-based)."""
    if not 1 <= j <= spec.d:
        raise ValueError(f"T-variable index {j} out of range")
    exps = [0] * (spec.s + spec.d)
    exps[spec.s + j - 1] = 1
    return make_element(spec, [(tuple(exps), 1)])


def const(spec: GroupRingSpec, n: int) -> RingElement:
    c = _zeros(spec)
    c[0] = n % spec.modulus
    return RingElement(spec, c)


def mul(x: RingElement, y: RingElement) -> RingElement:
    """Convolution product; group exponents wrap, T-overflow terms drop."""
    _check_specs(x, y)
    spec = x.spec
    B = spec.size
    table = _mul_table(spec)
    if spec.dtype() is object:
        acc = np.empty(B + 1, dtype=object)
        acc[:] = 0
    else:
        acc = np.zeros(B + 1, dtype=np.int64)
    yc = y.coeffs
    for i in np.nonzero(x.coeffs)[0]:
        # table[i] is injective away from the drop bucket B, so fancy
        # indexing is safe for all retained positions.
        acc[table[i]] += x.coeffs[i] * yc
    return RingElement(spec, acc[:B] % spec.modulus)


def multiplication_rows(x: RingElement) -> np.ndarray:
    """(size, size) matrix whose i-th row holds the coefficients of x * b_i.

    The rows span the ideal (x) as a Z/p^k-module, since every ring element
    is a Z/p^k-combination of basis monomials b_i.
    """
    spec = x.spec
    B = spec.size
    table = _mul_table(spec)
    out = np.zeros((B, B + 1), dtype=spec.dtype())
    # Multiplication by a fixed monomial is injective on the monomials that
    # survive truncation, so index collisions only happen in the drop bucket.
    out[np.arange(B)[:, None], table] = x.coeffs[None, :]
    return out[:, :B]


def norm_element(spec: GroupRingSpec, subset=None) -> RingElement:
    """Product over the chosen cyclic factors of (1 + delta_i + ... + delta_i^(m_i - 1)).

    ``subset`` uses 1-based factor indices; the default is all factors, which
    yields the full norm element.
    """
    if subset is None:
        subset = range(1, spec.s + 1)
    subset = sorted(set(subset))
    if any(not 1 <= i <= spec.s for i in subset):
        raise ValueError("factor index out of range")
    result = one(spec)
    for i in subset:
        factor = zero(spec)
        acc = factor.coeffs
        for j in range(spec.orders[i - 1]):
            acc = acc + delta(spec, i, j).coeffs
        result = mul(result, RingElement(spec, acc % spec.modulus))
    return result


def augmentation_spec(spec: GroupRingSpec) -> GroupRingSpec:
    return GroupRingSpec(spec.p, spec.k, (), spec.d, spec.N)


def augmentation(x: RingElement) -> RingElement:
    """Send every group generator to 1, keeping the T variables."""
    spec = x.spec
    target = augmentation_spec(spec)
    shaped = x.coeffs.reshape(spec.radices if spec.radices else (1,))
    summed = shaped
    for _ in range(spec.s):
        summed = summed.sum(axis=0)
    return RingElement(target, summed.reshape(target.size) % spec.modulus)


# --------------------------------------------------------------------------
# Ring homomorphisms


@dataclass(frozen=True)
class RingHom:
    """Quotient, twist, or inclusion homomorphism between group ring specs.

    quotient:  kill_delta / kill_t are 1-based index sets; the listed
               delta_i map to 1 and the listed T_j to 0.
    twist:     each delta_i maps to delta_values[i] * delta_i and each
               topological generator 1 + T_j to gamma_values[j] * (1 + T_j).
    inclusion: each source generator maps to a given group-like monomial of
               the target ring.
    """

    source: GroupRingSpec
    target: GroupRingSpec
    kind: str
    kill_delta: frozenset = frozenset()
    kill_t: frozenset = frozenset()
    delta_values: tuple = ()
    gamma_values: tuple = ()
    delta_images: tuple = ()
    gamma_images: tuple = ()


def quotient_hom(spec: GroupRingSpec, kill_delta=(), kill_t=()) -> RingHom:
    kill_delta = frozenset(kill_delta)
    kill_t = frozenset(kill_t)
    if any(not 1 <= i <= spec.s for i in kill_delta):
        raise ValueError("quotient kills a nonexistent group factor")
    if any(not 1 <= j <= spec.d for j in kill_t):
        raise ValueError("quotient kills a nonexistent T variable")
    orders = tuple(m for i, m in enumerate(spec.orders, 1) if i not in kill_delta)
    target = GroupRingSpec(spec.p, spec.k, orders, spec.d - len(kill_t), spec.N)
    return RingHom(spec, target, "quotient", kill_delta=kill_delta, kill_t=kill_t)


def twist_hom(spec: GroupRingSpec, delta_values=(), gamma_values=()) -> RingHom:
    """Unit twist delta_i -> v_i delta_i, (1 + T_j) -> u_j (1 + T_j).

    The delta part is an exact ring homomorphism of the truncated ring.
    The gamma part substitutes T_j -> (u_j - 1) + u_j T_j, which is a
    homomorphism of the untruncated power series ring; on the T^N
    truncation it is multiplicative up to terms supported in the image of
    (T_j^N), whose T-degree-i coefficients carry p-valuation at least
    (N - i) v_p(u_j - 1).  Equality verdicts downstream account for this
    through their certified precision.
    """
    delta_values = tuple(v % spec.modulus for v in delta_values)
    gamma_values = tuple(v % spec.modulus for v in gamma_values)
    if len(delta_values) != spec.s or len(gamma_values) != spec.d:
        raise ValueError("twist needs one unit value per generator")
    for v in delta_values + gamma_values:
        if v % spec.p == 0:
            raise ValueError(f"twist value {v} is not a unit mod p^k")
    for v, m in zip(delta_values, spec.orders):
        if pow(v, m, spec.modulus) != 1:
            raise ValueError("twist value does not respect the generator order")
    return RingHom(spec, spec, "twist", delta_values=delta_values, gamma_values=gamma_values)


def inverse_twist(h: RingHom) -> RingHom:
    if h.kind != "twist":
        raise ValueError("not a twist")
    mod = h.source.modulus
    return twist_hom(
        h.source,
        tuple(pow(v, -1, mod) for v in h.delta_values),
        tuple(pow(v, -1, mod) for v in h.gamma_values),
    )


def group_like(spec: GroupRingSpec, delta_exps, gamma_exps) -> RingElement:
    """The monomial delta^a * prod_j (1 + T_j)^(c_j)."""
    delta_exps = tuple(delta_exps)
    gamma_exps = tuple(gamma_exps)
    if len(delta_exps) != spec.s or len(gamma_exps) != spec.d:
        raise ValueError("exponent tuples have wrong arity")
    exps = [a % m for a, m in zip(delta_exps, spec.orders)] + [0] * spec.d
    result = make_element(spec, [(tuple(exps), 1)])
    for j, c in enumerate(gamma_exps, 1):
        if c < 0:
            raise ValueError("gamma exponents must be nonnegative")
        result = mul(result, (one(spec) + tvar(spec, j)) ** c)
    return result


def inclusion_hom(source: GroupRingSpec, target: GroupRingSpec,
                  delta_images=(), gamma_images=()) -> RingHom:
    if source.p != target.p or source.k != target.k or source.N != target.N:
        raise ValueError("inclusion requires matching p, k, N")
    delta_images = tuple(delta_images)
    gamma_images = tuple(gamma_images)
    if len(delta_images) != source.s or len(gamma_images) != source.d:
        raise ValueError("inclusion needs one image per source generator")
    for img, m in zip(delta_images, source.orders):
        if img.spec != target:
            raise SpecMismatchError("generator image lives on the wrong spec")
        if img**m != one(target):
            raise ValueError("generator image does not respect the generator order")
    for img in gamma_images:
        if img.spec != target:
            raise SpecMismatchError("generator image lives on the wrong spec")
    return RingHom(source, target, "inclusion",
                   delta_images=delta_images, gamma_images=gamma_images)


@lru_cache(maxsize=None)
def _twist_t_matrix(spec: GroupRingSpec, u: int) -> np.ndarray:
    """N x N matrix of the substitution T -> (u - 1) + u*T on T-power columns."""
    N, mod = spec.N, spec.modulus
    cols = np.zeros((N, N), dtype=object)
    cols[0, 0] = 1
    base = np.zeros(N, dtype=object)
    base[0] = (u - 1) % mod
    if N > 1:
        base[1] = u % mod
    cur = np.zeros(N, dtype=object)
    cur[0] = 1
    for b in range(1, N):
        nxt = np.zeros(N, dtype=object)
        for i in range(N):
            if cur[i]:
                hi = min(N, i + 2)
                nxt[i:hi] = (nxt[i:hi] + cur[i] * base[: hi - i]) % mod
        cur = nxt
        cols[:, b] = cur
    return cols


def apply_hom(h: RingHom, x: RingElement) -> RingElement:
    """Apply a ring homomorphism to an element."""
    if x.spec != h.source:
        raise SpecMismatchError("element does not live on the hom's source spec")
    spec, mod = h.source, h.source.modulus
    if h.kind == "quotient":
        shaped = x.coeffs.reshape(spec.radices if spec.radices else (1,))
        # Sum over killed group axes (delta -> 1), slice killed T axes at 0.
        for i in sorted(h.kill_delta, reverse=True):
            shaped = shaped.sum(axis=i - 1)
        kept_group = spec.s - len(h.kill_delta)
        for j in sorted(h.kill_t, reverse=True):
            shaped = np.take(shaped, 0, axis=kept_group + j - 1)
        return RingElement(h.target, shaped.reshape(h.target.size) % mod)
    if h.kind == "twist":
        shaped = x.coeffs.reshape(spec.radices if spec.radices else (1,)).astype(object)
        for i, (v, m) in enumerate(zip(h.delta_values, spec.orders)):
            scale = np.array([pow(v, a, mod) for a in range(m)], dtype=object)
            shape = [1] * shaped.ndim
            shape[i] = m
            shaped = shaped * scale.reshape(shape)
        for j, u in enumerate(h.gamma_values):
            axis = spec.s + j
            mat = _twist_t_matrix(spec, u % mod)
            shaped = np.moveaxis(np.tensordot(mat, shaped, axes=([1], [axis])), 0, axis)
        out = _zeros(spec)
        out[:] = shaped.reshape(spec.size) % mod
        return RingElement(spec, out)
    if h.kind == "inclusion":
        result = zero(h.target)
        # Precompute generator powers in the target ring.
        dpow = [[one(h.target)] for _ in range(spec.s)]
        for i, m in enumerate(spec.orders):
            for _ in range(1, m):
                dpow[i].append(mul(dpow[i][-1], h.delta_images[i]))
        tpow = [[one(h.target)] for _ in range(spec.d)]
        for j in range(spec.d):
            timg = h.gamma_images[j] - one(h.target)
            for _ in range(1, spec.N):
                tpow[j].append(mul(tpow[j][-1], timg))
        acc = result.coeffs
        for exps, coeff in x.terms():
            term = one(h.target)
            for i in range(spec.s):
                if exps[i]:
                    term = mul(term, dpow[i][exps[i]])
            for j in range(spec.d):
                if exps[spec.s + j]:
                    term = mul(term, tpow[j][exps[spec.s + j]])
            acc = (acc + coeff * term.coeffs) % mod
        return RingElement(h.target, acc)
    raise ValueError(f"unknown hom kind {h.kind!r}")


# --------------------------------------------------------------------------
# Characters and the cyclotomic coefficient ring


@lru_cache(maxsize=None)
def cyclotomic_poly(e: int) -> tuple[int, ...]:
    """Integer coefficients of the e-th cyclotomic polynomial (low to high)."""
    if e == 1:
        return (-1, 1)
    # x^e - 1 divided exactly by the product of Phi_d over proper divisors d.
    num = [0] * (e + 1)
    num[0], num[e] = -1, 1
    for dd in range(1, e):
        if e % dd == 0:
            phi_d = cyclotomic_poly(dd)
            num = _exact_polydiv(num, phi_d)
    return tuple(num)


def _exact_polydiv(num, den):
    num = list(num)
    den = list(den)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact cyclotomic division")
    return q


@lru_cache(maxsize=None)
def _zeta_powers(e: int, modulus: int) -> np.ndarray:
    """x^w mod (Phi_e(x), modulus) for w in range(e); shape (e, phi(e))."""
    phi = cyclotomic_poly(e)
    deg = len(phi) - 1
    out = np.zeros((e, deg), dtype=object)
    cur = np.zeros(deg, dtype=object)
    cur[0] = 1
    for w in range(e):
        out[w] = cur
        nxt = np.roll(cur, 1)
        top = nxt[0]
        nxt[0] = 0
        if top:
            # Reduce x^deg = -(phi_0 + ... + phi_{deg-1} x^{deg-1}).
            nxt = (nxt - top * np.array(phi[:deg], dtype=object)) % modulus
        cur = nxt % modulus
    return out


@dataclass(frozen=True)
class CyclotomicElement:
    """Element of (Z/p^k)[x]/Phi_e(x) tensored with the truncated T-part."""

    modulus: int
    e: int
    coeffs: np.ndarray = field(compare=False)  # shape (phi(e), t_size)

    def __eq__(self, other):
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        return (self.modulus, self.e) == (other.modulus, other.e) and np.array_equal(
            self.coeffs, other.coeffs
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)


@dataclass(frozen=True)
class Character:
    """Character of the finite group, valued in the cyclotomic ring for e = lcm(m_i).

    ``exponents`` fixes chi(delta_i) = zeta_e^((e / m_i) * t_i).
    """

    spec: GroupRingSpec
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != self.spec.s:
            raise ValueError("need one exponent per cyclic factor")
        object.__setattr__(
            self, "exponents", tuple(t % m for t, m in zip(self.exponents, self.spec.orders))
        )

    @property
    def e(self) -> int:
        return reduce(math.lcm, self.spec.orders, 1)

    def is_trivial(self) -> bool:
        return all(t == 0 for t in self.exponents)


def all_characters(spec: GroupRingSpec):
    import itertools

    for t in itertools.product(*(range(m) for m in spec.orders)):
        yield Character(spec, t)


def char_eval(chi: Character, x: RingElement) -> CyclotomicElement:
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
