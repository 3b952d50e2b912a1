"""Exact arithmetic in the truncated group ring (Z/p^k)[d1..ds, T1..Td].

The ring is R = (Z/p^k)[delta_1, ..., delta_s, T_1, ..., T_d] subject to
delta_i^(m_i) = 1 and T_j^N = 0.  Elements are dense coefficient vectors
indexed by the monomials delta^a * T^b with 0 <= a_i < m_i, 0 <= b_j < N.
Everything here is immutable: the value types are ``linalg.ArrayValue``s,
which make their arrays read-only, a caller's array passed in included;
operations are pure functions.

Every change of coordinates that acts one axis at a time (the ring
homomorphisms, the parser's tau basis and the CRT blocks of ``ideals``) is
``along_axes``: one (r_out, r_in) matrix per axis of the coefficient
tensor, of shape ``spec.radices`` (or a stack of such tensors, behind
leading axes), in a dtype sized by r_in and the matrix's largest entry.
Homomorphism images are cast to the target spec's dtype.

Characters are evaluated through one table per spec
(``_character_table``), whose row blocks hold every character's values
on the group monomials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import SpecMismatchError
from .linalg import ArrayValue, _is_prime, frozen, residue_dtype


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

    # The cached values below live in the instance dict, outside the
    # dataclass fields, so __eq__, __hash__ and __repr__ (and with them the
    # lru_cache keys) see only p, k, orders, d and N.
    @cached_property
    def radices(self) -> tuple[int, ...]:
        return self.orders + (self.N,) * self.d

    @cached_property
    def size(self) -> int:
        return math.prod(self.radices)

    @property
    def group_size(self) -> int:
        return math.prod(self.orders) if self.orders else 1

    @cached_property
    def _dtype(self):
        # A convolution sums up to ``size`` products of two residues.
        return residue_dtype(self.modulus, self.size)

    def dtype(self):
        return self._dtype

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
        return frozen(np.zeros((1, 0), dtype=np.int64))
    grids = np.indices(radices).reshape(len(radices), -1).T
    return frozen(np.ascontiguousarray(grids, dtype=np.int64))


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
    return frozen(out)


@dataclass(frozen=True, eq=False)
class RingElement(ArrayValue):
    """Dense element of the truncated group ring."""

    spec: GroupRingSpec
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.spec.size,):
            raise ValueError("coefficient vector has wrong length")
        self.coeffs.flags.writeable = False

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
    acc = np.zeros(B + 1, dtype=spec.dtype())
    yc = y.coeffs
    for i in np.nonzero(x.coeffs)[0]:
        # table[i] is injective away from the drop bucket B, so fancy
        # indexing is safe for all retained positions.
        acc[table[i]] += x.coeffs[i] * yc
    return RingElement(spec, acc[:B] % spec.modulus)


def multiplication_rows(spec: GroupRingSpec, coeffs: np.ndarray) -> np.ndarray:
    """(..., size, size) matrices of the elements x with coefficient rows
    ``coeffs`` (..., size): row i of x's matrix holds the coefficients of x * b_i.

    The rows span the ideal (x) as a Z/p^k-module, since every ring element
    is a Z/p^k-combination of basis monomials b_i.
    """
    B = spec.size
    table = _mul_table(spec)
    out = np.zeros(coeffs.shape[:-1] + (B, B + 1), dtype=spec.dtype())
    # Multiplication by a fixed monomial is injective on the monomials that
    # survive truncation, so index collisions only happen in the drop bucket.
    out[..., np.arange(B)[:, None], table] = coeffs[..., None, :]
    return out[..., :B]


def norm_element(spec: GroupRingSpec, subset=None) -> RingElement:
    """Product over the chosen cyclic factors of (1 + delta_i + ... + delta_i^(m_i - 1)).

    ``subset`` uses 1-based factor indices; the default is all factors, which
    yields the full norm element.  The product is the sum of the group
    monomials supported on the chosen axes, so it is built as one slice of
    ones at T-degree 0.
    """
    if subset is None:
        subset = range(1, spec.s + 1)
    subset = set(subset)
    if any(not 1 <= i <= spec.s for i in subset):
        raise ValueError("factor index out of range")
    c = _zeros(spec).reshape(spec.radices)
    c[tuple(slice(None) if i in subset else 0 for i in range(1, spec.s + 1)) + (0,) * spec.d] = 1
    return RingElement(spec, c.reshape(spec.size))


def augmentation(x: RingElement) -> RingElement:
    """Send every group generator to 1, keeping the T variables."""
    return apply_hom(quotient_hom(x.spec, kill_delta=range(1, x.spec.s + 1)), x)


# --------------------------------------------------------------------------
# Ring homomorphisms


@dataclass(frozen=True, eq=False)
class RingHom(ArrayValue):
    """A ring homomorphism between group ring specs, as one read-only
    (r_out, r_in) matrix, or None, per axis of the source: x maps to
    ``along_axes(source, x.coeffs, mats)`` on the target spec."""

    source: GroupRingSpec
    target: GroupRingSpec
    mats: tuple

    def __post_init__(self):
        for mat in self.mats:
            if mat is not None:
                mat.flags.writeable = False


def quotient_hom(spec: GroupRingSpec, kill_delta=(), kill_t=()) -> RingHom:
    kill_delta = frozenset(kill_delta)
    kill_t = frozenset(kill_t)
    if any(not 1 <= i <= spec.s for i in kill_delta):
        raise ValueError("quotient kills a nonexistent group factor")
    if any(not 1 <= j <= spec.d for j in kill_t):
        raise ValueError("quotient kills a nonexistent T variable")
    orders = tuple(m for i, m in enumerate(spec.orders, 1) if i not in kill_delta)
    target = GroupRingSpec(spec.p, spec.k, orders, spec.d - len(kill_t), spec.N)
    # delta_i -> 1 sums the axis; T_j -> 0 keeps its constant term.
    mats = [np.ones((1, m), dtype=np.int64) if i in kill_delta else None
            for i, m in enumerate(spec.orders, 1)]
    mats += [np.eye(1, spec.N, dtype=np.int64) if j in kill_t else None
             for j in range(1, spec.d + 1)]
    return RingHom(spec, target, tuple(mats))


def twist_hom(spec: GroupRingSpec, delta_values=(), gamma_values=()) -> RingHom:
    """Unit twist delta_i -> v_i delta_i, (1 + T_j) -> u_j (1 + T_j).

    The delta part is an exact ring homomorphism of the truncated ring.
    The gamma part substitutes T_j -> (u_j - 1) + u_j T_j, which is a
    homomorphism of the untruncated power series ring; on the T^N
    truncation it is multiplicative up to terms supported in the image of
    (T_j^N), whose T-degree-i coefficients carry p-valuation at least
    (N - i) v_p(u_j - 1).  Nothing downstream accounts for this p-adic
    loss yet: a certified precision counts only the T-degrees of
    denominators (ROADMAP open item 1).
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
    mod = spec.modulus
    mats = [np.diag(np.array([pow(v, a, mod) for a in range(m)], dtype=object))
            for v, m in zip(delta_values, spec.orders)]
    mats += [_twist_t_matrix(spec, u) for u in gamma_values]
    return RingHom(spec, spec, tuple(mats))


def group_like(spec: GroupRingSpec, delta_exps, gamma_exps) -> RingElement:
    """The monomial delta^a * prod_j (1 + T_j)^(c_j).

    Its coefficients are prod_j C(c_j, i_j) mod p^k at delta^a * T^i for
    i_j < N: the outer product of one row of binomials per T variable,
    placed at delta^a.
    """
    delta_exps = tuple(delta_exps)
    gamma_exps = tuple(gamma_exps)
    if len(delta_exps) != spec.s or len(gamma_exps) != spec.d:
        raise ValueError("exponent tuples have wrong arity")
    if any(c < 0 for c in gamma_exps):
        raise ValueError("gamma exponents must be nonnegative")
    mod = spec.modulus
    t_part = np.ones((), dtype=object)
    for c in gamma_exps:
        binomials = np.array([math.comb(c, i) % mod for i in range(spec.N)], dtype=object)
        t_part = np.multiply.outer(t_part, binomials) % mod
    c = _zeros(spec).reshape(spec.radices)
    c[tuple(a % m for a, m in zip(delta_exps, spec.orders))] = t_part
    return RingElement(spec, c.reshape(spec.size))


def along_axes(spec: GroupRingSpec, coeffs: np.ndarray, mats) -> np.ndarray:
    """Apply ``mats[i]``, an (r_out, r_in) matrix or None, along axis i of
    the coefficient tensor of ``coeffs`` (shape ``spec.radices``), mod p^k.

    ``coeffs`` has shape ``(..., spec.size)``: leading axes index a stack
    of elements, each transformed alike, and the result has shape
    ``(..., *radices_out)``.  Axes past ``len(mats)`` are left alone.  Each
    product sums r_in residues times matrix entries, so both are cast to
    ``residue_dtype(p^k, r_in, factor)``, factor the matrix's largest entry;
    the result is in the dtype of the last matrix applied.
    """
    mod = spec.modulus
    batch = coeffs.ndim - 1
    a = coeffs.reshape(coeffs.shape[:batch] + spec.radices)
    for axis, mat in enumerate(mats, start=batch):
        if mat is None:
            continue
        dtype = residue_dtype(mod, mat.shape[1], factor=int(mat.max()))
        a = np.tensordot(mat.astype(dtype, copy=False), a.astype(dtype, copy=False),
                         axes=([1], [axis]))
        a = np.moveaxis(a, 0, axis) % mod
    return a


@lru_cache(maxsize=None)
def _twist_t_matrix(spec: GroupRingSpec, u: int) -> np.ndarray:
    """N x N matrix of the substitution T -> (u - 1) + u*T on T-power columns:
    T^b goes to sum_i C(b, i) u^i (u - 1)^(b - i) T^i."""
    N, mod = spec.N, spec.modulus
    return frozen(np.array([[math.comb(b, i) * pow(u, i, mod) * pow(u - 1, b - i, mod) % mod
                             if i <= b else 0 for b in range(N)] for i in range(N)], dtype=object))


def apply_hom(h: RingHom, x):
    """Apply a ring homomorphism to an element, or to a stack of
    coefficient rows (..., source size), giving the rows (..., target size)
    of their images in one ``along_axes`` call."""
    element = isinstance(x, RingElement)
    if element and x.spec != h.source:
        raise SpecMismatchError("element does not live on the hom's source spec")
    coeffs = x.coeffs if element else x
    if coeffs.shape[-1:] != (h.source.size,):
        raise ValueError("coefficient rows have wrong length")
    image = along_axes(h.source, coeffs, h.mats)
    image = image.reshape(coeffs.shape[:-1] + (h.target.size,)).astype(h.target.dtype())
    return RingElement(h.target, image) if element else image


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


# --------------------------------------------------------------------------
# Coprime factors of x^m - 1 over Z/p^k
#
# Polynomials here are coefficient lists, low degree first, of Python ints.


def _ptrim(a: list) -> list:
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _padd(a, b, mod: int) -> list:
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _ptrim([(x + y) % mod for x, y in zip(a, b)])


def _psub(a, b, mod: int) -> list:
    return _padd(a, [-c for c in b], mod)


def _pmul(a, b, mod: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim([c % mod for c in out])


def _pdivmod(a, b, mod: int) -> tuple[list, list]:
    """Quotient and remainder of a by b, whose leading coefficient is a unit mod ``mod``."""
    a = _ptrim([c % mod for c in a])
    b = _ptrim([c % mod for c in b])
    inv = pow(b[-1], -1, mod)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * inv % mod
        shift = len(a) - len(b)
        q[shift] = c
        a = _psub(a, [0] * shift + [c * x for x in b], mod)
    return q, a


def _pxgcd(a, b, p: int) -> tuple[list, list, list]:
    """(g, s, t) over F_p with g = s*a + t*b the monic gcd of a and b."""
    r0, s0, t0 = _ptrim([c % p for c in a]), [1], []
    r1, s1, t1 = _ptrim([c % p for c in b]), [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return ([c * inv % p for c in r0], [c * inv % p for c in s0],
            [c * inv % p for c in t0])


def _ppowmod(a, e: int, f, p: int) -> list:
    """a^e mod (f, p)."""
    out, base = [1], _pdivmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _pdivmod(_pmul(out, base, p), f, p)[1]
        base = _pdivmod(_pmul(base, base, p), f, p)[1]
        e >>= 1
    return out


def _equal_degree_split(f, d: int, p: int) -> list[list]:
    """The monic irreducible factors over F_p of a squarefree monic f whose
    irreducible factors all have degree d (Cantor and Zassenhaus).

    The trial polynomials h run through all polynomials of degree below
    deg f in a fixed order, so the result does not depend on chance: for
    any two factors some h is a square modulo one and not the other, and
    gcd(f, h^((p^d - 1)/2) - 1) then separates them.
    """
    if len(f) - 1 == d:
        return [f]
    e = (p**d - 1) // 2
    for n in range(1, len(f) - 1):
        for low in itertools.product(range(p), repeat=n):
            h = list(low) + [1]
            g = _pxgcd(f, _psub(_ppowmod(h, e, f, p), [1], p), p)[0]
            if 1 < len(g) < len(f):
                rest = _pdivmod(f, g, p)[0]
                return _equal_degree_split(g, d, p) + _equal_degree_split(rest, d, p)
    raise AssertionError("no trial polynomial split a reducible factor")


def _hensel_lift(f, g, h, p: int, k: int) -> tuple[list, list]:
    """Monic G, H mod p^k with f = G*H, G = g and H = h mod p, for monic f
    and monic factors g, h coprime mod p (linear lifting, one power of p
    per step)."""
    mod = p**k
    _, s, t = _pxgcd(g, h, p)
    for j in range(1, k):
        pj = p**j
        err = [c // pj % p for c in _psub(f, _pmul(g, h, mod), mod)]
        # g*dh + h*dg = err mod p, with deg dg < deg g so that g stays monic.
        q, dg = _pdivmod(_pmul(err, t, p), g, p)
        dh = _padd(_pmul(err, s, p), _pmul(q, h, p), p)
        g = _padd(g, [pj * c for c in dg], mod)
        h = _padd(h, [pj * c for c in dh], mod)
    return g, h


@lru_cache(maxsize=None)
def crt_factors(p: int, k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Monic F_1, ..., F_r over Z/p^k with x^m - 1 = F_1 * ... * F_r.

    Writing m = p^a * m' with p coprime to m', x^m - 1 = (x^m' - 1)^(p^a)
    mod p, and x^m' - 1 is squarefree mod p with one factor Phi_e per
    divisor e of m'; Phi_e splits into irreducibles of degree ord_e(p).
    Each F_i lifts the p^a-th power of one irreducible, so the F_i are
    pairwise coprime mod p, hence comaximal over Z/p^k, and
    Z/p^k[x]/(x^m - 1) is the product of the rings Z/p^k[x]/(F_i).  When
    m is a power of p there is one factor.  Factors are sorted by degree,
    then by their coefficients mod p.
    """
    m1, pa = m, 1
    while m1 % p == 0:
        m1, pa = m1 // p, pa * p
    irreducible = []
    for e in range(1, m1 + 1):
        if m1 % e == 0:
            d = next(d for d in range(1, e + 1) if pow(p, d, e) == 1 % e)
            phi = [c % p for c in cyclotomic_poly(e)]
            irreducible += _equal_degree_split(phi, d, p)
    powers = []
    for g in irreducible:
        power = [1]
        for _ in range(pa):
            power = _pmul(power, g, p)
        powers.append(power)
    powers.sort(key=lambda g: (len(g), g[::-1]))
    mod = p**k
    rest = [(-1) % mod] + [0] * (m - 1) + [1]
    lifted = []
    for g in powers[:-1]:
        h = _pdivmod(rest, g, p)[0]
        G, rest = _hensel_lift(rest, g, h, p, k)
        lifted.append(tuple(G))
    lifted.append(tuple(rest))
    return tuple(lifted)


def power_residues(F, count: int, mod: int) -> np.ndarray:
    """(count, deg F) array of the coefficients of x^a mod (F, mod) for a in
    range(count), F monic with integer coefficients, low degree first."""
    n = len(F) - 1
    cur = [1] + [0] * (n - 1)
    out = []
    for _ in range(count):
        out.append(cur)
        top = cur[-1]
        # x * cur, with x^n = -(F_0 + ... + F_(n-1) x^(n-1)).
        cur = [(lo - top * f) % mod for lo, f in zip([0] + cur[:-1], F)]
    return np.array(out, dtype=object)


@lru_cache(maxsize=None)
def _zeta_powers(e: int, modulus: int) -> np.ndarray:
    """x^w mod (Phi_e(x), modulus) for w in range(e); shape (e, phi(e))."""
    return frozen(power_residues(cyclotomic_poly(e), e, modulus))


@dataclass(frozen=True, eq=False)
class CyclotomicElement(ArrayValue):
    """Element of (Z/p^k)[x]/Phi_e(x) tensored with the truncated T-part."""

    modulus: int
    e: int
    coeffs: np.ndarray  # shape (phi(e), t_size)

    def __post_init__(self):
        self.coeffs.flags.writeable = False

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
    for t in itertools.product(*(range(m) for m in spec.orders)):
        yield Character(spec, t)


@lru_cache(maxsize=None)
def _character_table(spec: GroupRingSpec) -> np.ndarray:
    """(|G| * phi(e), |G|) table of every character on the group monomials,
    e = lcm(orders), in ``residue_dtype(p^k, |G|)``: row block t, for the
    characters t in ``all_characters`` order, holds the (phi(e), |G|)
    coefficients of zeta_e^W_t(a) over the group monomials a, with
    W_t(a) = sum_i (e / m_i) * t_i * a_i mod e."""
    e = reduce(math.lcm, spec.orders, 1)
    G = spec.group_size
    dtype = residue_dtype(spec.modulus, inner=G)
    # W as outer sums over the axes, the characters and the monomials both
    # in product order, the last axis fastest.
    W = np.zeros((1, 1), dtype=np.int64)
    for m in spec.orders:
        step = (e // m) * np.multiply.outer(np.arange(m), np.arange(m))
        W = ((W[:, None, :, None] + step[None, :, None, :]) % e).reshape(len(W) * m, -1)
    zpow = _zeta_powers(e, spec.modulus).astype(dtype)[W]
    return frozen(np.ascontiguousarray(zpow.transpose(0, 2, 1).reshape(-1, G)))


def char_eval(chi: Character, x: RingElement) -> CyclotomicElement:
    """Substitute chi(delta_i) for delta_i, keeping the T variables.

    The group monomial delta^a goes to zeta_e^W(a), with
    W(a) = sum_i (e / m_i) * t_i * a_i mod e, so the value is one product
    of chi's (phi(e), |G|) block of ``_character_table`` with the
    (|G|, N^d) coefficients of x.
    """
    spec = x.spec
    if spec != chi.spec:
        raise SpecMismatchError("character and element specs differ")
    table = _character_table(spec)
    G = spec.group_size
    phi = len(table) // G
    # chi's index in ``all_characters`` order, the last axis fastest.
    t = 0
    for ti, m in zip(chi.exponents, spec.orders):
        t = t * m + ti
    block = table[t * phi:(t + 1) * phi]
    out = block @ x.coeffs.reshape(G, -1).astype(table.dtype, copy=False) % spec.modulus
    return CyclotomicElement(spec.modulus, chi.e, out)
