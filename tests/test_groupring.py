"""Ring arithmetic, homomorphisms and characters of the truncated group ring."""

from itertools import product
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwafit import (
    GroupRingSpec,
    all_characters,
    apply_hom,
    augmentation,
    char_eval,
    const,
    cyclotomic_poly,
    delta,
    from_vector,
    group_like,
    make_element,
    mul,
    norm_element,
    one,
    quotient_hom,
    tvar,
    twist_hom,
    zero,
)
from iwafit.groupring import along_axes, multiplication_rows
from iwafit.linalg import residue_dtype

from conftest import random_element
from referees import char_eval_naive


def naive_mul(x, y):
    """Dictionary convolution over exponent tuples, reducing group exponents
    mod the orders and dropping T-degrees at N."""
    spec = x.spec
    acc = {}
    for ex, cx in x.terms():
        for ey, cy in y.terms():
            key = []
            dead = False
            for axis, (a, b) in enumerate(zip(ex, ey)):
                if axis < spec.s:
                    key.append((a + b) % spec.orders[axis])
                else:
                    t = a + b
                    if t >= spec.N:
                        dead = True
                        break
                    key.append(t)
            if dead:
                continue
            key = tuple(key)
            acc[key] = (acc.get(key, 0) + cx * cy) % spec.modulus
    return make_element(spec, list(acc.items()))


SPECS = [
    GroupRingSpec(3, 2, (3,), 1, 3),
    GroupRingSpec(3, 3, (3, 9), 1, 3),
    GroupRingSpec(5, 2, (), 2, 3),
    GroupRingSpec(3, 2, (4,), 1, 3),
    GroupRingSpec(3, 45, (3,), 1, 3),  # object-dtype coefficient path
]


@pytest.mark.parametrize("spec", SPECS)
def test_mul_matches_naive_convolution(spec, rng):
    for _ in range(25):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        assert mul(x, y) == naive_mul(x, y)


def test_ring_axioms(rng):
    spec = GroupRingSpec(3, 3, (3, 2), 1, 3)
    for _ in range(1000):
        x, y, z = (random_element(spec, rng) for _ in range(3))
        assert mul(x, y) == mul(y, x)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, y + z) == mul(x, y) + mul(x, z)
        assert mul(x, one(spec)) == x
        assert mul(x, zero(spec)).is_zero()


def test_group_relations():
    spec = GroupRingSpec(3, 4, (3, 9), 2, 4)
    assert delta(spec, 1) ** 3 == one(spec)
    assert delta(spec, 2) ** 9 == one(spec)
    assert (tvar(spec, 1) ** 4).is_zero()
    assert (tvar(spec, 2) ** 4).is_zero()
    assert tvar(spec, 1) ** 3 == make_element(spec, [((0, 0, 3, 0), 1)])


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupRingSpec(2, 4, (3,), 1, 3)  # p must be odd
    with pytest.raises(ValueError):
        GroupRingSpec(9, 2, (3,), 1, 3)  # p must be prime
    with pytest.raises(ValueError):
        GroupRingSpec(3, 0, (3,), 1, 3)
    with pytest.raises(ValueError):
        GroupRingSpec(3, 2, (1,), 1, 3)  # cyclic order must be >= 2
    with pytest.raises(ValueError):
        GroupRingSpec(3, 2, (3,), 1, 0)


def test_norm_annihilates_augmentation_kernel():
    spec = GroupRingSpec(3, 3, (3, 9), 1, 3)
    n1 = norm_element(spec, [1])
    assert mul(n1, delta(spec, 1) - one(spec)).is_zero()
    nfull = norm_element(spec)
    assert mul(nfull, delta(spec, 2) - one(spec)).is_zero()
    assert not mul(nfull, tvar(spec, 1)).is_zero()


def test_augmentation_is_multiplicative(rng):
    spec = GroupRingSpec(3, 3, (3, 2), 1, 3)
    for _ in range(50):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        assert augmentation(mul(x, y)) == mul(augmentation(x), augmentation(y))
    assert augmentation(norm_element(spec)) == const(augmentation(zero(spec)).spec, 6)


@pytest.mark.parametrize("hom_factory", [
    lambda spec: quotient_hom(spec, kill_delta=(1,)),
    lambda spec: quotient_hom(spec, kill_t=(1,)),
    lambda spec: twist_hom(spec, (10, 4), (1,)),
])
def test_homs_are_multiplicative(hom_factory, rng):
    spec = GroupRingSpec(3, 3, (3, 27), 1, 3)
    h = hom_factory(spec)
    for _ in range(40):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        assert apply_hom(h, mul(x, y)) == mul(apply_hom(h, x), apply_hom(h, y))
        assert apply_hom(h, x + y) == apply_hom(h, x) + apply_hom(h, y)
    assert apply_hom(h, one(spec)) == one(h.target)


# One spec per side of each dtype boundary of the per-axis matrices:
# 3^19 has object coefficients but int64 matrices up to three columns,
# every matrix at 7^11 but a one-column one is object (2 * 7^22 > 2^62),
# and 3^21 is object throughout.
DTYPE_SPECS = {
    "3^3": GroupRingSpec(3, 3, (3, 2), 1, 3),
    "3^19": GroupRingSpec(3, 19, (3, 2), 1, 3),
    "7^11": GroupRingSpec(7, 11, (6,), 1, 2),
    "3^21": GroupRingSpec(3, 21, (3, 2), 1, 2),
}
PRIMITIVE_ROOTS = {3: 2, 7: 3}  # generate (Z/p^k)^x for every k


def root_of_unity(spec, m):
    """A unit of order dividing m mod p^k: a twist value for an order-m axis."""
    units = (spec.p - 1) * spec.p ** (spec.k - 1)
    return pow(PRIMITIVE_ROOTS[spec.p], units // gcd(m, units), spec.modulus)


@pytest.mark.parametrize("name", sorted(DTYPE_SPECS))
@pytest.mark.parametrize("kind", ["kill-delta", "kill-t", "twist"])
def test_homs_are_multiplicative_at_dtype_boundaries(kind, name, rng):
    spec = DTYPE_SPECS[name]
    if kind == "kill-delta":
        h = quotient_hom(spec, kill_delta=(1,))
    elif kind == "kill-t":
        h = quotient_hom(spec, kill_t=(1,))
    else:
        h = twist_hom(spec, tuple(root_of_unity(spec, m) for m in spec.orders), (1,))
    for _ in range(20):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        assert apply_hom(h, mul(x, y)) == mul(apply_hom(h, x), apply_hom(h, y))
        assert apply_hom(h, x + y) == apply_hom(h, x) + apply_hom(h, y)
        assert apply_hom(h, x).coeffs.dtype == h.target.dtype()
    assert apply_hom(h, one(spec)) == one(h.target)


# Object-dtype rings whose quotients have int64 coefficients.
@pytest.mark.parametrize("spec, kill_delta, kill_t", [
    (GroupRingSpec(3, 19, (3,), 1, 4), (), (1,)),
    (GroupRingSpec(3, 19, (3,), 1, 3), (1,), ()),
    (GroupRingSpec(3, 19, (3, 3), 1, 2), (1, 2), ()),
])
def test_quotient_images_take_the_target_dtype(spec, kill_delta, kill_t, rng):
    h = quotient_hom(spec, kill_delta, kill_t)
    for _ in range(20):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        image = apply_hom(h, x)
        assert image.coeffs.dtype == h.target.dtype()
        assert apply_hom(h, mul(x, y)) == mul(image, apply_hom(h, y))
        if len(kill_delta) == spec.s and not kill_t:
            assert augmentation(x) == image
            assert augmentation(x).coeffs.dtype == h.target.dtype()
            assert augmentation(mul(x, y)) == mul(augmentation(x), augmentation(y))


def along_axes_naive(spec, coeffs, mats):
    """``along_axes`` one coefficient at a time in Python ints."""
    terms = {idx: int(c) for idx, c in zip(np.ndindex(spec.radices), coeffs)}
    shape = list(spec.radices)
    for axis, mat in enumerate(mats):
        if mat is None:
            continue
        out = {}
        for idx, c in terms.items():
            for o in range(mat.shape[0]):
                key = idx[:axis] + (o,) + idx[axis + 1:]
                out[key] = out.get(key, 0) + int(mat[o, idx[axis]]) * c
        terms = out
        shape[axis] = mat.shape[0]
    result = np.zeros(shape, dtype=object)
    for idx, c in terms.items():
        result[idx] = c % spec.modulus
    return result


@pytest.mark.parametrize("name", sorted(DTYPE_SPECS))
def test_along_axes_matches_python_ints(name, rng):
    """Random and all-maximal entries, with matrices that shrink, keep and
    grow each axis: the dtype must follow the summed length r_in."""
    spec = DTYPE_SPECS[name]
    mod = spec.modulus
    for fill in ("random", "top"):
        for r_out in (1, 2, 4):
            if fill == "top":
                x = from_vector(spec, np.full(spec.size, mod - 1, dtype=object))
                mats = [np.full((r_out, r), mod - 1, dtype=object) for r in spec.radices]
            else:
                x = random_element(spec, rng)
                mats = [np.array([int.from_bytes(rng.bytes(16), "little") % mod
                                  for _ in range(r_out * r)], dtype=object).reshape(r_out, r)
                        for r in spec.radices]
            for keep in range(len(mats)):
                chosen = [mat if axis != keep else None for axis, mat in enumerate(mats)]
                got = along_axes(spec, x.coeffs, chosen)
                assert np.array_equal(got, along_axes_naive(spec, x.coeffs, chosen))


@pytest.mark.parametrize("name", sorted(DTYPE_SPECS))
def test_along_axes_on_a_stack_matches_each_row(name, rng):
    """Leading batch axes: a stack gives each row's single-element result
    and dtype, for quotient homs (1 x m matrices), a twist and random
    non-square matrices, with zero and repeated rows and an empty stack."""
    spec = DTYPE_SPECS[name]
    mod = spec.modulus
    xs = [random_element(spec, rng) for _ in range(4)]
    stack = np.stack([x.coeffs for x in xs + [zero(spec), xs[1]]])
    random_mats = [np.array([int.from_bytes(rng.bytes(16), "little") % mod
                             for _ in range(2 * r)], dtype=object).reshape(2, r)
                   for r in spec.radices]
    for mats in (quotient_hom(spec, kill_delta=(1,)).mats, quotient_hom(spec, kill_t=(1,)).mats,
                 twist_hom(spec, tuple(root_of_unity(spec, m) for m in spec.orders), (1,)).mats,
                 random_mats, random_mats[:1] + [None] * (len(random_mats) - 1)):
        rows = [along_axes(spec, row, mats) for row in stack]
        got = along_axes(spec, stack, mats)
        assert got.shape == (len(stack),) + rows[0].shape
        for g, r in zip(got, rows):
            assert g.dtype == r.dtype and np.array_equal(g, r)
        square = along_axes(spec, stack[:4].reshape(2, 2, spec.size), mats)
        assert np.array_equal(square.reshape(got[:4].shape), got[:4])
        empty = along_axes(spec, stack[:0], mats)
        assert empty.shape == (0,) + rows[0].shape and empty.dtype == rows[0].dtype


def test_along_axes_sizes_the_dtype_by_the_largest_entry(rng):
    """Mod 3^21 a matrix of binomials (entries <= 70, like the printer's
    tau-basis change) is applied in int64, a matrix with an entry p^k - 1
    in Python ints; both give the Python-int values, on maximal entries too."""
    spec = GroupRingSpec(3, 21, (9,), 1, 2)
    mod = spec.modulus
    assert residue_dtype(mod, 9, factor=70) is np.int64
    assert residue_dtype(mod, 9) is object
    binomials = np.array([[comb(b, i) for b in range(9)] for i in range(9)], dtype=object)
    near = binomials.copy()
    near[0, 8] = mod - 1
    top = np.full(spec.size, mod - 1, dtype=object)
    for coeffs in (random_element(spec, rng).coeffs, top):
        for mat, dtype in ((binomials, np.int64), (near, object)):
            got = along_axes(spec, coeffs, [mat])
            assert got.dtype == dtype
            assert np.array_equal(got, along_axes_naive(spec, coeffs, [mat]))


def test_gamma_twist_multiplicative_below_truncation(rng):
    # the T-substitution is an exact hom of the untruncated ring, so the
    # hom property holds whenever the product stays below T-degree N
    spec = GroupRingSpec(3, 3, (3,), 1, 5)
    h = twist_hom(spec, (1,), (7,))
    for _ in range(40):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        x = x - make_element(spec, [(e, c) for e, c in x.terms() if e[spec.s] > 2])
        y = y - make_element(spec, [(e, c) for e, c in y.terms() if e[spec.s] > 1])
        assert apply_hom(h, mul(x, y)) == mul(apply_hom(h, x), apply_hom(h, y))


def untwist(spec, delta_values, gamma_values):
    """The twist by the inverse values, built as ``euler_factor_direct``
    builds its untwist."""
    mod = spec.modulus
    return twist_hom(spec, tuple(pow(v, -1, mod) for v in delta_values),
                     tuple(pow(v, -1, mod) for v in gamma_values))


def test_twist_inverse_roundtrip(rng):
    spec = GroupRingSpec(3, 3, (3,), 2, 4)
    h = twist_hom(spec, (10,), (4, 7))
    hinv = untwist(spec, (10,), (4, 7))
    for _ in range(30):
        x = random_element(spec, rng)
        assert apply_hom(hinv, apply_hom(h, x)) == x


@pytest.mark.parametrize("name", sorted(DTYPE_SPECS))
def test_twist_inverse_roundtrip_at_dtype_boundaries(name, rng):
    spec = DTYPE_SPECS[name]
    values = tuple(root_of_unity(spec, m) for m in spec.orders), (1 + spec.p,)
    h = twist_hom(spec, *values)
    hinv = untwist(spec, *values)
    for _ in range(20):
        x = random_element(spec, rng)
        assert apply_hom(hinv, apply_hom(h, x)) == x


def test_twist_composes(rng):
    # the twist by v^2 is the twist by v applied twice, and the identity
    # twist fixes everything
    spec = GroupRingSpec(3, 3, (3,), 1, 4)
    once = twist_hom(spec, (10,), (4,))
    twice = twist_hom(spec, (100,), (16,))
    identity = twist_hom(spec, (1,), (1,))
    for _ in range(30):
        x = random_element(spec, rng)
        assert apply_hom(once, apply_hom(once, x)) == apply_hom(twice, x)
        assert apply_hom(identity, x) == x


def test_homs_compare_by_their_matrices():
    spec = GroupRingSpec(3, 3, (3,), 1, 4)
    h = twist_hom(spec, (10,), (4,))
    assert h == twist_hom(spec, (10,), (4,))
    assert h != twist_hom(spec, (10,), (7,))
    assert h != twist_hom(spec, (19,), (4,))
    assert quotient_hom(spec, kill_delta=(1,)) != quotient_hom(spec, kill_t=(1,))
    assert quotient_hom(spec, kill_t=(1,)) == quotient_hom(spec, kill_t=(1,))
    # the matrices are read-only: every twist by u shares one cached
    # T-substitution matrix, which a write would change for all of them
    for mat in h.mats:
        with pytest.raises(ValueError):
            mat[0, 0] = 0
    assert h == twist_hom(spec, (10,), (4,))


def test_twist_on_group_like_elements():
    # a twist by unit values sends the group-like delta^a (1+T)^c to
    # v^a u^c times itself
    spec = GroupRingSpec(3, 3, (3,), 1, 4)
    h = twist_hom(spec, (10,), (5,))
    g = group_like(spec, (2,), (1,))
    assert apply_hom(h, g) == g * (pow(10, 2, 27) * 5 % 27)


def test_twist_rejects_bad_values():
    spec = GroupRingSpec(3, 3, (3,), 1, 4)
    with pytest.raises(ValueError):
        twist_hom(spec, (4,), (1,))  # 4^3 != 1 mod 27
    with pytest.raises(ValueError):
        twist_hom(spec, (1,), (3,))  # not a unit


def test_multiplication_rows_agree_with_mul(rng):
    spec = GroupRingSpec(3, 2, (3, 2), 1, 3)
    for _ in range(10):
        x = random_element(spec, rng)
        rows = multiplication_rows(spec, x.coeffs)
        for i in range(spec.size):
            basis = from_vector(spec, np.eye(spec.size, dtype=np.int64)[i])
            assert from_vector(spec, rows[i]) == mul(x, basis)


MUL_ROWS_SPECS = {
    "int64": GroupRingSpec(3, 2, (3, 2), 1, 3),
    "k21-object": GroupRingSpec(3, 21, (3,), 1, 2),
    "trivial": GroupRingSpec(5, 3, (), 2, 3),
}


@pytest.mark.parametrize("name", sorted(MUL_ROWS_SPECS))
def test_multiplication_rows_of_a_stack_match_each_row(name, rng):
    """Stacks of shape (0, B), (n, B) and (2, 3, B), with zero and repeated
    rows: each matrix is that row's alone, whose row i is x * b_i."""
    spec = MUL_ROWS_SPECS[name]
    B = spec.size
    xs = [random_element(spec, rng) for _ in range(3)]
    xs += [zero(spec), xs[0], tvar(spec, 1), xs[2]]
    basis = [from_vector(spec, row) for row in np.eye(B, dtype=np.int64)]
    alone = [multiplication_rows(spec, x.coeffs) for x in xs]
    for x, rows in zip(xs, alone):
        assert rows.shape == (B, B) and rows.dtype == spec.dtype()
        assert all(from_vector(spec, row) == mul(x, b) for row, b in zip(rows, basis))
    stack = np.stack([x.coeffs for x in xs])
    got = multiplication_rows(spec, stack)
    assert got.shape == (len(xs), B, B) and got.dtype == spec.dtype()
    assert all(np.array_equal(g, rows) for g, rows in zip(got, alone))
    square = multiplication_rows(spec, stack[:6].reshape(2, 3, B))
    assert square.shape == (2, 3, B, B) and np.array_equal(square.reshape(6, B, B), got[:6])
    empty = multiplication_rows(spec, stack[:0])
    assert empty.shape == (0, B, B) and empty.dtype == spec.dtype()


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    for n in range(1, 13):
        # product of Phi_d over divisors d of n is x^n - 1
        prod = np.array([1], dtype=object)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = np.polymul(prod, np.array(cyclotomic_poly(d)[::-1], dtype=object))
        expected = [-1] + [0] * (n - 1) + [1]
        assert list(prod[::-1]) == expected


def test_characters_detect_norms():
    spec = GroupRingSpec(3, 3, (3, 2), 1, 3)
    chars = list(all_characters(spec))
    assert len(chars) == 6
    nfull = norm_element(spec)
    for chi in chars:
        v = char_eval(chi, nfull)
        if chi.is_trivial():
            assert not v.is_zero()
        else:
            assert v.is_zero()


def test_char_eval_is_additive(rng):
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    chi = [c for c in all_characters(spec) if not c.is_trivial()][0]
    for _ in range(20):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        lhs = char_eval(chi, x + y)
        import numpy as _np

        rhs_coeffs = (char_eval(chi, x).coeffs + char_eval(chi, y).coeffs) % spec.modulus
        assert _np.array_equal(lhs.coeffs, rhs_coeffs)


@pytest.mark.parametrize("spec", [
    GroupRingSpec(5, 4, (5, 4), 1, 2),  # prime-to-p part splits over Z_5
    GroupRingSpec(3, 3, (3, 9), 1, 2),  # a p-group
    GroupRingSpec(3, 2, (), 2, 3),  # the trivial group
    GroupRingSpec(3, 21, (3, 2), 1, 3),  # Python-int coefficients
], ids=lambda spec: f"p{spec.p}k{spec.k}orders{spec.orders}")
def test_char_eval_matches_monomial_walk(spec):
    chars = list(all_characters(spec))
    G = spec.group_size

    @settings(max_examples=25, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), which=st.integers(0, len(chars) - 1),
           density=st.sampled_from([0.0, 0.3, 1.0]))
    def check(seed, which, density):
        rng = np.random.default_rng(seed)
        # Whole group rows zero or dense, and some coefficients at mod - 1.
        coeffs = random_element(spec, rng).coeffs.reshape(G, -1).copy()
        coeffs[rng.random(G) >= density] = 0
        coeffs[rng.random(coeffs.shape) < 0.2] = spec.modulus - 1
        x = from_vector(spec, coeffs.ravel())
        chi = chars[which]
        assert char_eval(chi, x) == char_eval_naive(chi, x)

    check()


def test_cached_spec_values_stay_out_of_identity():
    fresh = GroupRingSpec(3, 2, (3,), 1, 4)
    used = GroupRingSpec(3, 2, (3,), 1, 4)
    assert (used.radices, used.size, used.dtype()) == ((3, 4), 12, np.int64)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert GroupRingSpec(3, 21, (3,), 1, 4).dtype() is object
    assert GroupRingSpec(3, 2, (), 0, 4).size == 1
