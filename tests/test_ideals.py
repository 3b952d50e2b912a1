"""Canonical forms, the CRT block key, ideal arithmetic and non-zero-divisor
certificates."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwafit import (
    FractionalIdeal,
    GroupRingSpec,
    Ideal,
    SpecMismatchError,
    const,
    delta,
    frac_equal,
    from_vector,
    frac_mul,
    ideal_equal,
    ideal_mul,
    ideal_pow,
    ideal_sum,
    integral,
    mul,
    norm_element,
    nzd_certificate,
    one,
    scale_ideal,
    tvar,
    unit_ideal,
    zero,
    zero_ideal,
)
from iwafit.groupring import _pmul, _pxgcd, crt_factors
from iwafit.ideals import _block_images, _split, nzd_status
from iwafit.linalg import _reduce

from conftest import random_element
from referees import back_substituted


def test_canonical_form_ignores_generator_presentation(rng):
    spec = GroupRingSpec(3, 3, (3,), 1, 4)
    for _ in range(30):
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        c = random_element(spec, rng)
        I = Ideal(spec, [a, b])
        # recombined generating sets span the same ideal
        J = Ideal(spec, [a + mul(c, b), b, zero(spec)])
        K = Ideal(spec, [mul(delta(spec, 1), a), b, a + b])
        assert ideal_equal(I, J)
        assert ideal_equal(I, K)


def test_canonical_detects_strict_inclusion():
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    t = tvar(spec, 1)
    I = Ideal(spec, [t])
    J = Ideal(spec, [t * t])
    assert not ideal_equal(I, J)
    assert I.contains(t * t)
    assert not J.contains(t)


def test_contains_matches_membership(rng):
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    gens = [random_element(spec, rng) for _ in range(2)]
    I = Ideal(spec, gens)
    for _ in range(20):
        r1, r2 = random_element(spec, rng), random_element(spec, rng)
        assert I.contains(mul(r1, gens[0]) + mul(r2, gens[1]))


def test_monoid_laws(rng):
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    for _ in range(10):
        I = Ideal(spec, [random_element(spec, rng)])
        J = Ideal(spec, [random_element(spec, rng), random_element(spec, rng)])
        K = Ideal(spec, [random_element(spec, rng)])
        assert ideal_equal(ideal_mul(I, J), ideal_mul(J, I))
        assert ideal_equal(ideal_mul(ideal_mul(I, J), K), ideal_mul(I, ideal_mul(J, K)))
        assert ideal_equal(ideal_mul(I, unit_ideal(spec)), I)
        assert ideal_equal(ideal_mul(I, zero_ideal(spec)), zero_ideal(spec))
        assert ideal_equal(ideal_sum(I, zero_ideal(spec)), I)
        # distributivity
        assert ideal_equal(ideal_mul(I, ideal_sum(J, K)),
                           ideal_sum(ideal_mul(I, J), ideal_mul(I, K)))
        assert ideal_equal(ideal_pow(J, 2), ideal_mul(J, J))
        assert ideal_equal(ideal_pow(J, 0), unit_ideal(spec))


def test_scale_ideal_is_principal_product(rng):
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    for _ in range(10):
        f = random_element(spec, rng)
        I = Ideal(spec, [random_element(spec, rng), random_element(spec, rng)])
        assert ideal_equal(scale_ideal(f, I), ideal_mul(Ideal(spec, [f]), I))


def test_spec_mismatch_rejected():
    s1 = GroupRingSpec(3, 2, (3,), 1, 3)
    s2 = GroupRingSpec(3, 2, (3,), 1, 4)
    with pytest.raises(SpecMismatchError):
        Ideal(s1, [one(s2)])
    with pytest.raises(SpecMismatchError):
        ideal_sum(unit_ideal(s1), unit_ideal(s2))
    with pytest.raises(SpecMismatchError):
        frac_equal(integral(unit_ideal(s1)), integral(unit_ideal(s2)))


def test_frac_equal_cross_multiplies():
    spec = GroupRingSpec(3, 3, (3,), 1, 5)
    t = tvar(spec, 1)
    n = norm_element(spec)
    # (n t, t^2) / t = (n, t) as fractional ideals
    X = FractionalIdeal(Ideal(spec, [n * t, t * t]), t, nzd_status(t))
    Y = integral(Ideal(spec, [n, t]))
    verdict = frac_equal(X, Y)
    assert verdict.equal
    assert verdict.certified_t_precision == spec.N - 1
    # and the verdict is symmetric
    assert frac_equal(Y, X).certified_t_precision == spec.N - 1


def test_frac_equal_unequal_is_exact():
    spec = GroupRingSpec(3, 3, (3,), 1, 5)
    t = tvar(spec, 1)
    X = FractionalIdeal(Ideal(spec, [t]), t, "certified")
    Y = integral(Ideal(spec, [t]))
    verdict = frac_equal(X, Y)
    assert not verdict.equal
    assert verdict.certified_t_precision is None


def test_frac_mul_multiplies_parts():
    spec = GroupRingSpec(3, 2, (3,), 1, 4)
    t = tvar(spec, 1)
    n = norm_element(spec)
    X = FractionalIdeal(Ideal(spec, [n]), t, "certified")
    Z = frac_mul(X, X)
    assert Z.denominator == t * t
    assert ideal_equal(Z.numerator, Ideal(spec, [n * n]))
    assert Z.nzd_status == "certified"
    W = frac_mul(X, FractionalIdeal(Ideal(spec, [n]), t, "assumed"))
    assert W.nzd_status == "assumed"


def test_fractional_ideal_rejects_zero_denominator():
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    with pytest.raises(ValueError):
        FractionalIdeal(unit_ideal(spec), zero(spec), "certified")


def test_nzd_certificate_cases():
    spec = GroupRingSpec(3, 3, (3,), 1, 4)
    t = tvar(spec, 1)
    tau = delta(spec, 1) - one(spec)
    # T is a unit times a non-zero-divisor in every character component
    assert nzd_certificate(t) == "certified"
    assert nzd_certificate(norm_element(spec) + t) == "certified"
    # tau dies in the trivial character component
    assert nzd_certificate(tau) == "inconclusive"
    assert nzd_certificate(const(spec, 3)) == "certified"
    assert nzd_certificate(zero(spec)) == "inconclusive"


def test_nzd_certificate_guards_reducible_cyclotomic():
    # Phi_8 factors over Q_3 (3 does not generate (Z/8)^x), so the character
    # criterion is not sound there and must report inconclusive.
    spec = GroupRingSpec(3, 2, (8,), 1, 3)
    assert nzd_certificate(tvar(spec, 1)) == "inconclusive"
    # whereas order 4 is fine for p = 3 (3 generates (Z/4)^x)
    ok = GroupRingSpec(3, 2, (4,), 1, 3)
    assert nzd_certificate(tvar(ok, 1)) == "certified"


def test_trivial_group_certificate():
    spec = GroupRingSpec(3, 2, (), 1, 3)
    assert nzd_certificate(tvar(spec, 1)) == "certified"
    assert nzd_certificate(zero(spec)) == "inconclusive"


def test_canonical_form_without_zero_rows_matches_full_stack(rng):
    """Dropping the rows that T-truncation zeroes leaves the Howell form as
    the kernel computes it from the full stacked multiplication matrices."""
    import numpy as np

    from iwafit.groupring import multiplication_rows
    from iwafit.linalg import howell_span_rows

    for spec in (GroupRingSpec(3, 3, (3,), 1, 4), GroupRingSpec(3, 21, (3,), 2, 3)):
        t = tvar(spec, 1)
        gens = [random_element(spec, rng) * t**2, t**3, random_element(spec, rng) * t]
        I = Ideal(spec, gens)
        full = np.vstack([multiplication_rows(g) for g in gens])
        assert not np.all(np.any(full != 0, axis=1))
        rows = howell_span_rows(spec.p, spec.k, spec.size, full)
        assert len(I.canonical.rows) == len(rows)
        assert all(np.array_equal(a, b) for a, b in zip(I.canonical.rows, rows))


# --------------------------------------------------------------------------
# Comparison one CRT block at a time, refereed by the unsplit canonical form

SPLIT_SPECS = {
    "p5-m4-full": GroupRingSpec(5, 2, (4,), 1, 2),
    "p3-m2-full": GroupRingSpec(3, 2, (2,), 1, 3),
    "p3-m4-partial": GroupRingSpec(3, 2, (4,), 1, 2),
    "p3-m6-mixed": GroupRingSpec(3, 2, (6,), 1, 2),
    "p5-m3": GroupRingSpec(5, 2, (3,), 1, 2),
    "p5-two-axes": GroupRingSpec(5, 2, (5, 4, 2), 1, 2),
    "p3-group": GroupRingSpec(3, 2, (3, 3), 1, 2),
    "p3-m4-k21-object": GroupRingSpec(3, 21, (4,), 1, 2),
    # Linear blocks whose CRT products sum six terms: mod^2 < 2^62 < 2^63 < 6 * mod^2.
    "p7-m6-k11": GroupRingSpec(7, 11, (6,), 1, 2),
}

# A factor of a generator: p, T_1, delta_i - c, a random element r, or
# T_1 + p*r, whose ideal need not be stable under the automorphisms of a
# block of degree 2.
FACTORS = st.one_of(
    st.just(("p",)), st.just(("t",)),
    st.tuples(st.just("delta"), st.integers(1, 3), st.integers(0, 4)),
    st.tuples(st.sampled_from(["random", "t+p*random"]), st.integers(0, 2**32 - 1)),
)
GENERATORS = st.lists(st.lists(FACTORS, max_size=3), min_size=1, max_size=3)


def build(spec, factors):
    x = one(spec)
    for f in factors:
        if f[0] == "p":
            x = x * spec.p
        elif f[0] == "t":
            x = x * tvar(spec, 1)
        elif f[0] == "delta":
            x = x * (delta(spec, (f[1] - 1) % spec.s + 1) - const(spec, f[2]))
        else:
            r = random_element(spec, np.random.default_rng(f[1]))
            x = x * (r if f[0] == "random" else tvar(spec, 1) + r * spec.p)
    return x


def canonical_contains(I, x):
    return _reduce(x.coeffs, I.canonical)


@pytest.mark.parametrize("name", sorted(SPLIT_SPECS))
def test_block_key_matches_canonical(name):
    spec = SPLIT_SPECS[name]

    @settings(max_examples=30, deadline=None, database=None)
    @given(gens_i=GENERATORS, gens_j=GENERATORS, member=st.lists(FACTORS, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def check(gens_i, gens_j, member, seed):
        I = Ideal(spec, [build(spec, g) for g in gens_i])
        J = Ideal(spec, [build(spec, g) for g in gens_j])
        # The same ideal from another generating set: equal by construction.
        rng = np.random.default_rng(seed)
        a = I.generators[0]
        K = Ideal(spec, [a + mul(random_element(spec, rng), b) for b in I.generators[1:]]
                  + [mul(random_element(spec, rng), a)] + list(I.generators[1:]) + [a])
        assert ideal_equal(I, K) and I.canonical == K.canonical
        assert ideal_equal(I, J) == (I.canonical == J.canonical)
        assert ideal_equal(ideal_sum(I, J), I) == (ideal_sum(I, J).canonical == I.canonical)
        x = build(spec, member)
        assert I.contains(x) == canonical_contains(I, x)
        assert J.contains(x) == canonical_contains(J, x)
        y = mul(x, a)
        assert I.contains(y) and canonical_contains(I, y)

    check()


def test_block_count():
    counts = {name: 1 if _split(spec) is None else len(_split(spec).blocks)
              for name, spec in SPLIT_SPECS.items()}
    assert counts == {"p5-m4-full": 4, "p3-m2-full": 2, "p3-m4-partial": 3,
                      "p3-m6-mixed": 2, "p5-m3": 2, "p5-two-axes": 8, "p3-group": 1,
                      "p3-m4-k21-object": 3, "p7-m6-k11": 6}
    spec = SPLIT_SPECS["p3-group"]
    I = Ideal(spec, [tvar(spec, 1)])
    assert tuple(back_substituted(E) for E in I.key) == (I.canonical,)


def test_crt_blocks_need_not_be_local():
    """x^4 - 1 = (x - 1)(x + 1)(x^2 + 1) mod 3, and the block of the two
    quadratic factors is F_9 (x) F_9 = F_9 x F_9 modulo 3, not a local ring:
    x - y is not zero there modulo 3, yet (x - y)(x + y) = x^2 - y^2 = 0, and
    (x - y) is neither 0 nor the whole block (Howell form of 2 rows in 4
    columns).  So a non-zero generator modulo the maximal ideal of a block
    need not make its ideal the whole block."""
    spec = GroupRingSpec(3, 2, (4, 4), 0, 1)
    split = _split(spec)
    b = split.blocks.index(((2, 2), (2, 2)))
    x, y = delta(spec, 1), delta(spec, 2)
    I = Ideal(spec, [x - y])
    assert back_substituted(I.key[b]).nrows == 2 and I.key[b].rows.shape == (2, 4)
    assert I.key[b].length == 2 * spec.k
    assert np.any(_block_images(spec, split, (x - y).coeffs)[b] % spec.p)
    assert not np.any(_block_images(spec, split, mul(x - y, x + y).coeffs)[b])


def test_block_key_with_maximal_coefficients():
    """Every coefficient p^k - 1, so each CRT product is as large as it can
    be: g = -(1 + T) * N(), which lives in the trivial-character block only."""
    spec = SPLIT_SPECS["p7-m6-k11"]
    g = from_vector(spec, np.full(spec.size, spec.modulus - 1, dtype=object))
    I = Ideal(spec, [g])
    N = Ideal(spec, [norm_element(spec)])
    assert ideal_equal(I, N) and I.canonical == N.canonical
    assert not ideal_equal(I, unit_ideal(spec))
    for x in (g, norm_element(spec), one(spec), delta(spec, 1) - one(spec), tvar(spec, 1), g * 7):
        assert I.contains(x) == canonical_contains(I, x)
    assert I.contains(tvar(spec, 1) * norm_element(spec))
    assert not I.contains(delta(spec, 1))


def factor_element(spec, axis, F):
    """F(delta_axis) as a ring element."""
    x = zero(spec)
    for a, c in enumerate(F):
        x = x + delta(spec, axis, a) * c
    return x


@pytest.mark.parametrize("name", sorted(n for n in SPLIT_SPECS if n != "p3-group"))
def test_every_block_decides(name):
    """(F_j(delta_i) : i) vanishes in exactly one block and is the whole
    ring in the others, so each block alone separates it from R."""
    spec = SPLIT_SPECS[name]
    split = _split(spec)
    factors = [crt_factors(spec.p, spec.k, spec.orders[axis]) for axis in split.axes]
    R = unit_ideal(spec)
    for choice in itertools.product(*(range(len(f)) for f in factors)):
        gens = [factor_element(spec, axis + 1, f[j])
                for axis, f, j in zip(split.axes, factors, choice)]
        I = Ideal(spec, gens)
        assert I.canonical != R.canonical
        assert not ideal_equal(I, R)
        assert not I.contains(one(spec))
        # Adding p^(k-1) changes the ideal in that block only.
        J = ideal_sum(I, Ideal(spec, [const(spec, spec.p ** (spec.k - 1))]))
        assert not ideal_equal(I, J)
        assert ideal_equal(I, J) == (I.canonical == J.canonical)
        assert not I.contains(const(spec, spec.p ** (spec.k - 1)))


@pytest.mark.parametrize("p,m,degrees", [
    (5, 4, [1, 1, 1, 1]), (3, 2, [1, 1]), (3, 4, [1, 1, 2]), (3, 6, [3, 3]),
    (5, 3, [1, 2]), (3, 8, [1, 1, 2, 2, 2]), (5, 12, [1, 1, 1, 1, 2, 2, 2, 2]),
    (3, 9, [9]), (5, 5, [5]), (7, 5, [1, 4]),
])
@pytest.mark.parametrize("k", [1, 2, 4, 21])
def test_crt_factors_lift_x_m_minus_1(p, m, degrees, k):
    mod = p**k
    factors = crt_factors(p, k, m)
    assert sorted(len(F) - 1 for F in factors) == degrees
    assert all(F[-1] == 1 and all(0 <= c < mod for c in F) for F in factors)
    product = [1]
    for F in factors:
        product = _pmul(product, list(F), mod)
    assert product == [mod - 1] + [0] * (m - 1) + [1]
    for F, G in itertools.combinations(factors, 2):
        assert _pxgcd(list(F), list(G), p)[0] == [1]


def test_crt_factors_of_mixed_order_are_exact():
    # x^6 - 1 = (x^3 - 1)(x^3 + 1) over Z, and mod 3 these are (x - 1)^3
    # and (x + 1)^3, so the Hensel lifts are these two at every k.
    for k in (1, 3, 21):
        mod = 3**k
        assert set(crt_factors(3, k, 6)) == {(mod - 1, 0, 0, 1), (1, 0, 0, 1)}
