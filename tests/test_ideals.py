"""Canonical forms, ideal arithmetic and non-zero-divisor certificates."""

import pytest

from iwafit import (
    FractionalIdeal,
    GroupRingSpec,
    Ideal,
    SpecMismatchError,
    const,
    delta,
    frac_equal,
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
from iwafit.ideals import nzd_status

from conftest import random_element


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
