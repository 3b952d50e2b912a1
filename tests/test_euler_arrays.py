"""Non-zero-divisor certificates from one character table, and the Euler
factors' constants built as whole arrays.

``nzd_certificate`` is held to ``referees.nzd_certificate_by_characters``,
which evaluates one character at a time by walking the group monomials;
``norm_element`` and ``group_like`` are held to builders by ``mul`` and
``__pow__``; the untwist of ``euler_factor_direct``, one ``apply_hom`` call
on a stack, is held to ``apply_hom`` one element at a time.  The Euler
factors' constructions are counted: they call neither ``char_eval`` nor
``mul``.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwafit import (
    FracVerdict,
    GroupRingSpec,
    ShiftRequest,
    apply_hom,
    delta,
    euler_character,
    frac_equal,
    from_vector,
    group_like,
    norm_element,
    nzd_certificate,
    one,
    shift_trivial,
    twist_hom,
    zero,
)
from iwafit import apps, groupring, paperchecks
from iwafit.groupring import _character_table

from conftest import random_element
from referees import (
    frac_equal_by_products,
    group_like_by_products,
    norm_element_by_products,
    nzd_certificate_by_characters,
)

CERTIFICATE_SPECS = {
    "trivial-group": GroupRingSpec(3, 2, (), 1, 3),
    # Phi_8 is reducible over Q_3 and Phi_4 is not (the guard's test cases).
    "p3-m8-reducible": GroupRingSpec(3, 2, (8,), 1, 3),
    "p3-m4": GroupRingSpec(3, 2, (4,), 1, 3),
    "p3-3x27": GroupRingSpec(3, 2, (3, 27), 1, 2),
    "p3-3x2-k21-object": GroupRingSpec(3, 21, (3, 2), 1, 3),
    "p5-5x3": GroupRingSpec(5, 2, (5, 3), 1, 2),
}


def vanishing_element(spec, rng, signs):
    """sum_i r_i * (delta_i - c_i) for random r_i and c_i = -1 where
    ``signs`` picks it on an axis of even order, else 1: zero under the
    character with chi(delta_i) = c_i, and in general under no other."""
    x = zero(spec)
    for i, m in enumerate(spec.orders, 1):
        c = -1 if signs[i - 1] and m % 2 == 0 else 1
        x = x + random_element(spec, rng) * (delta(spec, i) - one(spec) * c)
    return x


@pytest.mark.parametrize("name", list(CERTIFICATE_SPECS))
def test_certificate_matches_characters_one_at_a_time(name):
    spec = CERTIFICATE_SPECS[name]
    G = spec.group_size

    @settings(max_examples=20, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["random", "sparse", "vanishing"]),
           signs=st.lists(st.booleans(), min_size=spec.s, max_size=spec.s))
    def check(seed, kind, signs):
        rng = np.random.default_rng(seed)
        if kind == "vanishing":
            x = vanishing_element(spec, rng, signs)
        else:
            x = random_element(spec, rng)
        if kind == "sparse":
            # Whole group rows zero, and the rest at T-degree 0 only.
            coeffs = x.coeffs.reshape(G, -1).copy()
            coeffs[rng.random(G) < 0.5] = 0
            coeffs[:, 1:] = 0
            x = from_vector(spec, coeffs.ravel())
        verdict = nzd_certificate(x)
        assert verdict == nzd_certificate_by_characters(x)
        if kind == "vanishing":
            assert verdict == "inconclusive"

    check()


def test_character_table_shape_and_dtype():
    # (|G| * phi(e), |G|): |G| = 6 and phi(6) = 2 for orders (3, 2).
    assert _character_table(GroupRingSpec(3, 2, (3, 2), 1, 3)).shape == (12, 6)
    assert _character_table(GroupRingSpec(3, 2, (3, 2), 1, 3)).dtype == np.int64
    assert _character_table(GroupRingSpec(3, 21, (3, 2), 1, 3)).dtype == object
    assert _character_table(GroupRingSpec(3, 2, (), 1, 3)).tolist() == [[1]]


def spec_id(spec):
    return f"p{spec.p}k{spec.k}{spec.orders}d{spec.d}"


NORM_SPECS = [
    GroupRingSpec(3, 2, (), 1, 3),
    GroupRingSpec(3, 2, (3, 2), 0, 1),
    GroupRingSpec(5, 2, (5, 4), 1, 2),
    GroupRingSpec(3, 2, (3, 3, 2), 2, 2),
    GroupRingSpec(3, 21, (3, 2), 1, 3),
]


@pytest.mark.parametrize("spec", NORM_SPECS, ids=spec_id)
def test_norm_element_matches_products(spec):
    assert norm_element(spec) == norm_element_by_products(spec)

    @settings(max_examples=15, deadline=None, database=None)
    @given(subset=st.lists(st.integers(1, max(spec.s, 1)), max_size=4))
    def check(subset):
        if not spec.s:
            subset = []
        x = norm_element(spec, subset)
        assert x == norm_element_by_products(spec, subset)
        assert x.coeffs.dtype == spec.dtype()

    check()


@pytest.mark.parametrize("spec", NORM_SPECS, ids=spec_id)
def test_group_like_matches_products(spec):
    @settings(max_examples=15, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        a = data.draw(st.lists(st.integers(-20, 20), min_size=spec.s, max_size=spec.s))
        c = data.draw(st.lists(st.integers(0, spec.N + 12), min_size=spec.d, max_size=spec.d))
        x = group_like(spec, a, c)
        assert x == group_like_by_products(spec, a, c)
        assert x.coeffs.dtype == spec.dtype()

    check()


def test_group_like_rejects_bad_exponents():
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        group_like(spec, (1,), (-1,))
    with pytest.raises(ValueError, match="arity"):
        group_like(spec, (1, 0), (1,))


@pytest.mark.parametrize("spec", [GroupRingSpec(3, 3, (3, 2), 1, 4),
                                  GroupRingSpec(3, 21, (3,), 2, 3)], ids=["int64", "k21-object"])
def test_apply_hom_on_a_stack_matches_each_element(spec, rng):
    # 1 + p^(k-1) has order p, and -1 order 2, modulo p^k.
    mod = spec.modulus
    h = twist_hom(spec, tuple(1 + spec.p ** (spec.k - 1) if m % spec.p == 0 else mod - 1
                              for m in spec.orders), (1 + spec.p,) * spec.d)
    elements = [random_element(spec, rng) for _ in range(6)]
    stack = np.array([x.coeffs for x in elements], spec.dtype())
    for rows in (stack, stack.reshape(2, 3, spec.size), stack[:0]):
        images = apply_hom(h, rows)
        assert images.shape == rows.shape and images.dtype == spec.dtype()
        expected = [apply_hom(h, from_vector(spec, row)).coeffs
                    for row in rows.reshape(-1, spec.size)]
        assert np.array_equal(images.reshape(-1, spec.size),
                              np.array(expected, spec.dtype()).reshape(-1, spec.size))


@pytest.mark.parametrize("index", range(12))
def test_euler_factor_direct_untwists_as_each_element(index):
    data = paperchecks.euler_grid(k=3, N=4)[index]
    spec = data.local
    mod = spec.modulus
    base = shift_trivial(ShiftRequest(spec, -1))
    delta_values, gamma_value = euler_character(data)
    untwist = twist_hom(spec, tuple(pow(v, -1, mod) for v in delta_values),
                        (pow(gamma_value, -1, mod),))
    direct = apps.euler_factor_direct(data, assume_nzd=True)
    assert direct.numerator.generators == tuple(apply_hom(untwist, g)
                                                for g in base.numerator.generators)
    assert direct.denominator == apply_hom(untwist, base.denominator)


@pytest.fixture
def work_calls(monkeypatch):
    """Calls of ``groupring.char_eval`` and ``groupring.mul``, counted on
    every iwafit module that binds them (``RingElement.__mul__`` and
    ``__pow__`` read ``groupring.mul``)."""
    calls = {"char_eval": 0, "mul": 0}
    for name in calls:
        original = getattr(groupring, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("iwafit") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("index", [6, 4])
def test_euler_factors_call_neither_char_eval_nor_mul(work_calls, index):
    """At p5-i1-m4-q2 (index 6) the certificate stops at the guard, and at
    p3-i3x3-m2-q2 (index 4) it evaluates all 18 characters in one product;
    neither route multiplies."""
    data = paperchecks.euler_grid()[index]
    closed = apps.euler_factor_closed(data, assume_nzd=True)
    direct = apps.euler_factor_direct(data, assume_nzd=True)
    assert work_calls == {"char_eval": 0, "mul": 0}
    verdict = frac_equal(closed, direct)
    assert verdict == frac_equal_by_products(closed, direct) == FracVerdict(True, 4)
    assert work_calls["char_eval"] == 0
