"""Unit factors cancelled block by block in ``frac_equal``.

``frac_equal`` is held to ``referees.frac_equal_by_products``, which builds
both cross-products in the whole ring; the block unit test ``_units`` is
held to the length of the block ideal that one element generates, from
``referees.stacked_key``'s kernel pass (a unit generates the whole block,
of length k times its width); and the kernel calls the cancellation saves
are counted.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iwafit import (
    FractionalIdeal,
    FracVerdict,
    GroupRingSpec,
    Ideal,
    const,
    delta,
    frac_equal,
    ideal_equal,
    mul,
    one,
    scale_ideal,
    tvar,
    zero,
)
from iwafit import apps, ideals, linalg, paperchecks
from iwafit.ideals import _block_images, _split, _units

from referees import frac_equal_by_products, stacked_key
from test_ideals import FACTORS, SPLIT_SPECS, build

# Two quadratic factors of x^4 - 1 mod 3 on each axis: their block is
# F_9 (x) F_9 = F_9 x F_9 modulo 3, not a local ring.
F9_SQUARED = GroupRingSpec(3, 2, (4, 4), 1, 2)
FRAC_SPECS = dict(SPLIT_SPECS, **{"p3-m4x4": F9_SQUARED})

# Factors that are units in many blocks: a constant prime to p, and
# delta_i - c with c not 1 mod p, a unit wherever delta_i is 1 mod the
# block's maximal ideals (every p-power axis, every block of the factor x - 1).
UNIT_FACTORS = st.one_of(
    st.tuples(st.just("unit"), st.integers(0, 2**16), st.integers(0, 5)),
    st.tuples(st.just("delta-unit"), st.integers(1, 3), st.integers(0, 5), st.integers(0, 5)),
)
FRAC_FACTORS = st.one_of(FACTORS, UNIT_FACTORS)
ELEMENT = st.lists(FRAC_FACTORS, max_size=3)
NUMERATOR = st.lists(ELEMENT, min_size=1, max_size=3)


def build_with_units(spec, factors):
    x = one(spec)
    for f in factors:
        p = spec.p
        if f[0] == "unit":
            x = x * (f[1] * p + 1 + f[2] % (p - 1))
        elif f[0] == "delta-unit":
            c = f[2] * p + (2 + f[3] % (p - 1)) % p
            x = mul(x, delta(spec, (f[1] - 1) % spec.s + 1) - const(spec, c))
        else:
            x = mul(x, build(spec, [f]))
    return x


@pytest.mark.parametrize("name", sorted(FRAC_SPECS))
def test_frac_equal_matches_products(name):
    """Verdict and certified precision agree with the cross-products on
    free draws and on draws equal by construction, h*I/(h*f) against I/f."""
    spec = FRAC_SPECS[name]

    @settings(max_examples=25, deadline=None, database=None)
    @given(gens_a=NUMERATOR, gens_b=NUMERATOR, f=ELEMENT, g=ELEMENT, scaled=st.booleans())
    def check(gens_a, gens_b, f, g, scaled):
        f = build_with_units(spec, f)
        assume(not f.is_zero())
        X = FractionalIdeal(Ideal(spec, [build_with_units(spec, a) for a in gens_a]), f)
        if scaled:
            h = build_with_units(spec, g)
            assume(not mul(h, f).is_zero())
            Y = FractionalIdeal(scale_ideal(h, X.numerator), mul(h, f))
        else:
            g = build_with_units(spec, g)
            assume(not g.is_zero())
            Y = FractionalIdeal(Ideal(spec, [build_with_units(spec, b) for b in gens_b]), g)
        verdict = frac_equal(X, Y)
        assert verdict == frac_equal_by_products(X, Y)
        assert frac_equal(Y, X) == frac_equal_by_products(Y, X)
        assert verdict.equal or not scaled

    check()


def units_by_length(spec, xs):
    """Per block, whether each element's image generates the whole block."""
    keys = [stacked_key(Ideal(spec, [x])) for x in xs]
    return [[key[b].length == spec.k * key[b].ncols for key in keys]
            for b in range(len(_split(spec).blocks))]


def units_by_residue(spec, xs):
    split = _split(spec)
    images = _block_images(spec, split, np.array([x.coeffs for x in xs], spec.dtype()))
    return [_units(split, block, stack).tolist() for block, stack in zip(split.blocks, images)]


UNIT_SPECS = ["p5-m4-full", "p3-m4-partial", "p3-m6-mixed", "p3-group", "p3-m4-k21-object",
              "p3-m4x4"]


@pytest.mark.parametrize("name", UNIT_SPECS)
def test_block_units_match_whole_block_ideals(name):
    """On linear blocks, the quadratic block of x^4 - 1 mod 3, the cubic
    blocks of x^6 - 1 mod 3, p-power axes, the F_9 x F_9 blocks and Python
    int residues, one ``_units`` call per block on a stack of images
    answers as the block ideals' lengths do."""
    spec = FRAC_SPECS[name]

    @settings(max_examples=20, deadline=None, database=None)
    @given(elements=st.lists(ELEMENT, min_size=1, max_size=4))
    def check(elements):
        xs = [build_with_units(spec, e) for e in elements]
        assert units_by_residue(spec, xs) == units_by_length(spec, xs)

    check()


def test_units_of_a_block_that_is_not_local():
    """In the block of the quadratic factors, x - y and x + y are zero in
    one field factor of F_9 x F_9 each, so neither is a unit although each
    is non-zero modulo p; their sum 2x and 1 + x are units."""
    spec = F9_SQUARED
    split = _split(spec)
    b = split.blocks.index(((2, 2), (2, 2)))
    x, y, t = delta(spec, 1), delta(spec, 2), tvar(spec, 1)
    xs = [x - y, x + y, (x - y) * (one(spec) + t), x - y + const(spec, 3), x * 2,
          one(spec) + x, mul(x, y), t, zero(spec)]
    images = _block_images(spec, split, np.array([z.coeffs for z in xs]))[b]
    assert np.any(images[0] % spec.p) and np.any(images[1] % spec.p)
    expected = [False, False, False, False, True, True, True, False, False]
    assert units_by_residue(spec, xs)[b] == expected
    assert units_by_length(spec, xs)[b] == expected


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of columns of every Howell kernel call, in order."""
    calls = []
    original = linalg.howell_span_rows

    def counted(p, k, ncols, mat):
        calls.append(ncols)
        return original(p, k, ncols, mat)

    monkeypatch.setattr(linalg, "howell_span_rows", counted)
    monkeypatch.setattr(ideals, "howell_span_rows", counted)
    return calls


def test_unit_blocks_make_no_kernel_call(kernel_calls):
    """At p5-i1-m4-q2 the closed and direct Euler factors meet in four
    linear blocks; frob - q is a unit in three of them, where both sides
    cancel to the same generators, so only the fourth block takes a form
    of each side: 2 kernel calls, not the 8 of the cross-products."""
    data = paperchecks.euler_grid()[6]
    assert data.local == GroupRingSpec(5, 4, (4,), 1, 6)
    closed = apps.euler_factor_closed(data, assume_nzd=True)
    direct = apps.euler_factor_direct(data, assume_nzd=True)
    kernel_calls.clear()
    verdict = frac_equal(closed, direct)
    assert len(kernel_calls) == 2
    kernel_calls.clear()
    assert verdict == frac_equal_by_products(closed, direct) == FracVerdict(True, 4)
    assert len(kernel_calls) == 8


def test_ideal_equal_on_the_same_generators_makes_no_kernel_call(kernel_calls):
    spec = GroupRingSpec(5, 4, (4,), 1, 6)
    gens = [delta(spec, 1) - const(spec, 2), tvar(spec, 1) * 5, one(spec) * 5]
    I = Ideal(spec, gens)
    assert ideal_equal(I, I)
    assert ideal_equal(I, Ideal(spec, gens[::-1] + [zero(spec), gens[0]]))
    assert kernel_calls == []
    assert not ideal_equal(I, Ideal(spec, gens[1:]))
    assert kernel_calls
