"""Howell form against brute-force span enumeration and the incremental builder.

The spans are small enough (p^k <= 9, ncols <= 2) to enumerate every
Z/p^k-linear combination of the rows, which gives an independent oracle for
same_span, member and the span-closure property of the Howell form.  The
blocked kernel is also held to ``HowellBuilder`` on inputs that span several
panels, in every arithmetic tier.
"""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwafit import GroupRingSpec
from iwafit.linalg import (
    EXACT_INT64,
    PANEL,
    CoeffMatrix,
    _arithmetic,
    _ops,
    echelon,
    echelon_span_rows,
    howell_form,
    howell_span_rows,
    member,
    residue_dtype,
    same_span,
    spans,
)

from referees import HowellBuilder, back_substituted


def enumerate_span(rows, mod, ncols):
    """Every Z/mod-combination of the rows, as a frozenset of tuples."""
    rows = [np.asarray(r) for r in rows]
    n = ncols
    out = {(0,) * n}
    for coeffs in product(range(mod), repeat=len(rows)):
        v = np.zeros(n, dtype=np.int64)
        for c, r in zip(coeffs, rows):
            v = (v + c * r) % mod
        out.add(tuple(int(x) for x in v))
    return frozenset(out)


CASES = [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)]


def test_reference_example():
    H = howell_form(CoeffMatrix(2, 2, 2, ((2, 1),)))
    assert [list(map(int, r)) for r in H.rows] == [[2, 1], [0, 2]]
    # derived independently: the span of (2,1) over Z/4 is
    # {(0,0),(2,1),(0,2),(2,3)}, whose echelon closure needs the row (0,2)
    assert enumerate_span([(2, 1)], 4, 2) == enumerate_span([(2, 1), (0, 2)], 4, 2)


@pytest.mark.parametrize("p,k", CASES)
def test_howell_span_is_exact(p, k, rng):
    mod = p**k
    for _ in range(30):
        ncols = int(rng.integers(1, 3))
        nrows = int(rng.integers(1, 4))
        A = rng.integers(0, mod, size=(nrows, ncols))
        H = howell_form(CoeffMatrix(p, k, ncols, tuple(map(tuple, A))))
        assert enumerate_span(A, mod, ncols) == enumerate_span(H.rows, mod, ncols)
        # canonical form is idempotent
        assert howell_form(H) == H


@pytest.mark.parametrize("p,k", CASES)
def test_same_span_matches_enumeration(p, k, rng):
    mod = p**k
    for _ in range(30):
        ncols = int(rng.integers(1, 3))
        A = rng.integers(0, mod, size=(int(rng.integers(1, 4)), ncols))
        B = rng.integers(0, mod, size=(int(rng.integers(1, 4)), ncols))
        expected = enumerate_span(A, mod, ncols) == enumerate_span(B, mod, ncols)
        got = same_span(CoeffMatrix(p, k, ncols, tuple(map(tuple, A))),
                        CoeffMatrix(p, k, ncols, tuple(map(tuple, B))))
        assert got == expected


@pytest.mark.parametrize("p,k", CASES)
def test_member_matches_enumeration(p, k, rng):
    mod = p**k
    for _ in range(30):
        ncols = int(rng.integers(1, 3))
        A = rng.integers(0, mod, size=(int(rng.integers(1, 4)), ncols))
        v = rng.integers(0, mod, size=ncols)
        expected = tuple(int(x) for x in v) in enumerate_span(A, mod, ncols)
        assert member(v, CoeffMatrix(p, k, ncols, tuple(map(tuple, A)))) == expected


def builder_form(p, k, ncols, A) -> CoeffMatrix:
    """The Howell form of the rows of A by the incremental referee."""
    builder = HowellBuilder(p, k, ncols)
    for row in A:
        builder.insert(row)
    return CoeffMatrix(p, k, ncols, tuple(builder.normalized_rows()))


def test_bulk_elimination_matches_incremental(rng):
    for _ in range(200):
        p = int(rng.choice([2, 3, 5]))
        k = int(rng.integers(1, 4))
        ncols = int(rng.integers(1, 8))
        nrows = int(rng.integers(1, 10))
        A = rng.integers(0, p**k, size=(nrows, ncols))
        H1 = builder_form(p, k, ncols, A)
        H2 = CoeffMatrix(p, k, ncols, tuple(howell_span_rows(p, k, ncols, A)))
        assert H1 == H2


def structured_rows(seed, p, k, nrows, ncols):
    """Rows whose Howell form has non-unit pivots at panel edges.

    Most rows combine up to three staircase rows, each a pivot p^e * unit
    with zeros to its left.  The staircase includes the last two columns of
    every panel, so a non-unit pivot there appends its p^(k-e) row across
    the panel boundary.  The rest are zero rows, duplicates of earlier rows
    and dense random rows.
    """
    rnd = random.Random(seed)
    mod = p**k
    width = _arithmetic(mod)[1]
    density = rnd.choice([0.1, 0.5, 1.0])
    edges = {c for b in range(width, ncols + 1, width) for c in (b - 2, b - 1) if c >= 0}
    stair = []
    for c in sorted(edges | set(rnd.sample(range(ncols), min(ncols, 8)))):
        unit = rnd.randrange(1, mod)
        while unit % p == 0:
            unit = rnd.randrange(1, mod)
        tail = [rnd.randrange(mod) if rnd.random() < density else 0 for _ in range(ncols - c - 1)]
        stair.append([0] * c + [p ** rnd.randrange(k) * unit % mod] + tail)
    rows = []
    for _ in range(nrows):
        kind = rnd.random()
        if kind < 0.1:
            rows.append([0] * ncols)
        elif kind < 0.2 and rows:
            rows.append(list(rnd.choice(rows)))
        elif kind < 0.3:
            rows.append([rnd.randrange(mod) for _ in range(ncols)])
        else:
            parts = [(rnd.randrange(1, mod), rnd.choice(stair)) for _ in range(rnd.randint(1, 3))]
            rows.append([sum(g * s[c] for g, s in parts) % mod for c in range(ncols)])
    return np.array(rows, dtype=residue_dtype(mod)).reshape(nrows, ncols)


# One modulus or more per arithmetic tier of the kernel, with the tier it
# must land in and the number of examples (the referee is slow on objects).
TIERS = [
    (3, 4, np.float64, 12),
    (5, 4, np.float64, 12),
    (11863279, 1, np.float64, 8),  # largest prime with 64*(q-1)^2 + q < 2^53
    (11863289, 1, np.int64, 8),  # the next prime, past the float bound
    (3, 17, np.int64, 8),
    (3, 19, np.int64, 8),  # panels of 6 columns
    (2147483647, 1, np.int64, 4),  # 2^31 - 1: panels of 2 columns
    (2147483659, 1, EXACT_INT64, 4),  # the first prime above 2^31
    (3, 21, EXACT_INT64, 4),
    (2199023255531, 1, EXACT_INT64, 4),  # largest prime with 64^2 * q < 2^53
    (2199023255579, 1, object, 4),  # the next prime, past the exact bound
    (3, 70, object, 4),
]


@pytest.mark.parametrize("p,k,tier,examples", TIERS)
def test_kernel_matches_builder(p, k, tier, examples):
    assert _arithmetic(p**k)[0] is tier

    @settings(max_examples=examples, deadline=None, database=None)
    @given(shape=st.integers(1, 150).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 2 * n))),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(150, 300), seed=0)
    def check(shape, seed):
        ncols, nrows = shape
        A = structured_rows(seed, p, k, nrows, ncols)
        H = CoeffMatrix(p, k, ncols, tuple(howell_span_rows(p, k, ncols, A)))
        assert H == builder_form(p, k, ncols, A)

    check()


# The echelon stage in each tier: float64, cut-panel int64, exact int64 and
# Python ints.
ECHELON_TIERS = [
    (5, 4, np.float64),
    (3, 18, np.int64),
    (3, 21, EXACT_INT64),
    (3, 70, object),
]


def probe_vectors(rnd, A, p, k, count):
    """Random combinations of the rows of A, in its span, and the same
    combinations plus p^j times a unit in one column, which may leave it."""
    mod = p**k
    rows = np.asarray(A, dtype=object)
    out = []
    for _ in range(count):
        picks = [(rnd.randrange(mod), rnd.randrange(len(rows))) for _ in range(3)]
        v = sum(c * rows[i] for c, i in picks) % mod
        out.append(v)
        w = v.copy()
        c = rnd.randrange(len(w))
        w[c] = (w[c] + p ** rnd.randrange(k) * rnd.choice([1, mod - 1])) % mod
        out.append(w)
    return np.array(out, dtype=object).reshape(len(out), rows.shape[1])


@pytest.mark.parametrize("p,k,tier", ECHELON_TIERS)
def test_echelon_stage_matches_builder(p, k, tier):
    """Stopped before back-substitution, the kernel's rows back-substitute to
    the builder's Howell form, carry its length and decide membership as
    its pivot rows do."""
    assert _arithmetic(p**k)[0] is tier

    @settings(max_examples=6, deadline=None, database=None)
    @given(shape=st.integers(1, 100).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 2 * n))),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(100, 150), seed=0)
    def check(shape, seed):
        ncols, nrows = shape
        A = structured_rows(seed, p, k, nrows, ncols)
        E = echelon(p, k, ncols, echelon_span_rows(p, k, ncols, A))
        builder = HowellBuilder(p, k, ncols)
        for row in A:
            builder.insert(row)
        assert back_substituted(E) == CoeffMatrix(p, k, ncols, tuple(builder.normalized_rows()))
        assert E.length == builder.length()
        V = probe_vectors(random.Random(seed), A, p, k, 4)
        expected = [builder.contains(v) for v in V]
        assert [spans(E, v[None]) for v in V] == expected
        assert spans(E, V) == all(expected)
        assert spans(E, V[::2])

    check()


def test_residue_dtype_thresholds():
    assert residue_dtype(2**31 - 1) is np.int64
    assert residue_dtype(2147483659) is object
    assert _arithmetic(2147483659) == (EXACT_INT64, 64)
    assert _arithmetic(2199023255531) == (EXACT_INT64, 64)
    assert _arithmetic(2199023255579) == (object, 16)
    # A ring product sums up to `size` products: 3^38 * 3 < 2^62 <= 3^38 * 6.
    assert GroupRingSpec(3, 19, (3,), 0, 1).dtype() is np.int64
    assert GroupRingSpec(3, 19, (3,), 1, 2).dtype() is object


@pytest.mark.parametrize("mod", [2147483659, 3**21, 3**25, 2199023255531])
def test_exact_int64_products(mod):
    # Residues at and near mod - 1 give the largest float error in the
    # quotient; every product must come back reduced into [0, mod).
    rnd = random.Random(mod)
    ops = _ops(EXACT_INT64, mod)

    def residues(shape):
        flat = [mod - 1 - rnd.randrange(4) if rnd.random() < 0.5 else rnd.randrange(mod)
                for _ in range(int(np.prod(shape)))]
        return np.array(flat, dtype=object).reshape(shape)

    A, B = residues((40, PANEL)), residues((PANEL, 30))
    A[0], B[:, 0] = mod - 1, mod - 1
    for got, want in [
        (ops.dot(A.astype(np.int64), B.astype(np.int64)), A @ B % mod),
        (ops.mul(A.astype(np.int64), B[:, 0].astype(np.int64)), A * B[:, 0] % mod),
        (ops.mul(A[:, 0].astype(np.int64), mod - 1), A[:, 0] * (mod - 1) % mod),
    ]:
        assert got.dtype == np.int64
        assert [int(x) for x in got.ravel()] == [int(x) for x in want.ravel()]


def test_exact_tier_reduces_wide_input_first():
    # Negative entries and Python ints >= 2^63 must be reduced before the
    # tier narrows its input to int64.
    p, k, ncols = 3, 21, 70
    mod = p**k
    rnd = random.Random(21)
    R = structured_rows(7, p, k, 90, ncols)
    W = np.array([[int(x) + mod * rnd.choice([-5, -1, 0, 2**31, 2**40]) for x in row] for row in R],
                 dtype=object)
    assert any(x < 0 for x in W.ravel()) and any(x >= 2**63 for x in W.ravel())
    rows = howell_span_rows(p, k, ncols, W)
    assert all(r.dtype == object and all(type(x) is int for x in r) for r in rows)
    assert CoeffMatrix(p, k, ncols, tuple(rows)) == builder_form(p, k, ncols, W)
    reduced = howell_span_rows(p, k, ncols, R)
    assert [list(r) for r in rows] == [list(r) for r in reduced]


def test_scalar_closure_property(rng):
    # every scalar multiple of a Howell row reduces to zero against the form
    for _ in range(40):
        p, k, ncols = 3, 3, 4
        A = rng.integers(0, 27, size=(3, ncols))
        H = howell_form(CoeffMatrix(p, k, ncols, tuple(map(tuple, A))))
        for row in H.rows:
            for c in (3, 9, 14):
                assert member((c * row) % 27, H)


def test_builder_rejects_bad_modulus():
    with pytest.raises(ValueError):
        CoeffMatrix(4, 2, 1, ((1,),))
    with pytest.raises(ValueError):
        CoeffMatrix(2, 0, 1, ((1,),))


def test_object_dtype_fallback():
    p, k = 3, 70  # modulus far beyond int64
    mod = p**k
    b = HowellBuilder(p, k, 2)
    b.insert([2 * (mod // 3), 1])
    H = CoeffMatrix(p, k, 2, tuple(b.normalized_rows()))
    # pivot normalization: (2*3^69, 1) ~ (3^69, inv(2)); the spawned row
    # 3 * (3^69, inv(2)) = (0, 3*inv(2)) normalizes to (0, 3), and the
    # entry above that pivot reduces to inv(2) mod 3 = 2.
    assert [[int(x) for x in r] for r in H.rows] == [[mod // 3, 2], [0, 3]]
    bulk = howell_span_rows(p, k, 2, np.array([[2 * (mod // 3), 1]], dtype=object))
    assert [[int(x) for x in r] for r in bulk] == [[mod // 3, 2], [0, 3]]
