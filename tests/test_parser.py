"""Expression grammar and the canonical text form."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iwafit import (
    GroupRingSpec,
    ParseError,
    const,
    delta,
    norm_element,
    one,
    tvar,
)
from iwafit.parser import element_to_text, parse_element, tokenize

from conftest import random_element


@pytest.fixture
def spec():
    return GroupRingSpec(3, 3, (3, 9), 2, 4)


def test_precedence_and_associativity(spec):
    d1, t1 = delta(spec, 1), tvar(spec, 1)
    assert parse_element("d1 + t1 * t1", spec) == d1 + t1 * t1
    assert parse_element("(d1 + t1) * t1", spec) == (d1 + t1) * t1
    assert parse_element("d1 * t1 ^ 2", spec) == d1 * t1**2
    assert parse_element("2 ^ 3 ^ 1", spec) == const(spec, 8)
    assert parse_element("1 - 2 - 3", spec) == const(spec, -4)
    assert parse_element("-d1 + 1", spec) == one(spec) - d1
    assert parse_element("- d1 * t1", spec) == -(d1 * t1)


def test_sugar_names(spec):
    assert parse_element("tau1", spec) == delta(spec, 1) - one(spec)
    assert parse_element("tau_2", spec) == delta(spec, 2) - one(spec)
    assert parse_element("N()", spec) == norm_element(spec)
    assert parse_element("N(2)", spec) == norm_element(spec, [2])
    assert parse_element("N(1, 2)", spec) == norm_element(spec, [1, 2])


def test_coefficients_reduce_mod_pk(spec):
    assert parse_element("28", spec) == one(spec)
    assert parse_element("27 * d1", spec) == const(spec, 0)


def test_error_positions(spec):
    with pytest.raises(ParseError) as err:
        parse_element("d1 + $", spec)
    assert err.value.line == 1 and err.value.column == 6
    with pytest.raises(ParseError) as err:
        parse_element("d1 +\n+ t1", spec)
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_element("d3", spec)  # group index out of range
    with pytest.raises(ParseError):
        parse_element("t3", spec)  # T index out of range
    with pytest.raises(ParseError):
        parse_element("N(3)", spec)
    with pytest.raises(ParseError):
        parse_element("d1 t1", spec)  # missing operator
    with pytest.raises(ParseError):
        parse_element("t1 ^ t1", spec)  # exponent must be an integer
    with pytest.raises(ParseError):
        parse_element("frob", spec)  # unknown identifier
    with pytest.raises(ParseError):
        parse_element("(d1", spec)  # unbalanced parenthesis


def test_tokenizer_tracks_lines():
    toks = tokenize("a +\n b")
    assert [(t.text, t.line) for t in toks[:-1]] == [("a", 1), ("+", 1), ("b", 2)]


@pytest.mark.parametrize("src, message, line, column", [
    ("d1 +\t$", "unexpected character '$'", 1, 6),  # after a tab
    ("d1 +\r\n t1 @ 2", "unexpected character '@'", 2, 5),  # line 2 after \r\n
    ("d1$", "unexpected character '$'", 1, 3),  # right after a token
    ("t1 + 2$ ", "unexpected character '$'", 1, 7),
    ("  \t \n  ", "expected a value, found 'end of input'", 1, 1),  # only whitespace
    ("", "expected a value, found 'end of input'", 1, 1),  # the end token at 1:1
])
def test_tokenizer_error_positions(spec, src, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_element(src, spec)
    assert (str(err.value), err.value.line, err.value.column) == \
        (f"{message} (line {line}, column {column})", line, column)
    if message.startswith("expected"):
        assert [tuple(t) for t in tokenize(src)] == [("end", "", 1, 1)]


def test_text_round_trip(spec, rng):
    for _ in range(50):
        x = random_element(spec, rng)
        text = element_to_text(x)
        assert parse_element(text, spec) == x


def test_text_is_canonical(spec):
    t1 = tvar(spec, 1)
    tau1 = delta(spec, 1) - one(spec)
    # equal elements print identically regardless of how they were built
    a = tau1 * t1 + t1 * tau1
    b = (delta(spec, 1) - one(spec)) * t1 * 2
    assert element_to_text(a) == element_to_text(b)
    assert element_to_text(tau1) == "tau1"
    assert element_to_text(t1 * t1) == "t1^2"
    assert element_to_text(const(spec, 0)) == "0"
    assert element_to_text(one(spec) + t1) == "1 + t1"


def test_text_orders_by_degree(spec):
    x = tvar(spec, 1) ** 2 + delta(spec, 1) - one(spec) + const(spec, 5)
    assert element_to_text(x) == "5 + tau1 + t1^2"


_SMALL = GroupRingSpec(3, 2, (3,), 1, 3)


@given(st.lists(st.integers(min_value=0, max_value=8),
                min_size=_SMALL.size, max_size=_SMALL.size))
def test_round_trip_property(vec):
    from iwafit import from_vector
    import numpy as np

    x = from_vector(_SMALL, np.array(vec))
    assert parse_element(element_to_text(x), _SMALL) == x


# --------------------------------------------------------------------------
# The monomial fast path and the table-driven printer, against referees

from itertools import product
from math import comb

from hypothesis import settings

import numpy as np

from iwafit import from_vector
from iwafit.groupring import along_axes
from iwafit.parser import _Parser, _tables, texts_by_degree

_FAST_SPECS = (
    GroupRingSpec(3, 3, (3, 9), 2, 4),  # the ``spec`` fixture: int64 residues
    GroupRingSpec(3, 21, (3, 9), 1, 3),  # Python-int residues (dtype object)
    GroupRingSpec(3, 2, (), 2, 4),  # the trivial group
    GroupRingSpec(3, 19, (3,), 1, 2),  # Python-int residues, int64 basis change
)
_IDS = ["int64", "object", "trivial", "mixed"]


class _Evaluator(_Parser):
    """The recursive evaluator alone: the monomial fast path always declines."""

    def monomial(self, monomials, sign):
        return False


def evaluate(src, spec):
    return _Evaluator(tokenize(src), spec).parse()


def assert_same_element(x, y):
    assert x == y
    if x.spec.dtype() is object:
        assert all(type(c) is int for c in x.coeffs)


@st.composite
def monomial_sums(draw):
    """(spec, text, element): a signed sum of c * tau^a * T^b terms written
    in the fast path's grammar, and the same sum built with ring arithmetic.
    Exponents run past m_i and N, and the variables come in any order."""
    spec = draw(st.sampled_from(_FAST_SPECS))
    mod = spec.modulus
    value = const(spec, 0)
    text = ""
    for n in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from((1, -1)))
        c = draw(st.integers(0, 2 * mod))
        term = const(spec, c)
        factors = []
        for i, m in enumerate(spec.orders, 1):
            if draw(st.booleans()):
                a = draw(st.integers(0, m + 1))
                term = term * (delta(spec, i) - one(spec)) ** a
                factors.append((draw(st.sampled_from((f"tau{i}", f"tau_{i}"))), a))
        for j in range(1, spec.d + 1):
            if draw(st.booleans()):
                b = draw(st.integers(0, spec.N + 1))
                term = term * tvar(spec, j) ** b
                factors.append((f"t{j}", b))
        factors = draw(st.permutations(factors))
        parts = [name if e == 1 and draw(st.booleans()) else f"{name}^{e}"
                 for name, e in factors]
        if not parts or c != 1 or draw(st.booleans()):
            parts.insert(0, str(c))
        body = "*".join(parts)
        if n == 0:
            text = f"-{body}" if sign < 0 else body
        else:
            text += f" {'-' if sign < 0 else '+'} {body}"
        value = value + term if sign > 0 else value - term
    return spec, text, value


@settings(max_examples=150, deadline=None)
@given(monomial_sums())
def test_fast_path_matches_ring_arithmetic(case):
    spec, text, value = case
    parsed = parse_element(text, spec)
    assert_same_element(parsed, value)
    assert_same_element(evaluate(text, spec), value)


@pytest.mark.parametrize("spec", _FAST_SPECS, ids=_IDS)
def test_fast_path_declines_or_matches_the_evaluator(spec):
    """Terms the fast path must leave to the evaluator, or treat specially,
    give the evaluator's element."""
    texts = ["7", "0", "-5", "12345678901234567890", "2^3", "2^3*t1", "t1^4",
             "3*t1^4 + t1^3", "t1^0", "t1*t1", "t1*t2*t1^2", "t1^3*t1^2", "t1^2^2",
             "(t1 + 1)^2", "-(t1 - 2)*t1", "- -t1", "2*-t1", "t1*2",
             "((t1 + 3)*(t1^2 - 1))^2 - t1"]
    if spec.s:
        texts += ["tau1^3", "tau1^4*t1", "tau1^0", "tau1^0*t1^0", "tau1*tau1",
                  "tau1*tau_1*t1", "tau1^2*tau1", "2^3*tau1", "d1", "3*d1^2*tau2 + d2",
                  "-tau1*t1 + 2", "- 3*tau2^8*t1^3", "tau_2", "tau_2^9",
                  "tau2^10*t1 - tau2^8", "((tau1 + t1)*(2*tau2 - 1))^2 - (tau_1)",
                  "N() + tau1", "3*N(2)*t1 - tau2", "tau1^2^2", "tau1*d1",
                  "99*tau2^3*tau1^2*t1^3"]
    for text in texts:
        try:
            expected = evaluate(text, spec)
        except ParseError as err:  # e.g. t2 on a spec with one T variable
            with pytest.raises(ParseError) as again:
                parse_element(text, spec)
            assert (str(again.value), again.value.line, again.value.column) == \
                (str(err), err.line, err.column)
            continue
        assert_same_element(parse_element(text, spec), expected)


@pytest.mark.parametrize("text, message, line, column", [
    ("2*tau3^2 + t1", "group generator index 3 out of range 1..2", 1, 3),
    ("t1 + 5*t3", "T-variable index 3 out of range 1..2", 1, 8),
    ("tau1*\n  tau_3*t1", "group generator index 3 out of range 1..2", 2, 3),
    ("tau1*t1*t0", "T-variable index 0 out of range 1..2", 1, 9),
    ("tau1^t1", "exponent must be a nonnegative integer", 1, 6),
    ("3*tau1 *", "expected a value, found 'end of input'", 1, 9),
    ("2*tau1 t1", "trailing input starting at 't1'", 1, 8),
    ("tau1 + frob*t1", "unknown identifier 'frob'", 1, 8),
    ("tau1^2 + (t1", "expected ')', found 'end of input'", 1, 13),
])
def test_fast_path_keeps_error_positions(spec, text, message, line, column):
    errors = []
    for parse in (parse_element, evaluate):
        with pytest.raises(ParseError) as err:
            parse(text, spec)
        errors.append((str(err.value), err.value.line, err.value.column))
    assert errors[0] == errors[1] == \
        (f"{message} (line {line}, column {column})", line, column)


def reference_text(x):
    """Term-by-term printer: expand every delta^a as prod (1 + tau)^(a_i)."""
    spec = x.spec
    mod = spec.modulus
    tau = {}
    for exps, c in x.terms():
        group, t = exps[:spec.s], exps[spec.s:]
        for es in product(*(range(a + 1) for a in group)):
            coeff = c
            for a, e in zip(group, es):
                coeff *= comb(a, e)
            key = tuple(es) + tuple(t)
            tau[key] = (tau.get(key, 0) + coeff) % mod
    entries = sorted((sum(e), e, c) for e, c in tau.items() if c)
    if not entries:
        return "0"
    names = [f"tau{i}" for i in range(1, spec.s + 1)] + \
        [f"t{j}" for j in range(1, spec.d + 1)]
    parts = []
    for _, exps, c in entries:
        body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
        parts.append(str(c) if not body else body if c == 1 else f"{c}*{body}")
    return " + ".join(parts)


@pytest.mark.parametrize("spec", _FAST_SPECS, ids=_IDS)
def test_printer_matches_term_by_term_referee(spec, rng):
    for _ in range(12):
        x = random_element(spec, rng)
        text = element_to_text(x)
        assert text == reference_text(x)
        assert_same_element(parse_element(text, spec), x)
    for x in (const(spec, 0), one(spec), const(spec, -1), tvar(spec, 1) ** 3):
        assert element_to_text(x) == reference_text(x)
    if spec.s:
        sparse = delta(spec, spec.s) ** 5 * tvar(spec, 1) - const(spec, 2) * delta(spec, 1)
        assert element_to_text(sparse) == reference_text(sparse)


def reference_texts_by_degree(elems):
    """Reference texts ordered by (lowest total degree of a non-zero
    delta/T monomial, text), one element at a time."""
    def key(x):
        terms = x.terms()
        return (min(sum(e) for e, _ in terms) if terms else 0, reference_text(x))
    return [text for _, text in sorted(map(key, elems))]


@st.composite
def stacks(draw):
    """(spec, rows): a stack of 0 to 6 coefficient rows drawn from a pool
    of sparse elements and zero, so rows repeat and vanish."""
    spec = draw(st.sampled_from(_FAST_SPECS))
    coeff = st.integers(-spec.modulus, 2 * spec.modulus)
    pool = [const(spec, 0)]
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(st.integers(0, spec.size - 1), coeff, max_size=6))
        vec = np.zeros(spec.size, dtype=object)
        for index, c in terms.items():
            vec[index] = c % spec.modulus
        pool.append(from_vector(spec, vec))
    picks = draw(st.lists(st.sampled_from(pool), max_size=6))
    rows = np.stack([x.coeffs for x in picks]) if picks else \
        np.zeros((0, spec.size), dtype=spec.dtype())
    return spec, rows


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_stacked_printer_matches_reference_row_by_row(case):
    spec, rows = case
    elems = [from_vector(spec, row) for row in rows]
    assert texts_by_degree(spec, rows) == reference_texts_by_degree(elems)
    for x in elems:  # one-row stacks
        assert texts_by_degree(spec, x.coeffs.reshape(1, -1)) == [reference_text(x)]
        assert element_to_text(x) == reference_text(x)


@pytest.mark.parametrize("spec", _FAST_SPECS, ids=_IDS)
def test_element_texts_sorted_keeps_the_degree_order(spec, rng):
    def old_key(x):
        terms = x.terms()
        return (min(sum(e) for e, _ in terms) if terms else 0, element_to_text(x))

    t1 = tvar(spec, 1)
    elems = [random_element(spec, rng) * t1 ** (i % 3) for i in range(8)]
    elems += [t1 ** 2, const(spec, 0), const(spec, 3), t1 * 2, t1 ** 2, elems[0]]
    if spec.s:
        elems += [delta(spec, 1) * t1, delta(spec, 1) - one(spec), delta(spec, spec.s) ** 3]
    expected = [element_to_text(x) for x in sorted(elems, key=old_key)]
    assert texts_by_degree(spec, np.stack([x.coeffs for x in elems])) == expected


def test_wide_modulus_texts_change_basis_in_int64(rng):
    """Mod 3^21 the tau-basis change, whose entries are binomials <= 70, is
    taken in int64, and the texts are the term-by-term referee's."""
    spec = _FAST_SPECS[1]
    elems = [random_element(spec, rng) for _ in range(6)] + [const(spec, -1), tvar(spec, 1) ** 2]
    rows = np.stack([x.coeffs for x in elems])
    assert along_axes(spec, rows, _tables(spec).to_tau).dtype == np.int64
    assert texts_by_degree(spec, rows) == reference_texts_by_degree(elems)
