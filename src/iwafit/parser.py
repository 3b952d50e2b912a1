"""Surface syntax for ring elements.

Grammar (precedence ^ > * > + -, left associative, unary minus allowed):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)*
    atom   := INT | d<i> | t<j> | tau<i> | tau_<i> | N '(' [INT (',' INT)*] ')'
            | '(' expr ')'

d<i> is the i-th group generator, t<j> the j-th T variable, tau<i> sugar
for d<i> - 1, N(i, ...) the norm of the listed cyclic factors and N() the
full group norm.  ``texts_by_degree`` prints a stack of elements in tau/T
notation, ``element_to_text`` is its one-row case, and both round trip
through ``parse_element``.

Both directions work from per-spec tables (``_tables``, cached like the
tables in ``groupring``):

- per group axis of order m, the m x m binomial matrices between the
  delta-power basis and the tau-power basis (delta = 1 + tau), applied
  by ``groupring.along_axes``, which picks their residue dtype;
- the print order of the monomials (total degree, then exponent tuple),
  each monomial's term text and its total degree;
- the flat-index stride, radix and axis of every name tau<i>, tau_<i>
  and t<j>.

The printer changes basis once per printed stack, one ``along_axes``
call on all its rows, reads each row's lowest degree from the same
delta-basis rows, and joins the term texts of the non-zero coefficients
row by row.  The tokenizer takes one regex scan per source line.  The
parser reads a term of the form

    monomial := [INT '*'] var ['^' INT] ('*' var ['^' INT])*  |  INT
    var      := tau<i> | tau_<i> | t<j>     (each at most once per term)

as one coefficient at one tau/T-basis index, with no ring multiplication;
a T exponent >= N makes the term zero.  An expression sums these
coefficients in a tau-basis vector and changes basis once at its end.
Every other term goes through the recursive evaluator, which is the only
path for general expressions: the fast path rewinds and leaves the term
to it on any token it does not fully recognise, on an integer raised to
a power, on a repeated variable, on a second exponent and on a tau
exponent >= m_i, so every ``ParseError`` (message, line and column)
comes from the evaluator.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ParseError
from .groupring import (
    GroupRingSpec,
    RingElement,
    _exponent_array,
    _zeros,
    along_axes,
    const,
    delta,
    from_vector,
    norm_element,
    one,
    tvar,
)
from .linalg import frozen

# Every non-space character starts a match: a token, or ``bad`` for a
# character no token begins with.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^(),])|(?P<bad>\S))"
)


class Token(NamedTuple):
    kind: str  # "int", "name", "op", "end"
    text: str
    line: int
    column: int


def tokenize(src: str) -> list[Token]:
    tokens = []
    for lineno, line in enumerate(src.split("\n"), start=1):
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group(kind)!r}",
                                 lineno, m.start(kind) + 1)
            tokens.append(Token(kind, m.group(kind), lineno, m.start(kind) + 1))
    last = tokens[-1] if tokens else None
    tokens.append(Token("end", "", last.line if last else 1,
                        last.column + len(last.text) if last else 1))
    return tokens


class _Tables(NamedTuple):
    to_tau: tuple[np.ndarray, ...]  # per group axis: delta-power -> tau-power
    from_tau: tuple[np.ndarray, ...]  # per group axis: tau-power -> delta-power
    order: np.ndarray  # flat monomial indices in print order
    unit: np.ndarray  # per print position: the term of coefficient 1, "tau1^2*t1", "1"
    scaled: np.ndarray  # per print position: what follows another coefficient, "*tau1^2*t1", ""
    degree: np.ndarray  # per flat index: total degree
    names: MappingProxyType  # "tau1", "tau_1", "t1" -> (axis, stride, radix, is_tau)


@lru_cache(maxsize=None)
def _tables(spec: GroupRingSpec) -> _Tables:
    mod = spec.modulus
    to_tau, from_tau = [], []
    for m in spec.orders:
        # delta^a = sum_e C(a, e) tau^e and tau^e = sum_a C(e, a) (-1)^(e-a) delta^a
        to_tau.append(frozen(np.array([[comb(a, e) % mod for a in range(m)]
                                       for e in range(m)], dtype=object)))
        from_tau.append(frozen(np.array([[(-comb(e, a) if (e - a) % 2 else comb(e, a)) % mod
                                          for e in range(m)] for a in range(m)], dtype=object)))
    exps = _exponent_array(spec)
    degree = frozen(exps.sum(axis=1))
    # A stable sort keeps equal degrees in flat order, which is the
    # lexicographic order of the exponent tuples.
    order = frozen(np.argsort(degree, kind="stable"))
    letters = [f"tau{i}" for i in range(1, spec.s + 1)] + \
              [f"t{j}" for j in range(1, spec.d + 1)]
    factors = ["*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(letters, row) if e)
               for row in exps[order].tolist()]
    unit = frozen(np.array([f or "1" for f in factors], dtype=object))
    scaled = frozen(np.array([f and f"*{f}" for f in factors], dtype=object))
    names = {}
    stride = spec.size
    for axis, (name, radix) in enumerate(zip(letters, spec.radices)):
        stride //= radix
        is_tau = axis < spec.s
        names[name] = (axis, stride, radix, is_tau)
        if is_tau:
            names[f"tau_{axis + 1}"] = names[name]
    return _Tables(tuple(to_tau), tuple(from_tau), order, unit, scaled, degree,
                   MappingProxyType(names))


class _Parser:
    def __init__(self, tokens: list[Token], spec: GroupRingSpec, names=None):
        self.tokens = tokens
        self.pos = 0
        self.spec = spec
        self.tables = _tables(spec)
        self.names = names or {}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return self.advance()

    def parse(self) -> RingElement:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input starting at {tok.text!r}",
                             tok.line, tok.column)
        return value

    def expr(self) -> RingElement:
        value = None
        monomials = {}  # tau/T-basis index -> coefficient
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
        while True:
            if not self.monomial(monomials, sign):
                rhs = self.term()
                rhs = -rhs if sign < 0 else rhs
                value = rhs if value is None else value + rhs
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                sign = 1 if tok.text == "+" else -1
            else:
                break
        if monomials or value is None:  # every term may have vanished
            tau = _zeros(self.spec)
            for index, c in monomials.items():
                tau[index] = c % self.spec.modulus
            rhs = from_vector(self.spec, along_axes(self.spec, tau, self.tables.from_tau)
                              .reshape(self.spec.size))
            value = rhs if value is None else value + rhs
        return value

    def monomial(self, monomials: dict, sign: int) -> bool:
        """Read a tau/T monomial term into ``monomials``; on any other term
        leave the position unchanged and return False."""
        tokens = self.tokens
        pos = self.pos
        coeff, index, used, vanishes = sign, 0, set(), False
        tok = tokens[pos]
        if tok.kind == "int":
            coeff *= int(tok.text)
            pos += 1
            follow = tokens[pos].text
            if follow == "^":
                return False
            more = follow == "*"
            pos += more
        else:
            more = True
        while more:
            tok = tokens[pos]
            var = self.tables.names.get(tok.text) \
                if tok.kind == "name" and tok.text not in self.names else None
            if var is None or var[0] in used:
                return False
            axis, stride, radix, is_tau = var
            used.add(axis)
            e = 1
            pos += 1
            if tokens[pos].text == "^":
                etok = tokens[pos + 1]
                if etok.kind != "int":
                    return False
                e = int(etok.text)
                pos += 2
                if tokens[pos].text == "^":
                    return False
            if e >= radix:
                if is_tau:
                    return False
                vanishes = True  # T_j^e = 0 for e >= N
            index += e * stride
            more = tokens[pos].text == "*"
            pos += more
        self.pos = pos
        if not vanishes:
            monomials[index] = monomials.get(index, 0) + coeff
        return True

    def term(self) -> RingElement:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> RingElement:
        value = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "^":
                self.advance()
                etok = self.peek()
                if etok.kind != "int":
                    raise ParseError("exponent must be a nonnegative integer",
                                     etok.line, etok.column)
                self.advance()
                value = value ** int(etok.text)
            else:
                return value

    def atom(self) -> RingElement:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return const(self.spec, int(tok.text))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return -self.atom()
        if tok.kind == "name":
            self.advance()
            return self.name_atom(tok)
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.line, tok.column)

    def name_atom(self, tok: Token) -> RingElement:
        spec = self.spec
        name = tok.text
        if name in self.names:
            value = self.names[name]
            if not isinstance(value, RingElement):
                raise ParseError(f"name {name!r} is bound to a {type(value).__name__}, "
                                 "not a ring element", tok.line, tok.column)
            return value
        if name == "N":
            self.expect("(")
            indices = []
            if not (self.peek().kind == "op" and self.peek().text == ")"):
                while True:
                    itok = self.peek()
                    if itok.kind != "int":
                        raise ParseError("norm arguments must be factor indices",
                                         itok.line, itok.column)
                    self.advance()
                    indices.append(int(itok.text))
                    if self.peek().kind == "op" and self.peek().text == ",":
                        self.advance()
                    else:
                        break
            self.expect(")")
            for i in indices:
                if not 1 <= i <= spec.s:
                    raise ParseError(f"norm index {i} out of range 1..{spec.s}",
                                     tok.line, tok.column)
            return norm_element(spec, indices or None)
        m = re.fullmatch(r"(d|t|tau_?)(\d+)", name)
        if m is None:
            raise ParseError(f"unknown identifier {name!r}", tok.line, tok.column)
        head, idx = m.group(1), int(m.group(2))
        if head == "d" or head.startswith("tau"):
            if not 1 <= idx <= spec.s:
                raise ParseError(f"group generator index {idx} out of range 1..{spec.s}",
                                 tok.line, tok.column)
            g = delta(spec, idx)
            return g - one(spec) if head.startswith("tau") else g
        if not 1 <= idx <= spec.d:
            raise ParseError(f"T-variable index {idx} out of range 1..{spec.d}",
                             tok.line, tok.column)
        return tvar(spec, idx)


def parse_element(src: str, spec: GroupRingSpec, names=None) -> RingElement:
    """Parse and evaluate an expression in the ring given by ``spec``.

    ``names`` maps bound names to values; a bound name stands for its value
    and shadows the built-in identifiers, and a name bound to anything but a
    ring element is an error that names it.
    """
    return _Parser(tokenize(src), spec, names).parse()


def texts_by_degree(spec: GroupRingSpec, rows: np.ndarray) -> list[str]:
    """Canonical texts of a stack of elements, given as delta/T coefficient
    rows of shape (n, spec.size), ordered by (lowest total degree of a
    non-zero delta/T monomial, text); the zero element has degree 0.

    One basis change turns every row into tau/T coefficients.  Within a
    text, terms are ordered by ascending total degree, then
    lexicographically by exponent tuple; the zero element prints as "0".
    """
    tables = _tables(spec)
    n = len(rows)
    tau = along_axes(spec, rows, tables.to_tau).reshape(n, spec.size)[:, tables.order]
    which, at = np.nonzero(tau)
    parts = [unit if c == 1 else f"{c}{scaled}" for c, unit, scaled in
             zip(tau[which, at].tolist(), tables.unit[at].tolist(), tables.scaled[at].tolist())]
    ends = np.cumsum(np.bincount(which, minlength=n)).tolist()
    texts = [" + ".join(parts[start:end]) or "0" for start, end in zip([0] + ends, ends)]
    top = int(tables.degree.max()) + 1  # above every total degree
    lowest = np.where(rows != 0, tables.degree, top).min(axis=1, initial=top)
    lowest[lowest == top] = 0
    return [text for _, text in sorted(zip(lowest.tolist(), texts))]


def element_to_text(x: RingElement) -> str:
    """Canonical tau/T-notation text, re-parseable by ``parse_element``: the
    one-row case of ``texts_by_degree``."""
    return texts_by_degree(x.spec, x.coeffs.reshape(1, -1))[0]
