"""Command-line front end.

Session files are UTF-8 text with one command per line and ``#`` comments.
Commands:

    spec p=3 k=4 N=6 orders=3,3 d=1
    let NAME = EXPR | (G1, G2, ...) | (G1, ...)/DEN | [[E, ...], ...]
    fitting [[E, ...], ...]
    ideal-eq A B
    frac-eq A B
    shift-trivial N
    euler DATAFILE
    verify-paper [--precision k,N]
    canon I

Every command emits one JSON document with the fixed keys
{"spec", "command", "verdict", "certified_precision", "canonical_generators"}.
Exit codes: 0 success, 1 verification mismatch or any other library error
(an ``IwafitError`` such as ``UnsupportedShiftError`` for a shift outside
the computable regimes), or standard output closed before everything was
written (no traceback), 2 usage or parse error, 3 working precision too
low (the message names the N needed).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

from .apps import DecompositionData, euler_factor_closed, euler_factor_direct
from .complexes import RingMatrix, matrix_from_rows
from .errors import IwafitError, ParseError, PrecisionError, SpecMismatchError
from .fitting import PresentedModule, fitting_ideal
from .groupring import GroupRingSpec, RingElement
from .ideals import (
    FractionalIdeal,
    Ideal,
    frac_equal,
    ideal_equal,
    integral,
    nzd_status,
)
from .parser import element_to_text, parse_element, texts_by_degree
from .shifts import ShiftRequest, shift_trivial


class UsageError(IwafitError):
    pass


@dataclass
class Session:
    spec: GroupRingSpec | None = None
    bindings: dict = field(default_factory=dict)
    precision_override: tuple[int, int] | None = None
    assume_nzd: bool = False

    def require_spec(self) -> GroupRingSpec:
        if self.spec is None:
            raise UsageError("no ring defined yet; run `spec` first")
        return self.spec

    def bind(self, name: str, value):
        if name in self.bindings:
            raise UsageError(f"name {name!r} is already bound")
        self.bindings[name] = value


def spec_json(spec: GroupRingSpec | None):
    if spec is None:
        return None
    return {"p": spec.p, "k": spec.k, "orders": list(spec.orders),
            "d": spec.d, "N": spec.N}


def ideal_generators_text(I: Ideal) -> list[str]:
    return texts_by_degree(I.spec, I.canonical.rows)


# The command-line walkers visit only the brackets; the text between them
# is split by ``str.split`` or, at whitespace, by ``_SPACE_RE``.
_BRACKET_RE = re.compile(r"[][()]")
_SPACE_RE = re.compile(r"\s+")


def _split_top_level(src: str, sep=None) -> list[str]:
    """Split ``src`` outside brackets: at ``sep``, each part stripped, or,
    when ``sep`` is None, at whitespace with the empty parts dropped, like
    ``str.split()``."""
    parts, depth, start = [""], 0, 0

    def split_outside(text):
        first, *rest = _SPACE_RE.split(text) if sep is None else text.split(sep)
        parts[-1] += first
        parts.extend(rest)

    for m in _BRACKET_RE.finditer(src):
        i = m.start()
        if depth == 0:  # the text since ``start`` lies outside brackets
            split_outside(src[start:i])
            start = i
        depth += 1 if m.group() in "([" else -1
        if depth == 0:  # a bracketed span ends here, unsplit
            parts[-1] += src[start:i + 1]
            start = i + 1
    if depth == 0:
        split_outside(src[start:])
    else:
        parts[-1] += src[start:]
    if sep is None:
        return [p for p in parts if p]
    return [p.strip() for p in parts]


def _closing_paren(src: str) -> int:
    """Index of the ")" that closes the "(" at the start of ``src``, or -1;
    square brackets do not count."""
    depth = 0
    for m in _BRACKET_RE.finditer(src):
        ch = m.group()
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return m.start()
    return -1


def _parse_expression(src: str, session: Session) -> RingElement:
    """An element expression, in which bound element names stand for their
    values.  Only the bindings whose name occurs in the text go to the
    parser, so an expression without one takes the two-argument call."""
    spec = session.require_spec()
    names = {name: value for name, value in session.bindings.items() if name in src}
    return parse_element(src, spec, names) if names else parse_element(src, spec)


def _parse_entry(src: str, session: Session) -> RingElement:
    """One entry of a literal: a bound element name or an element expression."""
    src = src.strip()
    if src in session.bindings:
        value = session.bindings[src]
        if not isinstance(value, RingElement):
            raise UsageError(f"name {src!r} is bound to a {type(value).__name__}, "
                             "not a ring element")
        return value
    return _parse_expression(src, session)


def parse_value(src: str, session: Session):
    """A bound name, element expression, ideal literal (g1, ...), fractional
    literal (g1, ...)/den, or matrix literal [[...], ...].  A whole entry or
    denominator of a literal may be a bound element name, and so may any
    name inside an element expression."""
    src = src.strip()
    spec = session.require_spec()
    if src in session.bindings:
        return session.bindings[src]
    if src.startswith("[["):
        if not src.endswith("]]"):
            raise UsageError("matrix literal must look like [[a, b], [c, d]]")
        rows_src = _split_top_level(src[1:-1], ",")
        rows = []
        for r in rows_src:
            if not (r.startswith("[") and r.endswith("]")):
                raise UsageError("matrix rows must be bracketed")
            rows.append([_parse_entry(e, session) for e in _split_top_level(r[1:-1], ",")])
        if len({len(r) for r in rows}) > 1:
            raise UsageError("matrix rows have unequal lengths")
        return matrix_from_rows(spec, rows)
    if src.startswith("("):
        close = _closing_paren(src)
        if close < 0:
            raise UsageError(f"unbalanced parenthesis in ideal literal {src!r}")
        inner = src[1:close]
        rest = src[close + 1:].strip()
        gens = [_parse_entry(g, session) for g in _split_top_level(inner, ",")]
        if not rest:
            # A single parenthesized expression still denotes the ideal it
            # generates; commands that need an element parse directly.
            return Ideal(spec, gens)
        if not rest.startswith("/"):
            raise UsageError(f"unexpected text after ideal literal: {rest!r}")
        den = _parse_entry(rest[1:], session)
        status = nzd_status(den)
        if status != "certified" and not session.assume_nzd:
            raise UsageError(
                "denominator is not certified as a non-zero-divisor; "
                "run with --assume-nzd to proceed"
            )
        return FractionalIdeal(Ideal(spec, gens), den, status)
    return _parse_expression(src, session)


def _as_fractional(value) -> FractionalIdeal:
    if isinstance(value, FractionalIdeal):
        return value
    if isinstance(value, Ideal):
        return integral(value)
    if isinstance(value, RingElement):
        return integral(Ideal(value.spec, [value]))
    raise UsageError("expected an ideal or fractional ideal")


def _as_ideal(value) -> Ideal:
    if isinstance(value, Ideal):
        return value
    if isinstance(value, RingElement):
        return Ideal(value.spec, [value])
    raise UsageError("expected an ideal")


def run_command(line: str, session: Session) -> dict:
    """Execute one session command and return its JSON-able output document."""
    out = {
        "spec": spec_json(session.spec),
        "command": line.strip(),
        "verdict": None,
        "certified_precision": None,
        "canonical_generators": None,
    }
    words = _split_top_level(line)
    if not words:
        raise UsageError("empty command")
    cmd, args = words[0], words[1:]

    if cmd == "spec":
        params = {}
        for a in args:
            if "=" not in a:
                raise UsageError(f"spec arguments look like key=value, got {a!r}")
            key, val = a.split("=", 1)
            params[key] = val
        try:
            p = int(params["p"])
            k = int(params["k"])
            N = int(params["N"])
        except KeyError as exc:
            raise UsageError(f"spec requires p, k and N (missing {exc})") from None
        orders = tuple(int(x) for x in params.get("orders", "").split(",") if x)
        d = int(params.get("d", "1"))
        if session.precision_override is not None:
            k, N = session.precision_override
        session.spec = GroupRingSpec(p, k, orders, d, N)
        session.bindings = {}
        out["spec"] = spec_json(session.spec)
        out["verdict"] = "ok"
    elif cmd == "let":
        tail = line.strip()[len("let"):].strip()
        if "=" not in tail:
            raise UsageError("let syntax: let NAME = VALUE")
        name, src = tail.split("=", 1)
        name = name.strip()
        if not name.isidentifier():
            raise UsageError(f"invalid binding name {name!r}")
        value = parse_value(src, session)
        session.bind(name, value)
        out["verdict"] = "ok"
        if isinstance(value, RingElement):
            out["canonical_generators"] = [element_to_text(value)]
        elif isinstance(value, Ideal):
            out["canonical_generators"] = ideal_generators_text(value)
        elif isinstance(value, FractionalIdeal):
            out["canonical_generators"] = ideal_generators_text(value.numerator)
            out["verdict"] = f"ok, denominator {element_to_text(value.denominator)}"
    elif cmd == "fitting":
        value = parse_value(" ".join(args), session)
        if not isinstance(value, RingMatrix):
            raise UsageError("fitting expects a matrix literal or matrix binding")
        fitt = fitting_ideal(PresentedModule(value))
        out["verdict"] = "ok"
        out["certified_precision"] = session.require_spec().N
        out["canonical_generators"] = ideal_generators_text(fitt)
    elif cmd == "ideal-eq":
        if len(args) != 2:
            raise UsageError("ideal-eq takes exactly two arguments")
        lhs = _as_ideal(parse_value(args[0], session))
        rhs = _as_ideal(parse_value(args[1], session))
        equal = ideal_equal(lhs, rhs)
        out["verdict"] = "equal" if equal else "unequal"
        out["certified_precision"] = session.require_spec().N if equal else None
    elif cmd == "frac-eq":
        if len(args) != 2:
            raise UsageError("frac-eq takes exactly two arguments")
        lhs = _as_fractional(parse_value(args[0], session))
        rhs = _as_fractional(parse_value(args[1], session))
        verdict = frac_equal(lhs, rhs)
        out["verdict"] = "equal" if verdict.equal else "unequal"
        out["certified_precision"] = verdict.certified_t_precision
    elif cmd == "shift-trivial":
        if len(args) != 1:
            raise UsageError("shift-trivial takes the shift index")
        try:
            n = int(args[0])
        except ValueError:
            raise UsageError(
                f"shift-trivial takes an integer shift index, got {args[0]!r}") from None
        value = shift_trivial(ShiftRequest(session.require_spec(), n))
        out["verdict"] = f"denominator {element_to_text(value.denominator)}"
        out["certified_precision"] = session.require_spec().N
        out["canonical_generators"] = ideal_generators_text(value.numerator)
    elif cmd == "euler":
        path = line.strip()[len("euler"):].strip()
        if not path:
            raise UsageError("euler takes one JSON data file")
        data = load_euler_data(path, precision=session.precision_override)
        closed = euler_factor_closed(data, assume_nzd=session.assume_nzd)
        direct = euler_factor_direct(data, assume_nzd=session.assume_nzd)
        verdict = frac_equal(closed, direct)
        out["spec"] = spec_json(data.local)
        out["verdict"] = "equal" if verdict.equal else "unequal"
        out["certified_precision"] = verdict.certified_t_precision
        out["canonical_generators"] = ideal_generators_text(closed.numerator)
    elif cmd == "verify-paper":
        k, N = 4, 6
        if session.precision_override is not None:
            k, N = session.precision_override
        rest = list(args)
        while rest:
            a = rest.pop(0)
            if a == "--precision":
                if not rest:
                    raise UsageError("--precision needs a k,N argument")
                k, N = parse_precision(rest.pop(0))
            else:
                raise UsageError(f"unknown verify-paper argument {a!r}")
        from .paperchecks import render_report, run_paper_checks

        results = run_paper_checks(k, N)
        report = render_report(results, k, N)
        out["verdict"] = "pass" if all(r.passed for r in results) else "fail"
        out["certified_precision"] = N
        out["canonical_generators"] = report.rstrip("\n").split("\n")
    elif cmd == "canon":
        value = _as_ideal(parse_value(" ".join(args), session))
        out["verdict"] = "ok"
        out["certified_precision"] = session.require_spec().N
        out["canonical_generators"] = ideal_generators_text(value)
    else:
        raise UsageError(f"unknown command {cmd!r}")

    return out


def parse_precision(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("precision must be given as k,N")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError("precision must be given as two integers k,N") from None


def load_euler_data(path: str, precision=None) -> DecompositionData:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read euler data file: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"euler data file {path!r} does not hold a JSON object")
    try:
        p = int(raw["p"])
        k = int(raw["k"])
        N = int(raw["N"])
        inertia = tuple(int(x) for x in raw["inertia_orders"])
        m_v = int(raw["m_v"])
        q = int(raw["q"])
        frob = raw["frobenius"]
        delta_exps = tuple(int(x) for x in frob["delta_exponents"])
        gamma_exp = int(frob["gamma_exponent"])
    except (KeyError, TypeError) as exc:
        raise UsageError(f"euler data file is missing field {exc}") from None
    if precision is not None:
        k, N = precision
    orders = inertia + ((m_v,) if m_v > 1 else ())
    local = GroupRingSpec(p, k, orders, 1, N)
    return DecompositionData(inertia, m_v, q, local, delta_exps, gamma_exp)


def run_session(lines, session: Session, output=None) -> int:
    """Run a session file's lines; ``#`` starts a comment."""
    return _run_commands(enumerate((raw.split("#", 1)[0] for raw in lines), start=1),
                         session, output)


def _run_commands(commands, session: Session, output=None) -> int:
    """Run the non-blank (line number, command) pairs up to the first error."""
    if output is None:
        output = sys.stdout
    status = 0
    for lineno, line in commands:
        line = line.strip()
        if not line:
            continue
        try:
            doc = run_command(line, session)
        except (UsageError, ParseError, SpecMismatchError, ValueError) as exc:
            print(f"error at line {lineno}: {exc}", file=sys.stderr)
            return 2
        except PrecisionError as exc:
            print(f"error at line {lineno}: {exc}", file=sys.stderr)
            return 3
        except IwafitError as exc:
            print(f"error at line {lineno}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(doc), file=output)
        if doc["verdict"] in ("unequal", "fail"):
            status = 1
    return status


def main(argv=None) -> int:
    """The ``iwafit`` command; returns its exit code.  Exit 1 when standard
    output closes before everything is written."""
    try:
        status = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Standard output goes to devnull, so that the
        # flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


def _dispatch(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="iwafit",
        description="Fitting ideals and their shifts over truncated group rings",
    )
    parser.add_argument("--precision", metavar="k,N",
                        help="override the working precision")
    parser.add_argument("--assume-nzd", action="store_true",
                        help="accept denominators without a non-zero-divisor certificate")
    sub = parser.add_subparsers(dest="mode")
    run_p = sub.add_parser("run", help="execute a session file")
    run_p.add_argument("file")
    euler_p = sub.add_parser("euler", help="compare both Euler-factor routes")
    euler_p.add_argument("file")
    sub.add_parser("verify-paper", help="run the worked-example regression report")

    args = parser.parse_args(argv)
    session = Session(assume_nzd=args.assume_nzd)
    try:
        if args.precision is not None:
            session.precision_override = parse_precision(args.precision)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.mode == "run":
        try:
            with open(args.file, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return run_session(lines, session)
    if args.mode == "euler":
        # A command, not a session line: a '#' in the path is no comment.
        return _run_commands([(1, f"euler {args.file}")], session)
    if args.mode == "verify-paper":
        line = "verify-paper"
        if session.precision_override is not None:
            k, N = session.precision_override
            line += f" --precision {k},{N}"
            session.precision_override = None
        return _run_commands([(1, line)], session)
    parser.print_help(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
