"""Session commands, JSON output schema and exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iwafit
from iwafit import GroupRingSpec, Ideal, ParseError, const, delta, one, tvar
from iwafit.cli import (
    _SPACE_RE,
    Session,
    UsageError,
    _closing_paren,
    _split_top_level,
    ideal_generators_text,
    load_euler_data,
    main,
    parse_value,
    run_command,
    run_session,
)
from iwafit.paperchecks import render_report, run_paper_checks

from conftest import random_element
from referees import closing_paren_by_chars, per_element_generator_texts, split_top_level_by_chars

VERIFY_PAPER_REPORT = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify_paper.txt"

FIXED_KEYS = {"spec", "command", "verdict", "certified_precision",
              "canonical_generators"}


def fresh_session(**kw):
    session = Session(**kw)
    run_command("spec p=3 k=3 N=4 orders=3 d=1", session)
    return session


def test_every_command_emits_fixed_keys(tmp_path):
    session = fresh_session(assume_nzd=True)
    data = {"p": 3, "k": 3, "N": 4, "inertia_orders": [3], "m_v": 2, "q": 2,
            "frobenius": {"delta_exponents": [0, 1], "gamma_exponent": 1}}
    path = tmp_path / "euler.json"
    path.write_text(json.dumps(data))
    lines = [
        "let I = (tau1, t1)",
        "fitting [[t1, 0], [0, t1]]",
        "ideal-eq I (tau1, t1, t1^2)",
        "frac-eq (N()*t1, t1^2)/t1 (N(), t1)",
        "shift-trivial -1",
        f"euler {path}",
        "canon (t1, 2*t1)",
    ]
    for line in lines:
        doc = run_command(line, session)
        assert set(doc) == FIXED_KEYS
        assert doc["command"] == line


def test_spec_and_let_bindings():
    session = fresh_session()
    doc = run_command("let x = tau1 + t1", session)
    assert doc["verdict"] == "ok"
    assert doc["canonical_generators"] == ["t1 + tau1"]
    with pytest.raises(UsageError):
        run_command("let x = t1", session)  # rebinding
    with pytest.raises(UsageError):
        run_command("let 2x = t1", session)


def test_ideal_eq_verdicts():
    session = fresh_session()
    eq = run_command("ideal-eq (t1, tau1) (tau1, t1, tau1*t1)", session)
    assert eq["verdict"] == "equal"
    assert eq["certified_precision"] == 4
    ne = run_command("ideal-eq (t1) (t1^2)", session)
    assert ne["verdict"] == "unequal"
    assert ne["certified_precision"] is None


def test_frac_eq_precision_stamp():
    session = fresh_session(assume_nzd=True)
    doc = run_command("frac-eq (N()*t1, t1^2)/t1 (N(), t1)", session)
    assert doc["verdict"] == "equal"
    assert doc["certified_precision"] == 3  # N - degT(t1) - degT(1)


def test_shift_trivial_command():
    session = fresh_session()
    doc = run_command("shift-trivial 0", session)
    assert doc["verdict"].startswith("denominator")
    gens = doc["canonical_generators"]
    # the even shift is (tau, T); its canonical generators include both
    assert any("tau1" in g for g in gens)
    assert any("t1" in g for g in gens)


def test_canonical_text_is_stable():
    s1 = fresh_session()
    s2 = fresh_session()
    a = run_command("canon (t1 + tau1, tau1)", s1)
    b = run_command("canon (tau1, t1)", s2)
    assert a["canonical_generators"] == b["canonical_generators"]


def test_parse_value_shapes():
    session = fresh_session(assume_nzd=True)
    from iwafit import FractionalIdeal, Ideal, RingMatrix
    from iwafit.groupring import RingElement

    assert isinstance(parse_value("t1 + 1", session), RingElement)
    assert isinstance(parse_value("(t1, tau1)", session), Ideal)
    assert isinstance(parse_value("(t1)/t1", session), FractionalIdeal)
    # The denominator keeps the status nzd_status gives it.
    assert parse_value("(t1)/t1", session).nzd_status == "certified"
    assert parse_value("(t1)/tau1", session).nzd_status == "assumed"
    assert isinstance(parse_value("[[t1, 0], [0, 1]]", session), RingMatrix)
    with pytest.raises(UsageError):
        parse_value("[[t1], [t1, 0]]", session)  # ragged matrix
    with pytest.raises(UsageError):
        parse_value("(t1) extra", session)


def test_command_words_split_outside_brackets():
    assert _split_top_level("fitting [[a, b], [c, d]]") == ["fitting", "[[a, b], [c, d]]"]
    assert _split_top_level(" ideal \t\t a  \tb\t ") == ["ideal", "a", "b"]
    assert _split_top_level("ideal\u00a0t1\u00a0 (t1 +\u00a01)") == ["ideal", "t1", "(t1 +\u00a01)"]
    assert _split_top_level("ideal (a ") == ["ideal", "(a "]
    assert _split_top_level("[a, b], [c, d]", ",") == ["[a, b]", "[c, d]"]


def test_space_regex_is_str_isspace():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(_SPACE_RE.findall(every)) == "".join(ch for ch in every if ch.isspace())


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab ,()[]\t\u00a0\u2028", max_size=30))
def test_walkers_match_the_per_character_loops(src):
    assert _split_top_level(src) == split_top_level_by_chars(src)
    assert _split_top_level(src, ",") == split_top_level_by_chars(src, ",")
    if src.startswith("("):
        assert _closing_paren(src) == closing_paren_by_chars(src)


@pytest.mark.parametrize("spec", [GroupRingSpec(3, 3, (3, 9), 1, 4),
                                  GroupRingSpec(3, 21, (3,), 1, 3),
                                  GroupRingSpec(3, 2, (), 2, 3)],
                         ids=["int64", "object", "trivial"])
def test_generator_texts_match_per_element_printing(spec, rng):
    t1 = tvar(spec, 1)
    tau = delta(spec, 1) - one(spec) if spec.s else const(spec, 3)
    ideals = [Ideal(spec, [const(spec, 0)]), Ideal(spec, [one(spec)]),
              Ideal(spec, [tau * t1, t1 ** 2, const(spec, spec.p) * t1])]
    ideals += [Ideal(spec, [random_element(spec, rng) * t1 ** i, random_element(spec, rng) * tau])
               for i in range(3)]
    for I in ideals:
        assert ideal_generators_text(I) == per_element_generator_texts(I)
    assert np.shape(ideals[0].canonical.rows) == (0, spec.size)
    assert ideal_generators_text(ideals[0]) == []


def test_denominator_guard_without_flag():
    session = fresh_session()  # assume_nzd=False
    with pytest.raises(UsageError):
        parse_value("(t1)/tau1", session)


def test_run_session_exit_codes(tmp_path):
    ok = tmp_path / "ok.iwa"
    ok.write_text("""\
# comment lines and blanks are skipped
spec p=3 k=3 N=4 orders=3 d=1

ideal-eq (t1, tau1) (tau1, t1)  # trailing comment
""")
    mismatch = tmp_path / "bad.iwa"
    mismatch.write_text("spec p=3 k=3 N=4 orders=3 d=1\nideal-eq (t1) (t1^2)\n")
    syntax = tmp_path / "syntax.iwa"
    syntax.write_text("spec p=3 k=3 N=4 orders=3 d=1\nideal-eq (t1 (t1)\n")
    assert main(["run", str(ok)]) == 0
    assert main(["run", str(mismatch)]) == 1
    assert main(["run", str(syntax)]) == 2
    assert main(["run", str(tmp_path / "missing.iwa")]) == 2


def test_run_session_streams_json():
    out = io.StringIO()
    code = run_session(["spec p=3 k=3 N=4 orders=3 d=1", "canon (t1)"],
                       Session(), output=out)
    assert code == 0
    docs = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(docs) == 2
    assert all(set(d) == FIXED_KEYS for d in docs)
    assert docs[1]["spec"] == {"p": 3, "k": 3, "orders": [3], "d": 1, "N": 4}


def test_euler_data_file_roundtrip(tmp_path):
    data = {"p": 3, "k": 4, "N": 6, "inertia_orders": [3], "m_v": 2, "q": 2,
            "frobenius": {"delta_exponents": [0, 1], "gamma_exponent": 1}}
    path = tmp_path / "euler.json"
    path.write_text(json.dumps(data))
    parsed = load_euler_data(str(path))
    assert parsed.local.orders == (3, 2)
    assert parsed.q == 2
    reduced = load_euler_data(str(path), precision=(3, 4))
    assert (reduced.local.k, reduced.local.N) == (3, 4)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 3}))
    with pytest.raises(UsageError):
        load_euler_data(str(bad))


def test_euler_subcommand(tmp_path, capsys):
    data = {"p": 3, "k": 3, "N": 4, "inertia_orders": [3], "m_v": 2, "q": 2,
            "frobenius": {"delta_exponents": [0, 1], "gamma_exponent": 1}}
    path = tmp_path / "euler.json"
    path.write_text(json.dumps(data))
    assert main(["--assume-nzd", "euler", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["verdict"] == "equal"
    assert doc["spec"]["orders"] == [3, 2]


def test_verify_paper_is_deterministic(capsys):
    assert main(["--precision", "3,4", "verify-paper"]) == 0
    first = capsys.readouterr().out
    assert main(["--precision", "3,4", "verify-paper"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first.strip())
    assert doc["verdict"] == "pass"
    report = doc["canonical_generators"]
    assert all(line.startswith(("PASS", "FAIL", "paper", "2")) or "checks passed"
               in line for line in report)


def test_verify_paper_report_matches_reference():
    # The report at the default precision, byte for byte as recorded by
    # perfbench/record_reference.py; the benchmark's cli-session gate
    # checks the same bytes.
    assert render_report(run_paper_checks(4, 6), 4, 6).encode() == VERIFY_PAPER_REPORT.read_bytes()


def test_precision_error_exit_code(tmp_path, capsys):
    low = tmp_path / "low.iwa"
    low.write_text("spec p=3 k=2 N=4 orders=3,3,3 d=1\nshift-trivial 3\n")
    assert main(["run", str(low)]) == 3
    assert "needs N >= 5" in capsys.readouterr().err


def test_unbalanced_ideal_literal_is_a_usage_error():
    session = fresh_session()
    for src in ("(tau1, t1", "(tau1, (t1)", "((t1)/t1"):
        with pytest.raises(UsageError, match="unbalanced parenthesis"):
            parse_value(src, session)
    with pytest.raises(UsageError, match="unbalanced parenthesis"):
        run_command("let I = (tau1, t1", session)
    assert "I" not in session.bindings


def test_bound_names_inside_literals():
    session = fresh_session(assume_nzd=True)
    run_command("let A = tau1 + t1", session)
    direct = run_command("canon (tau1 + t1)", session)
    assert run_command("canon (A)", session)["canonical_generators"] \
        == direct["canonical_generators"]
    doc = run_command("let I = (A, t1)", session)
    assert doc["canonical_generators"] == \
        run_command("canon (tau1 + t1, t1)", session)["canonical_generators"]
    assert run_command("ideal-eq I (tau1, t1)", session)["verdict"] == "equal"
    run_command("let D = t1", session)
    run_command("let U = N()*t1", session)
    run_command("let V = t1^2", session)
    frac = run_command("frac-eq (U, V)/D (N(), D)", session)
    assert frac["verdict"] == "equal"
    assert frac["certified_precision"] == 3
    matrix = run_command("fitting [[D, 0], [0, A]]", session)
    assert matrix["canonical_generators"] == \
        run_command("fitting [[t1, 0], [0, tau1 + t1]]", session)["canonical_generators"]
    # Inside an expression a bound element name stands for its value.
    assert run_command("canon (A + t1)", session)["canonical_generators"] \
        == run_command("canon (tau1 + t1 + t1)", session)["canonical_generators"]


def test_bound_names_inside_expressions():
    session = fresh_session()
    run_command("let A = tau1 + t1", session)
    run_command("let J = (A*t1)", session)
    doc = run_command("ideal-eq J (tau1*t1 + t1^2)", session)
    assert doc["verdict"] == "equal"
    assert run_command("frac-eq (A^2 - A*t1)/t1 (tau1^2 + tau1*t1)/t1", session)["verdict"] \
        == "equal"
    # A bound name shadows the built-in one it spells.
    shadowed = fresh_session()
    run_command("let t1 = 3*tau1", shadowed)
    assert run_command("canon (t1*tau1 + t1)", shadowed)["canonical_generators"] \
        == run_command("canon (3*tau1^2 + 3*tau1)", session)["canonical_generators"]
    # A name bound to an ideal or a matrix stays a named error inside an
    # expression; an unbound name stays unknown.
    run_command("let I = (tau1, t1)", session)
    run_command("let M = [[t1]]", session)
    for line, name in (("canon (I + t1)", "I"), ("let K = (t1*M)", "M"),
                       ("canon (A + B)", "B")):
        with pytest.raises(ParseError, match=f"'{name}'"):
            run_command(line, session)


def test_bound_non_element_inside_literal_is_named():
    session = fresh_session()
    run_command("let I = (tau1, t1)", session)
    run_command("let M = [[t1]]", session)
    for line in ("canon (I)", "let J = (I, t1)", "fitting [[M]]", "frac-eq (t1)/I (t1)"):
        with pytest.raises(UsageError, match="'I'|'M'"):
            run_command(line, session)


def test_non_integer_shift_index_is_a_usage_error(tmp_path, capsys):
    session = fresh_session()
    with pytest.raises(UsageError, match=r"shift-trivial .*'x'"):
        run_command("shift-trivial x", session)
    bad = tmp_path / "bad.iwa"
    bad.write_text("spec p=3 k=3 N=4 orders=3 d=1\nshift-trivial x\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "shift-trivial takes an integer shift index, got 'x'" in err
    assert "invalid literal" not in err


def test_unsupported_shift_exits_one(tmp_path, capsys):
    # A library refusal that is not a precision error exits 1, like a mismatch.
    neg = tmp_path / "neg.iwa"
    neg.write_text("spec p=3 k=3 N=4 orders=3,3 d=2\nshift-trivial -1\n")
    assert main(["run", str(neg)]) == 1
    assert "negative shift n=-1 is unsupported for d=2, s=2" in capsys.readouterr().err


def test_missing_euler_data_file_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(UsageError, match="cannot read euler data file"):
        run_command(f"euler {missing}", fresh_session())
    assert main(["euler", missing]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_euler_data_file_must_hold_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    assert main(["euler", str(path)]) == 2
    err = capsys.readouterr().err
    assert "does not hold a JSON object" in err
    assert "missing field" not in err


def test_euler_data_path_may_contain_spaces(tmp_path, capsys):
    data = {"p": 3, "k": 3, "N": 4, "inertia_orders": [3], "m_v": 2, "q": 2,
            "frobenius": {"delta_exponents": [0, 1], "gamma_exponent": 1}}
    path = tmp_path / "my data.json"
    path.write_text(json.dumps(data))
    assert main(["--assume-nzd", "euler", str(path)]) == 0
    assert json.loads(capsys.readouterr().out.strip())["verdict"] == "equal"


def test_euler_data_path_may_contain_a_hash(tmp_path, capsys):
    data = {"p": 3, "k": 3, "N": 4, "inertia_orders": [3], "m_v": 2, "q": 2,
            "frobenius": {"delta_exponents": [0, 1], "gamma_exponent": 1}}
    folder = tmp_path / "a#b"
    folder.mkdir()
    path = folder / "e.json"
    path.write_text(json.dumps(data))
    assert main(["--assume-nzd", "euler", str(path)]) == 0
    assert json.loads(capsys.readouterr().out.strip())["verdict"] == "equal"


def test_closed_stdout_exits_one_without_traceback():
    # The read end of the child's stdout pipe is closed before it starts.
    paths = [str(Path(iwafit.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "iwafit.cli", "verify-paper"], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    err = done.stderr.decode()
    assert done.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err
