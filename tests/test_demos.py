"""Smoke test: every demo script runs to completion and reports no mismatch."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    text = out.getvalue()
    assert text
    for marker in ("UNEQUAL", "MISMATCH", "False"):
        assert marker not in text
