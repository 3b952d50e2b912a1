"""Only ``linalg`` touches the Howell kernel's internals.

Every other module reaches the kernel through ``linalg.howell_span_rows``
(``echelon_span_rows`` calls it too), so a traced run counts all kernel
work under that one layer.
"""

import ast
from pathlib import Path

import pytest

import iwafit

KERNEL_INTERNALS = {"_eliminate", "_back_substitute", "_working_copy"}
MODULES = sorted(p for p in Path(iwafit.__file__).parent.glob("*.py") if p.name != "linalg.py")


def kernel_internals_used(source: str) -> list[str]:
    """The kernel internals that ``source`` imports, reads or calls."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names if a.name in KERNEL_INTERNALS)
        elif isinstance(node, ast.Name) and node.id in KERNEL_INTERNALS:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL_INTERNALS:
            found.add(node.attr)
    return sorted(found)


def test_scanner_finds_kernel_internals():
    assert kernel_internals_used(
        "from .linalg import _eliminate\nfrom . import linalg\n"
        "linalg._back_substitute(H)\n") == ["_back_substitute", "_eliminate"]
    assert kernel_internals_used("from .linalg import howell_span_rows\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_linalg_uses_kernel_internals(path):
    assert kernel_internals_used(path.read_text()) == []
