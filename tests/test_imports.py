"""Every name a library module imports is used in that module.

``__init__.py`` re-exports its imports, so it is not scanned.
"""

import ast
from pathlib import Path

import pytest

import iwafit

MODULES = sorted(p for p in Path(iwafit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_scanner_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nprint(gcd)\n") == [
        "lcm (line 2)", "os (line 1)"]
    assert unused_imports("import numpy as np\nx = np.zeros(1)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
