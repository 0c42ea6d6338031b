"""Package modules import each other at module top only.

An import of ``euatlab`` (or a relative import) inside a function body
hides a dependency from the module header and usually papers over an
import cycle. Lazy third-party imports are not covered here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "euatlab"


def call_time_package_imports(source: str) -> list[tuple[str, int]]:
    """(function name, line) of every package import inside a function."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                internal = node.level > 0 or (node.module or "").split(".")[0] == "euatlab"
            elif isinstance(node, ast.Import):
                internal = any(a.name.split(".")[0] == "euatlab" for a in node.names)
            else:
                continue
            if internal:
                found.append((fn.name, node.lineno))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_call_time_package_imports(path):
    assert call_time_package_imports(path.read_text()) == []


def test_detector_flags_relative_and_absolute_imports():
    source = (
        "import numpy\n"
        "def f():\n"
        "    from .data import Dataset\n"
        "    from scipy.stats import norm\n"
        "    class C:\n"
        "        def g(self):\n"
        "            import euatlab.rng\n"
        "    return Dataset\n"
    )
    # nested functions are walked by both enclosing defs
    assert sorted(set(call_time_package_imports(source))) == [("f", 3), ("f", 7), ("g", 7)]
