"""Structural rules of the package source, checked on its syntax tree.

Package modules import each other at module top only: an import of
``euatlab`` (or a relative import) inside a function body hides a
dependency from the module header and usually papers over an import cycle.
Lazy third-party imports are not covered here.

Only ``nn`` (which defines it) and ``uncertainty`` (the softmax VJP in
``backprop_mean_prob_grad``) name ``backward``, so every gradient through
the softmax takes that one VJP.
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


BACKWARD_MODULES = {"nn.py", "uncertainty.py"}


def backward_references(source: str) -> list[int]:
    """Lines that name ``backward``: as a name, an attribute or an import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            named = node.id == "backward"
        elif isinstance(node, ast.Attribute):
            named = node.attr == "backward"
        elif isinstance(node, ast.ImportFrom):
            named = any(a.name == "backward" for a in node.names)
        else:
            continue
        if named:
            found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name not in BACKWARD_MODULES),
    ids=lambda p: p.name,
)
def test_only_nn_and_uncertainty_name_backward(path):
    assert backward_references(path.read_text()) == []


def test_backward_detector_flags_names_attributes_and_imports():
    source = (
        "from .nn import backward, forward\n"
        "from . import nn\n"
        "def f(cache, g):\n"
        "    nn.backward(cache, g)\n"
        "    return backward(cache, g), forward\n"
        "backward_pass = 1\n"
    )
    assert backward_references(source) == [1, 4, 5]
