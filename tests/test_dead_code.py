"""Every public top-level function, and every method and property of a
package class, is used inside the package.

A function or method counts as used when some ``Name`` or ``Attribute`` in
the package source names it, or when a module's ``__all__`` lists it (the
declared public API); its own ``def``, imports of it and mentions in
docstrings do not count. Dunder methods are called by the language and are
skipped. A function that only tests call is dead weight on the run path:
delete it, move it to the tests' ``oracles``, or list it in ``ALLOWED``
with the reason it stays.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "euatlab"

ALLOWED = {
    "presets.gaussian_trend_config": "frozen entry point the benchmark and tests call",
    "presets.binary_flipping_config": "frozen entry point the benchmark and tests call",
}


def unused_public_functions(sources: dict[str, str]) -> list[str]:
    """``module.function`` of every public top-level function, and
    ``module.Class.method`` of every method or property but the dunders,
    that no name, attribute or ``__all__`` entry in ``sources`` (module
    name -> source text) refers to."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, functions):
                if not node.name.startswith("_"):
                    defined.append((module, node.name))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                defined.extend(
                    (f"{module}.{node.name}", fn.name)
                    for fn in node.body
                    if isinstance(fn, functions)
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))
                )
    return sorted(f"{m}.{name}" for m, name in defined if name not in used)


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def test_every_public_function_is_used_or_allowed():
    unused = unused_public_functions(package_sources())
    assert [name for name in unused if name not in ALLOWED] == []


def test_allowlist_names_only_unused_functions():
    # an allowed function that gained a caller leaves the list
    unused = set(unused_public_functions(package_sources()))
    assert sorted(set(ALLOWED) - unused) == []


def test_detector_ignores_definitions_imports_and_docstrings():
    sources = {
        "a": (
            "def used():\n"
            "    '''dead() is mentioned here only'''\n"
            "def dead():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "def by_attribute():\n"
            "    pass\n"
            "def exported():\n"
            "    pass\n"
            "__all__ = ['exported']\n"
        ),
        "b": (
            "from .a import dead, used\n"
            "from . import a\n"
            "def main():\n"
            "    return used(), a.by_attribute\n"
        ),
    }
    assert unused_public_functions(sources) == ["a.dead", "b.main"]


def test_detector_covers_methods_and_properties_but_not_dunders():
    sources = {
        "a": (
            "class Model:\n"
            "    def __init__(self):\n"
            "        self.called()\n"
            "    def called(self):\n"
            "        '''dead() is mentioned here only'''\n"
            "    def dead(self):\n"
            "        pass\n"
            "    def _private(self):\n"
            "        pass\n"
            "    @property\n"
            "    def read(self):\n"
            "        pass\n"
            "    @property\n"
            "    def unread(self):\n"
            "        pass\n"
            "def run(model):\n"
            "    return model.read\n"
        ),
    }
    assert unused_public_functions(sources) == [
        "a.Model._private", "a.Model.dead", "a.Model.unread", "a.run"
    ]
