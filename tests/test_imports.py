"""Structural rules of the package source, checked on its syntax tree.

Package modules import each other at module top only: an import of
``euatlab`` (or a relative import) inside a function body hides a
dependency from the module header and usually papers over an import cycle.
Lazy third-party imports are not covered here.

Only ``nn`` (which defines them) and ``uncertainty`` name ``backward`` and
``softmax``: every gradient through the softmax takes the one VJP in
``backprop_mean_prob_grad``, and every prediction, ensemble mean and attack
gradient runs the one softmax-pass loop of ``uncertainty``. For the same
reason only they call ``forward``: every gradient record is one stacked
forward of ``uncertainty``. ``training`` keeps a ``forward`` binding for the
benchmark's tracer but calls nothing through it. Only they name
``MaskStack`` and ``sample_mask`` too: every dropout mask is drawn by
``uncertainty._mc_passes``, so a new mask stream changes those two alone.

Only ``robustness`` names ``ce_input_grad``: every gradient-sign attack,
of any predictor and in adversarial training, is one ``robustness.fgsm``
call.

``cli`` names no ``derive_seed``: the seed stream of every report lives in
``experiment``. ``robustness`` imports nothing from ``training``: an attack
takes its membership from the logits of its own pass. ``baselines`` names
neither ``training`` nor ``robustness``: it holds calibration and the
ensemble record, and every method trains in ``experiment.train_method``.

Only ``training`` (which defines them), ``experiment`` (whose
``train_method`` trains every method) and ``__init__`` (the public API)
name ``ce_family_train`` and ``euat_train``.

In ``training``, ``sgd_step`` and ``mc_predict`` are called only inside
``_Run.fit``: CE-family and error-driven epochs step through one update
loop.

Only ``uncertainty`` imports ``concurrent.futures`` or names
``ThreadPoolExecutor``: the MC passes of a prediction are the package's one
parallel path, on the one pass pool.

No ``json.dump``/``json.dumps`` call passes ``indent=``: that argument runs
the pure-Python encoder, while ``experiment._indented`` re-indents the
C encoder's compact text into the same bytes.
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


OTHER_MODULES = sorted(
    p for p in PACKAGE.glob("*.py") if p.name not in ("nn.py", "uncertainty.py")
)


def name_references(source: str, name: str) -> list[int]:
    """Lines that name ``name``: as a name, an attribute, an import, or the
    module of a from-import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            named = node.id == name
        elif isinstance(node, ast.Attribute):
            named = node.attr == name
        elif isinstance(node, ast.ImportFrom):
            named = (any(a.name == name for a in node.names)
                     or (node.module or "").split(".")[-1] == name)
        else:
            continue
        if named:
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda p: p.name)
def test_only_nn_and_uncertainty_name_backward(path):
    assert name_references(path.read_text(), "backward") == []


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda p: p.name)
def test_only_nn_and_uncertainty_name_softmax(path):
    assert name_references(path.read_text(), "softmax") == []


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda p: p.name)
@pytest.mark.parametrize("name", ["MaskStack", "sample_mask"])
def test_only_nn_and_uncertainty_name_the_masks(path, name):
    assert name_references(path.read_text(), name) == []


def test_mask_detector_flags_names_attributes_and_imports():
    source = (
        "from .nn import MaskStack, sample_mask\n"
        "from . import nn\n"
        "def f(model, seed):\n"
        "    mask = nn.sample_mask(model, seed)  # sample_mask in a comment\n"
        "    return MaskStack(None, 1), nn.MaskStack, sample_mask\n"
        "masks = 'MaskStack'\n"
    )
    assert name_references(source, "MaskStack") == [1, 5, 5]
    assert name_references(source, "sample_mask") == [1, 4, 5]
    assert name_references((PACKAGE / "uncertainty.py").read_text(), "MaskStack") != []


def test_backward_detector_flags_names_attributes_and_imports():
    source = (
        "from .nn import backward, forward, softmax\n"
        "from . import nn\n"
        "def f(cache, g):\n"
        "    nn.backward(cache, g)\n"
        "    p = nn.softmax(g)  # softmax in a comment is not a name\n"
        "    return backward(cache, g), forward, softmax(p)\n"
        "backward_pass = softmax_out = 'softmax'\n"
    )
    assert name_references(source, "backward") == [1, 4, 6]
    assert name_references(source, "softmax") == [1, 5, 6]


@pytest.mark.parametrize(
    "module, name",
    [("cli.py", "derive_seed"), ("robustness.py", "training"),
     ("baselines.py", "training"), ("baselines.py", "robustness")],
)
def test_module_does_not_name(module, name):
    assert name_references((PACKAGE / module).read_text(), name) == []


TRAINERS = ("training.py", "experiment.py", "__init__.py")


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name not in TRAINERS),
    ids=lambda p: p.name,
)
@pytest.mark.parametrize("name", ["ce_family_train", "euat_train"])
def test_only_train_method_names_the_training_loops(path, name):
    assert name_references(path.read_text(), name) == []


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "robustness.py"),
    ids=lambda p: p.name,
)
def test_only_robustness_names_ce_input_grad(path):
    assert name_references(path.read_text(), "ce_input_grad") == []


def test_detector_flags_the_module_of_a_from_import():
    source = (
        "from .training import predict_labels\n"
        "from euatlab.training import partition\n"
        "from . import training\n"
        "from .uncertainty import eval_predict\n"
    )
    assert name_references(source, "training") == [1, 2, 3]


def calls_by_method(source: str, names) -> list[tuple[str, str, int]]:
    """(enclosing ``Class.method`` or "", name, line) of every call of one
    of ``names``, as a bare name or an attribute."""
    tree = ast.parse(source)
    owner = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    for node in ast.walk(fn):
                        owner[id(node)] = f"{cls.name}.{fn.name}"
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append((owner.get(id(node), ""), name, node.lineno))
    return sorted(found)


def test_every_training_step_runs_in_the_one_update_loop():
    calls = calls_by_method(
        (PACKAGE / "training.py").read_text(), ("sgd_step", "mc_predict")
    )
    assert {name for _, name, _ in calls} == {"sgd_step", "mc_predict"}
    assert [c for c in calls if c[0] != "_Run.fit"] == []


def test_call_detector_names_the_enclosing_method():
    source = (
        "from .nn import sgd_step\n"
        "class _Run:\n"
        "    def fit(self):\n"
        "        return sgd_step(self.work) and nn.mc_predict(self.work)\n"
        "    def step(self):\n"
        "        def inner():\n"
        "            return sgd_step(self.work)\n"
        "        return inner\n"
        "def train(work):\n"
        "    return nn.sgd_step(work), mc_predict  # a reference is not a call\n"
    )
    assert calls_by_method(source, ("sgd_step", "mc_predict")) == [
        ("", "sgd_step", 10),
        ("_Run.fit", "mc_predict", 4),
        ("_Run.fit", "sgd_step", 4),
        ("_Run.step", "sgd_step", 7),
    ]


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda p: p.name)
def test_only_nn_and_uncertainty_call_forward(path):
    assert calls_by_method(path.read_text(), ("forward",)) == []


def test_forward_call_detector_ignores_imports_and_references():
    source = (
        "from .nn import forward  # noqa: F401\n"
        "def f(model, x):\n"
        "    keep = forward\n"
        "    return nn.forward(model, x), forward(model, x)[0]\n"
    )
    assert calls_by_method(source, ("forward",)) == [("", "forward", 4)] * 2


def indented_json_dumps(source: str) -> list[int]:
    """Lines of every ``json.dump``/``json.dumps`` call (also of a bare
    ``dump``/``dumps``) that passes ``indent=``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            named = (func.attr in ("dump", "dumps")
                     and isinstance(func.value, ast.Name) and func.value.id == "json")
        else:
            named = isinstance(func, ast.Name) and func.id in ("dump", "dumps")
        if named and any(k.arg == "indent" for k in node.keywords):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_json_call_passes_indent(path):
    assert indented_json_dumps(path.read_text()) == []


def test_indent_detector_flags_json_dump_and_dumps():
    source = (
        "import json\n"
        "from json import dumps\n"
        "def f(doc, fh):\n"
        "    json.dumps(doc, sort_keys=True)\n"
        "    json.dumps(doc, sort_keys=True, indent=2)\n"
        "    json.dump(doc, fh, indent=None)\n"
        "    text = dumps(doc, indent=4)  # indent= in a comment is not a call\n"
        "    other.dumps(doc, indent=2)\n"
        "    return 'json.dumps(doc, indent=2)'\n"
    )
    assert indented_json_dumps(source) == [5, 6, 7]


def pool_references(source: str) -> list[int]:
    """Lines that import from the ``concurrent`` package or name
    ``ThreadPoolExecutor``."""
    found = name_references(source, "ThreadPoolExecutor")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named = any(a.name.split(".")[0] == "concurrent" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            named = node.level == 0 and (node.module or "").split(".")[0] == "concurrent"
        else:
            continue
        if named:
            found.append(node.lineno)
    return sorted(set(found))


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "uncertainty.py"),
    ids=lambda p: p.name,
)
def test_only_uncertainty_runs_a_thread_pool(path):
    assert pool_references(path.read_text()) == []


def test_pool_detector_flags_imports_and_names():
    source = (
        "import concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor, wait\n"
        "from concurrent import futures\n"
        "def f():\n"
        "    return futures.ThreadPoolExecutor(2)  # ThreadPoolExecutor\n"
        "from .concurrent import x\n"
        "executor = 'ThreadPoolExecutor'\n"
    )
    assert pool_references(source) == [1, 2, 3, 5]
    assert pool_references((PACKAGE / "uncertainty.py").read_text()) != []
