"""Structural rules of the package source, checked on its syntax tree.

Package modules import each other at module top only: an import of
``euatlab`` (or a relative import) inside a function body hides a
dependency from the module header and usually papers over an import cycle.
No module imports ``scipy``, at module top or inside a function: the
package runs on numpy and the standard library (entropy logs from
``math.log``, uAUC ranks in numpy, the Gaussian preset's noise a literal).
One process test checks what the syntax rule cannot see: a fresh
interpreter that imports ``euatlab``, builds both presets, trains a small
run and compares every method through ``cli.main`` loads no ``scipy``
module at any of those steps.

Only ``nn`` (which defines them) and ``uncertainty`` name ``backward`` and
``softmax``: every gradient through the softmax takes the one VJP in
``backprop_mean_prob_grad``, and every prediction, ensemble mean and attack
gradient runs the one softmax-pass loop of ``uncertainty``. For the same
reason only they call ``forward``: every gradient record is one stacked
forward of ``uncertainty``. ``training`` keeps a ``forward`` binding for the
benchmark's tracer but calls nothing through it. Only they name
``MaskStack`` and ``sample_mask`` too: every MC call takes its masks from
one ``nn.sample_mask`` call. The stream tags ``"mc-pass"`` and
``"dropout-mask"`` occur as string literals in ``nn`` alone, so a new mask
stream changes the body of ``sample_mask`` and nothing else.

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
loop. ``training`` calls neither loss: ``euat_loss`` and
``partial(ce_pe_loss, lam=lam)`` are handed to ``_Run.fit`` as they are, so
no adapter stands between a loss and the update loop. Every
``LossResult`` is built in ``losses._weighted_ce_entropy``, and every
``PredictiveDistribution`` in ``uncertainty._recorded_mean``, the body of
``mc_predict`` and ``eval_predict``: a distribution always carries the
gradient records of its passes, and a score without them is an array.

Only ``uncertainty`` imports ``concurrent.futures`` or names
``ThreadPoolExecutor``: the MC passes of a prediction are the package's one
parallel path, on the one pass pool.

No ``json.dump``/``json.dumps`` call passes ``indent=``: that argument runs
the pure-Python encoder, while ``experiment._indented`` re-indents the
C encoder's compact text into the same bytes.

Each file name of a run directory (``manifest.json``, ``metrics.json``,
``per_epoch.csv``, ``histogram.csv``, ``predictions.csv``,
``checkpoint.json``) is a string constant exactly once in the package:
``experiment.RUN_FILES`` names them for every writer and reader.

No config class checks a JSON type in its ``__post_init__`` (no
``isinstance`` call there): ``ExperimentConfig.from_dict`` checks every
field against its declared type, and ``__post_init__`` keeps the range
checks only.
"""

import ast
import os
import subprocess
import sys
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


def scipy_imports(source: str) -> list[int]:
    """Lines of every ``import scipy...`` and ``from scipy... import``, at
    module top or inside any function or class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named = any(a.name.split(".")[0] == "scipy" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            named = node.level == 0 and (node.module or "").split(".")[0] == "scipy"
        else:
            continue
        if named:
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert scipy_imports(path.read_text()) == []


def test_scipy_import_detector_looks_at_every_depth():
    source = (
        "import scipy\n"
        "import numpy, scipy.special as sp\n"
        "from .scipy import x\n"
        "import scipyx\n"
        "def f():\n"
        "    from scipy.special import xlogy\n"
        "    class C:\n"
        "        def g(self):\n"
        "            from scipy import stats\n"
    )
    assert scipy_imports(source) == [1, 2, 6, 9]


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


MASK_STREAM_TAGS = ("mc-pass", "dropout-mask")


def string_literals(source: str, values) -> list[tuple[str, int]]:
    """(value, line) of every string constant equal to one of ``values``."""
    return sorted(
        (node.value, node.lineno) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and node.value in values
    )


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "nn.py"),
    ids=lambda p: p.name,
)
def test_only_nn_names_the_mask_stream_tags(path):
    assert string_literals(path.read_text(), MASK_STREAM_TAGS) == []


def test_stream_tag_detector_flags_string_constants_only():
    source = (
        "from . import rng\n"
        "def f(seed, i):\n"
        "    rng.derive_seed(seed, 'mc-pass', i)  # 'dropout-mask' in a comment\n"
        "    tag = \"dropout-mask\"\n"
        "    return f'{tag}', 'mc-pass-v2', mc_pass\n"
        "MC = 'mc-pass'\n"
    )
    assert string_literals(source, MASK_STREAM_TAGS) == [
        ("dropout-mask", 4), ("mc-pass", 3), ("mc-pass", 6)]
    assert len(string_literals((PACKAGE / "nn.py").read_text(), MASK_STREAM_TAGS)) == 2


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


def calls_by_function(source: str, names) -> list[tuple[str, str, int]]:
    """(enclosing module-level function or "", name, line) of every call of
    one of ``names``, as a bare name or an attribute."""
    tree = ast.parse(source)
    owner = {
        id(node): fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
    }
    return sorted(
        (owner.get(id(node), ""), name, node.lineno) for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in names
    )


def test_every_loss_result_is_built_by_the_loss_core():
    builders = [
        (path.name, fn) for path in sorted(PACKAGE.glob("*.py"))
        for fn, _, _ in calls_by_function(path.read_text(), ("LossResult",))
    ]
    assert builders == [("losses.py", "_weighted_ce_entropy")]


def test_function_call_detector_names_the_enclosing_function():
    source = (
        "from .losses import LossResult\n"
        "def _weighted_ce_entropy(dist, labels, w):\n"
        "    def inner():\n"
        "        return losses.LossResult(0.0, w, [], w)\n"
        "    return LossResult(0.0, w, [], w)\n"
        "def euat_loss(batch, dist):\n"
        "    return LossResult, LossResult(1.0, None, [], None)\n"
        "RESULT = LossResult(0.0, None, [], None)\n"
    )
    assert calls_by_function(source, ("LossResult",)) == [
        ("", "LossResult", 8),
        ("_weighted_ce_entropy", "LossResult", 4),
        ("_weighted_ce_entropy", "LossResult", 5),
        ("euat_loss", "LossResult", 7),
    ]


def test_every_predictive_distribution_is_built_with_its_records():
    builders = [
        (path.name, fn) for path in sorted(PACKAGE.glob("*.py"))
        for fn, _, _ in calls_by_function(path.read_text(), ("PredictiveDistribution",))
    ]
    assert builders == [("uncertainty.py", "_recorded_mean")]


def test_function_call_detector_gives_a_method_no_enclosing_function():
    source = (
        "from .uncertainty import PredictiveDistribution\n"
        "def _recorded_mean(runs, x):\n"
        "    return uncertainty.PredictiveDistribution(x, 1, runs)\n"
        "class Distribution:\n"
        "    def without_records(self):\n"
        "        return PredictiveDistribution(self.probs, 1, [])\n"
        "def eval_predict_probs(models, x):\n"
        "    build = lambda: PredictiveDistribution(x, 1, models)\n"
        "    return build().probs, PredictiveDistribution\n"
    )
    assert calls_by_function(source, ("PredictiveDistribution",)) == [
        ("", "PredictiveDistribution", 6),
        ("_recorded_mean", "PredictiveDistribution", 3),
        ("eval_predict_probs", "PredictiveDistribution", 8),
    ]


def test_every_metric_report_is_summarized_in_one_of_two_places():
    # the run report of every protocol and the per-epoch report row
    callers = [
        (path.name, fn) for path in sorted(PACKAGE.glob("*.py"))
        for fn, _, _ in calls_by_function(path.read_text(), ("summarize",))
    ]
    assert callers == [
        ("experiment.py", "protocol_eval"), ("training.py", "_report_row")
    ]


LOSSES = ("ce_pe_loss", "euat_loss")


def loss_uses(source: str) -> list[tuple[str, str, int]]:
    """(how, loss, line) of every use of a loss name, as a bare name or an
    attribute: "handed" when it is a positional argument of a ``fit`` or
    ``partial`` call, "other" (a call, an assignment, a return) otherwise.
    Imports are not uses."""
    tree = ast.parse(source)
    handed = {
        id(arg) for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("fit", "partial")
        for arg in node.args
    }
    return sorted(
        ("handed" if id(node) in handed else "other", name, node.lineno)
        for node in ast.walk(tree)
        if (name := getattr(node, "id", getattr(node, "attr", None))) in LOSSES
        and isinstance(node, (ast.Name, ast.Attribute))
    )


def test_training_hands_each_loss_to_the_update_loop_uncalled():
    uses = loss_uses((PACKAGE / "training.py").read_text())
    assert [(how, name) for how, name, _ in uses] == [
        ("handed", "ce_pe_loss"), ("handed", "euat_loss")]


def test_loss_use_detector_flags_adapters_and_calls():
    source = (
        "from .losses import ce_pe_loss, euat_loss\n"
        "def train(run, batches, lam, batch, dist):\n"
        "    def loss(batch, dist):\n"
        "        return ce_pe_loss(batch, dist, lam)\n"
        "    run.fit(batches, 1, 'sgd-mask', 1, partial(ce_pe_loss, lam=lam), None)\n"
        "    run.fit(batches, 1, 'euat-mask', 1, euat_loss, None)\n"
        "    res = losses.euat_loss(batch, dist)  # euat_loss in a comment\n"
        "    return run.fit(batches, 1, 'x', 1, loss, None), euat_loss\n"
    )
    assert loss_uses(source) == [
        ("handed", "ce_pe_loss", 5),
        ("handed", "euat_loss", 6),
        ("other", "ce_pe_loss", 4),
        ("other", "euat_loss", 7),
        ("other", "euat_loss", 8),
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


RUN_FILE_NAMES = (
    "manifest.json", "metrics.json", "per_epoch.csv",
    "histogram.csv", "predictions.csv", "checkpoint.json",
)


def test_each_run_file_name_is_one_constant():
    # a docstring that mentions a name is a longer constant and does not match
    found = sorted(
        value for path in sorted(PACKAGE.glob("*.py"))
        for value, _ in string_literals(path.read_text(), RUN_FILE_NAMES)
    )
    assert found == sorted(RUN_FILE_NAMES)


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


CONFIG_CLASSES = (
    "DatasetConfig", "ModelConfig", "ExperimentConfig",
    "TrainingSchedule", "AttackConfig", "CorruptionConfig",
)


def post_init_type_checks(source: str) -> list[tuple[str, int]]:
    """(class, line) of every ``isinstance`` call inside the ``__post_init__``
    of one of ``CONFIG_CLASSES``."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and cls.name in CONFIG_CLASSES):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                found.extend(
                    (cls.name, node.lineno) for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                )
    return found


def test_config_classes_check_no_json_type_after_construction():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    defined = {
        node.name for source in sources for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }
    assert set(CONFIG_CLASSES) <= defined
    assert [hit for source in sources for hit in post_init_type_checks(source)] == []


def test_post_init_detector_flags_isinstance_in_config_classes_only():
    source = (
        "class ModelConfig:\n"
        "    def __post_init__(self):\n"
        "        if self.width < 1:\n"
        "            raise ValueError('width')\n"
        "        for w in self.hidden:\n"
        "            if not isinstance(w, int):\n"
        "                raise ValueError('hidden')\n"
        "    def to_dict(self):\n"
        "        return isinstance(self, dict)\n"
        "class Other:\n"
        "    def __post_init__(self):\n"
        "        assert isinstance(self.x, int)\n"
    )
    assert post_init_type_checks(source) == [("ModelConfig", 6)]


SCIPY_FREE_RUN = """
import json, sys
from pathlib import Path


def assert_no_scipy(step):
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert loaded == [], (step, loaded)


from euatlab import cli, experiment, presets

assert_no_scipy("import euatlab")
presets.gaussian_trend_config()
presets.binary_flipping_config()
assert_no_scipy("presets")
out = Path(sys.argv[1])
small = ["--dataset", "gaussian_blobs", "--n", "160", "--noise", "0.08",
         "--hidden", "8", "--pretrain-epochs", "2", "--euat-epochs", "2",
         "--batch-size", "32", "--mc-samples", "4"]
code = cli.main(["train", *small, "--method", "euat", "--out", str(out / "train")])
assert code == 0, code
assert "uauc" in json.loads((out / "train" / "manifest.json").read_text())["reports"]["clean"]
assert_no_scipy("train")
code = cli.main(["compare", *small, "--ensemble-members", "2",
                 "--protocols", "clean,ood,attack",
                 "--methods", ",".join(experiment.METHODS), "--out", str(out / "compare")])
assert code == 0, code
assert_no_scipy("compare")
"""


def test_a_run_never_loads_scipy_stats(tmp_path):
    # the name predates the wider check: no scipy module loads at all
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
