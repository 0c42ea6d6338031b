"""The benchmark tracer patches the package by name.

``benchmarks/tracer.py`` wraps the functions its ``HOOKS`` name and the
methods its ``METHODS`` name; a rename or deletion in the package would
otherwise surface only as an error in every traced benchmark repetition.
The tracer is loaded from its file and never modified.
"""

import functools
import importlib
import importlib.util
import inspect
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from euatlab import experiment, nn, training, uncertainty

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings() -> dict:
    """(module, name) -> object of every binding in every package module."""
    return {
        (mod_name, attr): obj
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and mod_name.split(".")[0] == "euatlab"
        for attr, obj in vars(mod).items()
    }


def test_every_hook_names_a_public_package_function(tracer):
    for name in tracer.HOOKS:
        short, attr = name.split(".")
        assert short in tracer.MODULES, name
        module = importlib.import_module(f"euatlab.{short}")
        fn = getattr(module, attr, None)
        assert not attr.startswith("_"), name
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


def test_every_traced_method_is_defined_on_its_class(tracer):
    for short, cls_name, method in tracer.METHODS:
        cls = getattr(importlib.import_module(f"euatlab.{short}"), cls_name)
        assert inspect.isfunction(cls.__dict__.get(method)), (cls_name, method)


def test_install_and_uninstall_round_trip(tracer):
    # install imports every traced module; import them first, so both
    # snapshots cover the same modules also when this file runs alone
    for short in tracer.MODULES:
        importlib.import_module(f"euatlab.{short}")
    before = package_bindings()
    forward, attacked = nn.forward, experiment.Predictor.__dict__["attacked"]
    traced = tracer.Tracer()
    traced.install()
    try:
        assert nn.forward is not forward and training.forward is nn.forward
        assert experiment.Predictor.__dict__["attacked"] is not attacked
    finally:
        traced.uninstall()
    assert nn.forward is forward and training.forward is forward
    assert experiment.Predictor.__dict__["attacked"] is attacked
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_pooled_predictions_trace_repeatably_on_the_calling_thread(tracer, monkeypatch):
    # the tracer keeps one span stack and unlocked counters: a span opened
    # on a pool thread could interleave with the caller's and lose counts
    executor = ThreadPoolExecutor(2)
    monkeypatch.setattr(uncertainty, "_new_pool", lambda: (executor, 2))
    monkeypatch.setattr(uncertainty, "_pool", None)
    span_threads = set()

    class ThreadNoting(tracer.Tracer):
        def _wrap(self, name, fn):
            traced = super()._wrap(name, fn)

            @functools.wraps(fn)
            def noted(*args, **kwargs):
                span_threads.add(threading.get_ident())
                return traced(*args, **kwargs)

            return noted

    model = nn.MlpModel.init([64, 128, 128, 10], 0.2, seed=0)
    x = np.random.default_rng(0).normal(size=(200, 64))
    assert 200 * (128 * 128 + 128 * 10) >= uncertainty.POOL_MIN_WORK
    before = uncertainty.pool_use()[0]
    traced = ThreadNoting()
    traced.install()
    try:
        calls = []
        for _ in range(3):
            traced.reset()
            uncertainty.mc_predict_probs(model, x, 20, seed=5)
            spans = {name: n for name, (n, _) in traced.summary().items()}
            calls.append((spans, dict(traced.counts)))
    finally:
        traced.uninstall()
        executor.shutdown()
    assert uncertainty.pool_use()[0] == before + 3
    assert calls[0] == calls[1] == calls[2]
    spans, counts = calls[0]
    assert spans["uncertainty.mc_predict_probs"] == 1
    assert spans["nn.sample_mask"] == 20
    assert counts["uncertainty.mc_predict_probs.row_passes"] == 200 * 20
    assert span_threads == {threading.get_ident()}
