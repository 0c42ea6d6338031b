"""The benchmark tracer patches the package by name.

``benchmarks/tracer.py`` wraps the functions its ``HOOKS`` name and the
methods its ``METHODS`` name; a rename or deletion in the package would
otherwise surface only as an error in every traced benchmark repetition.
The tracer is loaded from its file and never modified.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from euatlab import experiment, nn, training

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
