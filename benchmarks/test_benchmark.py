"""Self-test of the benchmark: tracing changes no output byte, traced
counts repeat exactly, every per-layer metric is exercised by some
workload, and BENCHMARK.json matches what the command prints.

    python3 -m pytest benchmarks/test_benchmark.py -q

Takes about a minute: it runs each workload once untraced and twice traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from worker import run_rep  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

from euatlab import experiment, nn, training  # noqa: E402

# counters of failures, zero on healthy workloads
FAILURE_COUNTERS = {"nn.sgd_step.refused", "training.skipped_epochs", "training.diverged"}
# the calibrated predictor of wide-eval attacks through Predictor.attacked,
# which has its own gradient-sign step, so no workload reaches fgsm itself
NOT_REACHED = {"robustness.fgsm.calls"}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Workload -> (one untraced repetition, two traced repetitions)."""
    scratch = tmp_path_factory.mktemp("reps")
    out = {}
    for name in WORKLOADS:
        config = build_config(name, 0)
        untraced = run_rep(experiment, config, scratch, "untraced")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = [run_rep(experiment, config, scratch, "traced", tracer) for _ in range(2)]
        finally:
            tracer.uninstall()
        out[name] = untraced, traced
    return out


def test_every_repetition_passes_its_checks(runs):
    for name, (untraced, traced) in runs.items():
        for rep in [untraced, *traced]:
            assert rep["problems"] == [], (name, rep["phase"])


def test_traced_digests_equal_untraced(runs):
    for name, (untraced, traced) in runs.items():
        for rep in traced:
            assert rep["digests"] == untraced["digests"], name


def test_per_layer_counts_repeat_exactly(runs):
    for name, (_, (first, second)) in runs.items():
        for metric, value in first["layers"].items():
            if metric not in tracing.VARYING:
                assert second["layers"][metric] == value, (name, metric)


def test_every_layer_metric_is_nonzero_on_some_workload(runs):
    silent = set(tracing.LAYER_METRICS) - FAILURE_COUNTERS - NOT_REACHED
    for untraced, traced in runs.values():
        silent -= {m for m, v in traced[0]["layers"].items() if v}
        if traced[0]["run_s"] != untraced["run_s"]:
            silent.discard(tracing.OVERHEAD_METRIC)
    assert silent == set()


def test_exempt_counters_are_zero(runs):
    for _, traced in runs.values():
        for metric in FAILURE_COUNTERS | NOT_REACHED:
            assert traced[0]["layers"][metric] == 0, metric


def test_uninstall_restores_every_binding():
    forward, euat_loss = training.forward, training.euat_loss
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert training.forward is not forward and nn.forward is training.forward
    finally:
        tracer.uninstall()
    assert training.forward is forward and nn.forward is forward
    assert training.euat_loss is euat_loss


def test_benchmark_json_matches_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.units(0)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.units(1)
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "gaussian-euat",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
