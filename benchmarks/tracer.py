"""Span tracer for the benchmark's traced runs.

The tracer lives outside the package: ``install`` replaces every public
function of each ``euatlab`` module with a wrapper that records a span
(name, parent span, start, end), and patches every module-level binding of
that function, so names imported with ``from .nn import forward`` are traced
too. Two methods are patched on their classes as well. ``uninstall``
restores the originals. Wrappers pass arguments and results through
untouched, so a traced run writes the same bytes as an untraced one.

A span's self time is its duration minus the durations of the spans nested
directly inside it. Besides spans, hooks record counts at the same
boundaries (forward FLOPs, MC passes, partition sizes, ...).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

from euatlab.losses import CORRECT_SET
from euatlab.uncertainty import DEFAULT_MC_SAMPLES

MODULES = (
    "rng", "nn", "uncertainty", "losses", "training", "metrics",
    "baselines", "robustness", "data", "experiment", "presets",
)

# (module, class, method) -> span name
METHODS = {
    ("uncertainty", "PredictiveDistribution", "backprop_mean_prob_grad"):
        "uncertainty.backprop_mean_prob_grad",
    ("experiment", "Predictor", "attacked"): "experiment.Predictor.attacked",
}


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _forward(counts, args, kwargs, result, parent):
    model, batch = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "batch")
    macs = sum(layer.weights.size for layer in model.layers)
    counts["nn.forward.flop"] += 2 * len(batch) * macs


def _sgd_step(counts, args, kwargs, result, parent):
    counts["nn.sgd_step.refused"] += result is False


def _checkpoint_json(counts, args, kwargs, result, parent):
    counts["nn.checkpoint_json.bytes"] += len(result.encode())


def _mc_predict(counts, args, kwargs, result, parent):
    counts["uncertainty.mc_predict.passes"] += result.sample_count


def _mc_predict_probs(counts, args, kwargs, result, parent):
    model = _arg(args, kwargs, 0, "model")
    n_samples = _arg(args, kwargs, 2, "n_samples", DEFAULT_MC_SAMPLES)
    passes = 1 if model.dropout_rate == 0.0 else n_samples
    counts["uncertainty.mc_predict_probs.row_passes"] += len(result) * passes


def _euat_loss(counts, args, kwargs, result, parent):
    membership = _arg(args, kwargs, 0, "batch").membership
    n_correct = int((membership == CORRECT_SET).sum())
    counts["losses.euat_loss.rows_correct"] += n_correct
    counts["losses.euat_loss.rows_wrong"] += len(membership) - n_correct
    if parent == "training.euat_train":
        counts.batches.append((n_correct, len(membership) - n_correct))


def _partition(counts, args, kwargs, result, parent):
    counts["training.partition.rows"] += len(result.correct) + len(result.wrong)
    counts["training.partition.wrong"] += len(result.wrong)


def _balanced_batches(counts, args, kwargs, result, parent):
    counts["training.balanced_batches.batches"] += len(result)


def _threshold_candidates(counts, args, kwargs, result, parent):
    if parent == "metrics.tune_threshold":
        counts["metrics.tune_threshold.candidates"] += len(result)


def _isotonic_apply(counts, args, kwargs, result, parent):
    counts["baselines.isotonic_apply.rows"] += len(result) if result.ndim == 2 else 1


def _train_method(counts, args, kwargs, result, parent):
    counts["training.diverged"] += bool(result.outcome and result.outcome.diverged)


HOOKS = {
    "nn.forward": _forward,
    "nn.sgd_step": _sgd_step,
    "nn.checkpoint_json": _checkpoint_json,
    "uncertainty.mc_predict": _mc_predict,
    "uncertainty.mc_predict_probs": _mc_predict_probs,
    "losses.euat_loss": _euat_loss,
    "training.partition": _partition,
    "training.balanced_batches": _balanced_batches,
    "metrics.threshold_candidates": _threshold_candidates,
    "baselines.isotonic_apply": _isotonic_apply,
    "experiment.train_method": _train_method,
}


class Counts(Counter):
    """Hook counters plus the per-batch (correct, wrong) row counts of every
    euat batch trained by ``euat_train``."""

    def __init__(self):
        super().__init__()
        self.batches: list[tuple[int, int]] = []


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts = Counts()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans = []
        self.counts = Counts()
        self._stack.clear()  # wrappers hold this list

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            span = [name, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result,
                     spans[parent][0] if parent >= 0 else None)
            return result

        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"euatlab.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "euatlab" or mod_name.startswith("euatlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])
        for (short, cls_name, meth), name in METHODS.items():
            cls = getattr(importlib.import_module(f"euatlab.{short}"), cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig))

    def uninstall(self):
        for target, attr, orig in reversed(self._restore):
            setattr(target, attr, orig)
        self._restore = []

    def summary(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self time in seconds)."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}


def _calls(name):
    return lambda summary, counts, run: summary.get(name, (0, 0.0))[0]


def _self_s(name):
    return lambda summary, counts, run: summary.get(name, (0, 0.0))[1]


def _count(key):
    return lambda summary, counts, run: counts[key]


def _stage(stage):
    return lambda summary, counts, run: run["stages"].get(stage, 0.0)


def _share(num, den):
    def value(summary, counts, run):
        total = den(counts)
        return num(counts) / total if total else 0.0

    return value


# name -> (unit, better, value from (span summary, hook counts, run facts))
LAYER_METRICS = {
    "rng.derive_seed.calls": ("count", "lower", _calls("rng.derive_seed")),
    "rng.derive_seed.self_s": ("s", "lower", _self_s("rng.derive_seed")),
    "rng.substream.calls": ("count", "lower", _calls("rng.substream")),
    "rng.substream.self_s": ("s", "lower", _self_s("rng.substream")),
    "nn.sample_mask.calls": ("count", "lower", _calls("nn.sample_mask")),
    "nn.sample_mask.self_s": ("s", "lower", _self_s("nn.sample_mask")),
    "nn.forward.calls": ("count", "lower", _calls("nn.forward")),
    "nn.forward.self_s": ("s", "lower", _self_s("nn.forward")),
    "nn.forward.gflop": (
        "gflop", "lower", lambda summary, counts, run: counts["nn.forward.flop"] / 1e9),
    "nn.backward.calls": ("count", "lower", _calls("nn.backward")),
    "nn.backward.self_s": ("s", "lower", _self_s("nn.backward")),
    "nn.sgd_step.calls": ("count", "lower", _calls("nn.sgd_step")),
    "nn.sgd_step.self_s": ("s", "lower", _self_s("nn.sgd_step")),
    "nn.sgd_step.refused": ("count", "lower", _count("nn.sgd_step.refused")),
    "nn.checkpoint_json.self_s": ("s", "lower", _self_s("nn.checkpoint_json")),
    "nn.checkpoint_json.bytes": ("bytes", "lower", _count("nn.checkpoint_json.bytes")),
    "uncertainty.mc_predict.calls": ("count", "lower", _calls("uncertainty.mc_predict")),
    "uncertainty.mc_predict.self_s": ("s", "lower", _self_s("uncertainty.mc_predict")),
    "uncertainty.mc_predict.passes": (
        "count", "lower", _count("uncertainty.mc_predict.passes")),
    "uncertainty.mc_predict_probs.calls": (
        "count", "lower", _calls("uncertainty.mc_predict_probs")),
    "uncertainty.mc_predict_probs.self_s": (
        "s", "lower", _self_s("uncertainty.mc_predict_probs")),
    "uncertainty.mc_predict_probs.row_passes": (
        "count", "lower", _count("uncertainty.mc_predict_probs.row_passes")),
    "uncertainty.backprop_mean_prob_grad.calls": (
        "count", "lower", _calls("uncertainty.backprop_mean_prob_grad")),
    "uncertainty.backprop_mean_prob_grad.self_s": (
        "s", "lower", _self_s("uncertainty.backprop_mean_prob_grad")),
    "losses.euat_loss.calls": ("count", "lower", _calls("losses.euat_loss")),
    "losses.euat_loss.self_s": ("s", "lower", _self_s("losses.euat_loss")),
    "losses.euat_loss.rows_correct": (
        "count", "lower", _count("losses.euat_loss.rows_correct")),
    "losses.euat_loss.rows_wrong": (
        "count", "lower", _count("losses.euat_loss.rows_wrong")),
    "losses.ce_pe_loss.calls": ("count", "lower", _calls("losses.ce_pe_loss")),
    "losses.ce_pe_loss.self_s": ("s", "lower", _self_s("losses.ce_pe_loss")),
    "training.partition.calls": ("count", "lower", _calls("training.partition")),
    "training.partition.self_s": ("s", "lower", _self_s("training.partition")),
    "training.partition.wrong_frac": ("frac", "lower", _share(
        lambda c: c["training.partition.wrong"], lambda c: c["training.partition.rows"])),
    "training.stratified_subsample.self_s": (
        "s", "lower", _self_s("training.stratified_subsample")),
    "training.balanced_batches.self_s": ("s", "lower", _self_s("training.balanced_batches")),
    "training.balanced_batches.batches": (
        "count", "lower", _count("training.balanced_batches.batches")),
    "training.evaluate_records.calls": ("count", "lower", _calls("training.evaluate_records")),
    "training.evaluate_records.self_s": ("s", "lower", _self_s("training.evaluate_records")),
    "training.selection_score.self_s": ("s", "lower", _self_s("training.selection_score")),
    # rows trained by the euat loss over rows the partition step classified
    "training.trained_row_frac": ("frac", "higher", _share(
        lambda c: c["losses.euat_loss.rows_correct"] + c["losses.euat_loss.rows_wrong"],
        lambda c: c["training.partition.rows"])),
    "training.skipped_epochs": (
        "count", "lower", lambda summary, counts, run: run["skipped_epochs"]),
    "training.diverged": ("count", "lower", _count("training.diverged")),
    "metrics.tune_threshold.calls": ("count", "lower", _calls("metrics.tune_threshold")),
    "metrics.tune_threshold.self_s": ("s", "lower", _self_s("metrics.tune_threshold")),
    "metrics.tune_threshold.candidates": (
        "count", "lower", _count("metrics.tune_threshold.candidates")),
    "metrics.build_ucm.calls": ("count", "lower", _calls("metrics.build_ucm")),
    "metrics.build_ucm.self_s": ("s", "lower", _self_s("metrics.build_ucm")),
    "metrics.uauc.self_s": ("s", "lower", _self_s("metrics.uauc")),
    "metrics.ece.self_s": ("s", "lower", _self_s("metrics.ece")),
    "metrics.wasserstein1.self_s": ("s", "lower", _self_s("metrics.wasserstein1")),
    "metrics.residual_correlation.self_s": (
        "s", "lower", _self_s("metrics.residual_correlation")),
    "metrics.summarize.self_s": ("s", "lower", _self_s("metrics.summarize")),
    "baselines.isotonic_apply.calls": ("count", "lower", _calls("baselines.isotonic_apply")),
    "baselines.isotonic_apply.self_s": ("s", "lower", _self_s("baselines.isotonic_apply")),
    "baselines.isotonic_apply.rows": ("count", "lower", _count("baselines.isotonic_apply.rows")),
    "baselines.isotonic_fit.self_s": ("s", "lower", _self_s("baselines.isotonic_fit")),
    "robustness.gaussian_corrupt.self_s": ("s", "lower", _self_s("robustness.gaussian_corrupt")),
    "robustness.fgsm.calls": ("count", "lower", _calls("robustness.fgsm")),
    "experiment.Predictor.attacked.self_s": (
        "s", "lower", _self_s("experiment.Predictor.attacked")),
    "data.generate_dataset.self_s": ("s", "lower", _self_s("data.generate_dataset")),
    **{
        f"experiment.stage.{stage}_s": ("s", "lower", _stage(stage))
        for stage in ("dataset", "train", "tune-threshold", "evaluate",
                      "flip", "ood", "attack", "persist")
    },
    "experiment.write_predictions_csv.self_s": (
        "s", "lower", _self_s("experiment.write_predictions_csv")),
    "experiment.artifact_bytes": (
        "bytes", "lower", lambda summary, counts, run: run["artifact_bytes"]),
}

# traced run_s over untraced run_s, minus 1; run.py computes it from both
OVERHEAD_METRIC = "trace.overhead_frac"

# metrics that vary from call to call (the manifest and per_epoch.csv hold
# timings, so even the artifact size moves); every other one repeats exactly
VARYING = {n for n, (unit, _, _) in LAYER_METRICS.items() if unit == "s"} | {
    "experiment.artifact_bytes"}


def layer_values(summary, counts, run) -> dict:
    """Every per-layer metric of one traced repetition."""
    return {name: fn(summary, counts, run) for name, (_, _, fn) in LAYER_METRICS.items()}
