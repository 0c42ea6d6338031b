"""Experiment orchestration: resolved configs, method training, threshold
tuning, test protocols (clean, flipping, noise OOD, gradient-sign attack),
and on-disk run artifacts.

A run directory contains the manifest (resolved config, stage log, file
digests), the per-epoch CSV, the metrics report JSON, uncertainty
histograms, a per-input prediction dump, and a self-contained checkpoint.
Metrics artifacts are deterministic given the config: replaying a manifest
reproduces them byte for byte, whatever width of pass pool ran the
predictions (the manifest records it as ``mc_pass_workers``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__, metrics, rng
from .baselines import Ensemble, IsotonicMap, isotonic_apply, isotonic_fit
from .data import DataError, Dataset, generate_dataset, load_idx, make_binary_task
from .metrics import EvalRecords, records_from_probs
from .nn import EngineError, MlpModel, checkpoint_json, model_from_checkpoint_dict
from .robustness import AttackConfig, CorruptionConfig, fgsm, gaussian_corrupt
from .training import REPORT_COLUMNS, TrainingSchedule, TrainOutcome
from .training import ce_family_train, euat_train
from .uncertainty import eval_predict_probs, mc_predict_probs, pool_use

METHODS = ("euat", "ce", "ce_pe", "calibrated_ce", "ensemble")
# the checkpoint kind a method writes, "mlp" if not listed
CHECKPOINT_KINDS = {"ensemble": "ensemble", "calibrated_ce": "calibrated"}

PROTOCOLS = ("clean", "flip", "ood", "attack")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


_JSON_TYPES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _check_json_type(name: str, kind, value):
    """Raise ``ConfigError`` unless ``value`` has the JSON type that ``kind``
    (``int``, ``float``, ``bool``, ``str``, ``X | None`` or ``list[X]``)
    declares: ``true`` is never a number, ``300.0`` is not an integer and
    ``null`` fits only a declared ``None``."""
    args = get_args(kind)
    optional = type(None) in args
    if optional:
        if value is None:
            return
        (kind,) = (a for a in args if a is not type(None))
    if get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        for item in value:
            _check_json_type(name, get_args(kind)[0], item)
        return
    if isinstance(value, bool):
        fits = kind is bool
    else:
        fits = isinstance(value, (int, float) if kind is float else kind)
    if not fits:
        null = " or null" if optional else ""
        raise ConfigError(f"{name} must be {_JSON_TYPES[kind]}{null}, got {value!r}")


def _build_config(cls, doc: dict):
    """``cls(**doc)`` with every field of ``doc`` checked against its
    declared type; a field declared as a config class is built from its own
    JSON object. An unknown field, a wrong JSON type or a range check's
    ``ValueError`` raises ``ConfigError``."""
    hints = get_type_hints(cls)
    kwargs = {}
    for name, value in doc.items():
        if name not in hints:
            raise ConfigError(f"unknown config field {name!r}")
        if is_dataclass(hints[name]):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {name!r} must be a JSON object")
            value = _build_config(hints[name], value)
        else:
            _check_json_type(name, hints[name], value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class DatasetConfig:
    kind: str = "gaussian_blobs"  # generator name or "idx"
    n: int = 2000
    noise: float = 0.1
    class_count: int = 2
    dim: int = 2  # blobs only: extra coordinates are uninformative
    val_fraction: float = 0.1
    test_fraction: float = 0.2
    binary_positive_class: int | None = None
    images_path: str | None = None
    labels_path: str | None = None

    def __post_init__(self):
        if self.class_count < 2:
            raise ConfigError(f"class_count must be >= 2, got {self.class_count}")


@dataclass
class ModelConfig:
    hidden: list[int] = field(default_factory=lambda: [32, 32])
    dropout_rate: float = 0.3

    def __post_init__(self):
        if any(w < 1 for w in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate {self.dropout_rate} is outside [0, 1)")


@dataclass
class ExperimentConfig:
    method: str = "euat"
    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    schedule: TrainingSchedule = field(default_factory=TrainingSchedule)
    mc_samples: int = 20
    ce_pe_lambda: float = 1.0
    ensemble_members: int = 5
    threshold_objective: str = "ua"
    ece_bins: int = 15
    histogram_bins: int = 50
    adversarial_training: bool = False
    attack: AttackConfig = field(default_factory=AttackConfig)
    corruption: CorruptionConfig = field(default_factory=CorruptionConfig)
    protocols: list[str] = field(default_factory=lambda: ["clean"])
    output_dir: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.threshold_objective not in ("ua", "flip_gain"):
            raise ConfigError(f"unknown threshold objective {self.threshold_objective!r}")
        for p in self.protocols:
            if p not in PROTOCOLS:
                raise ConfigError(f"unknown protocol {p!r}")
        for name in ("mc_samples", "ensemble_members", "ece_bins", "histogram_bins"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.ce_pe_lambda < np.inf:
            raise ConfigError(
                f"ce_pe_lambda must be finite and >= 0, got {self.ce_pe_lambda}"
            )
        surrogate = self.method in ("calibrated_ce", "ensemble")
        if surrogate and "attack" in self.protocols and self.attack.loss == "euat":
            # the two-branch loss belongs to one uncalibrated model
            raise ConfigError(f"{self.method} supports only the 'ce' attack loss")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build a config from its ``to_dict`` form; every invalid or
        unknown field or section raises ``ConfigError``. Legacy manifests: a
        ``corruption.seed`` (never read) and ``ensemble_full_budget: false``
        (the only value any run used) are dropped; ``true`` is rejected."""
        if not isinstance(doc, dict):
            raise ConfigError("a config must be a JSON object")
        doc = dict(doc)
        if doc.pop("ensemble_full_budget", False):
            raise ConfigError("ensemble_full_budget is no longer supported")
        if isinstance(doc.get("corruption"), dict):
            doc["corruption"] = dict(doc["corruption"])
            doc["corruption"].pop("seed", None)
        return _build_config(cls, doc)


def build_dataset(config: ExperimentConfig) -> Dataset:
    dc = config.dataset
    data_seed = rng.derive_seed(config.seed, "data")
    if dc.kind == "idx":
        if not dc.images_path or not dc.labels_path:
            raise ConfigError("idx dataset needs images_path and labels_path")
        ds = load_idx(
            dc.images_path, dc.labels_path, data_seed, dc.val_fraction, dc.test_fraction
        )
    else:
        ds = generate_dataset(
            dc.kind, dc.n, dc.noise, data_seed, dc.class_count,
            dc.val_fraction, dc.test_fraction, dc.dim,
        )
    for name, ids in ds.splits.items():
        if len(ids) == 0:
            raise ConfigError(f"the {name} split is empty; raise n or its fraction")
    if ds.class_count < 2:
        raise DataError(f"the dataset has {ds.class_count} class; need at least 2")
    if dc.binary_positive_class is not None:
        ds = make_binary_task(ds, dc.binary_positive_class)
    flips = "flip" in config.protocols or config.threshold_objective == "flip_gain"
    if flips and ds.class_count != 2:
        raise ConfigError(
            "the flip protocol and the flip_gain objective need a binary task, "
            f"got {ds.class_count} classes"
        )
    val_rows = len(ds.splits["validation"])
    if config.method == "calibrated_ce" and val_rows < 2:
        raise ConfigError(f"calibrated_ce needs >= 2 validation rows, got {val_rows}")
    # fgsm refuses rows outside its clip range: check each split it attacks
    lo, hi = config.attack.clip_min, config.attack.clip_max
    attacked = {"test": "attack" in config.protocols, "train": config.adversarial_training}
    for name in [name for name, on in attacked.items() if on]:
        ids = ds.splits[name]
        low, high = ds.inputs.min(axis=1)[ids].min(), ds.inputs.max(axis=1)[ids].max()
        if low < lo or high > hi:
            raise ConfigError(f"the attack clips to [clip_min, clip_max] = [{lo}, {hi}], "
                              f"but the {name} split spans [{low}, {high}]")
    return ds


def _layer_sizes(config: ExperimentConfig, dataset: Dataset) -> list[int]:
    return [dataset.inputs.shape[1], *config.model.hidden, dataset.class_count]


def build_model(config: ExperimentConfig, dataset: Dataset) -> MlpModel:
    return MlpModel.init(
        _layer_sizes(config, dataset), config.model.dropout_rate,
        rng.derive_seed(config.seed, "init-model"),
    )


@dataclass
class Predictor:
    """Uniform prediction surface over the trained artifact of any method."""

    model: MlpModel | None = None
    ensemble: Ensemble | None = None
    calibration: IsotonicMap | None = None
    n_mc: int = 20

    def probs(self, inputs: np.ndarray, seed: int) -> np.ndarray:
        if self.ensemble is not None:
            p = eval_predict_probs(self.ensemble.members, inputs)
        else:
            p = mc_predict_probs(self.model, inputs, self.n_mc, seed)
        if self.calibration is not None:
            p = isotonic_apply(self.calibration, p)
        return p

    def records(self, inputs, labels, seed) -> EvalRecords:
        return records_from_probs(self.probs(inputs, seed), labels)

    def attacked(self, inputs, labels, cfg: AttackConfig) -> np.ndarray:
        # calibration never changes the predicted class, so attacking the
        # base predictive distribution (the members' mean for ensembles)
        # is the faithful surrogate
        models = self.ensemble.members if self.ensemble is not None else [self.model]
        return fgsm(models, inputs, labels, cfg)


@dataclass
class TrainedMethod:
    predictor: Predictor
    outcome: TrainOutcome | None = None
    member_outcomes: list[TrainOutcome] | None = None  # ensembles only


def train_method(config: ExperimentConfig, dataset: Dataset) -> TrainedMethod:
    """Train the configured method on the dataset's train/validation splits;
    an ensemble divides the total epoch budget across its members, so every
    method consumes the same number of gradient samples."""
    x_train, y_train = dataset.split("train")
    x_val, y_val = dataset.split("validation")
    schedule = config.schedule
    attack = config.attack if config.adversarial_training else None
    n_mc = config.mc_samples
    budget = schedule.pretrain_epochs + schedule.euat_epochs
    train_selected = partial(
        ce_family_train, inputs=x_train, labels=y_train, schedule=schedule,
        attack=attack, val_inputs=x_val, val_labels=y_val, n_mc_eval=n_mc,
        ece_bins=config.ece_bins,
    )

    if config.method == "ensemble":
        seeds = [
            rng.derive_seed(config.seed, "ensemble-member", i)
            for i in range(config.ensemble_members)
        ]
        sizes = _layer_sizes(config, dataset)
        outcomes = [
            train_selected(
                MlpModel.init(sizes, config.model.dropout_rate, s),
                epochs=max(budget // len(seeds), 1), seed=s,
            )
            for s in seeds
        ]
        ens = Ensemble([o.model for o in outcomes], seeds)
        predictor = Predictor(ensemble=ens, n_mc=n_mc)
        return TrainedMethod(predictor, member_outcomes=outcomes)

    model = build_model(config, dataset)
    seed = rng.derive_seed(config.seed, "train")
    if config.method == "euat":
        pre = ce_family_train(
            model, x_train, y_train, schedule,
            epochs=schedule.pretrain_epochs, seed=seed, attack=attack,
        )
        out = euat_train(
            pre.model, x_train, y_train, x_val, y_val, schedule,
            n_mc, seed, attack=attack, ece_bins=config.ece_bins,
        )
        out.loss_trajectory = pre.loss_trajectory + out.loss_trajectory
        out.diverged = out.diverged or pre.diverged
        return TrainedMethod(Predictor(model=out.model, n_mc=n_mc), out)

    # ce, ce_pe, calibrated_ce
    lam = config.ce_pe_lambda if config.method == "ce_pe" else 0.0
    out = train_selected(model, epochs=budget, seed=seed, lam=lam)
    predictor = Predictor(model=out.model, n_mc=n_mc)
    if config.method == "calibrated_ce":
        records = predictor.records(
            x_val, y_val, rng.derive_seed(config.seed, "calibration-eval")
        )
        predictor.calibration = isotonic_fit(
            records.confidence, records.correct.astype(np.float64)
        )
    return TrainedMethod(predictor, out)


def tune_on_validation(
    predictor: Predictor, dataset: Dataset, config: ExperimentConfig
) -> float:
    records = predictor.records(
        *dataset.split("validation"), rng.derive_seed(config.seed, "threshold-eval")
    )
    return metrics.tune_threshold(records, config.threshold_objective)


def protocol_eval(
    name: str,
    predictor: Predictor,
    dataset: Dataset,
    threshold: float,
    config: ExperimentConfig,
    split: str = "test",
) -> tuple[EvalRecords, np.ndarray, dict]:
    """Records, probabilities and report of one protocol on one split.

    ``clean`` scores the split's rows, ``ood`` a Gaussian-corrupted and
    ``attack`` a gradient-sign attacked copy of them, each with the metric
    suite. ``flip`` (binary tasks only) inverts the predicted class wherever
    normalized entropy exceeds the threshold and reports both error rates
    plus F1, precision, TPR and TNR of the flipped predictions, with the
    metric suite under ``"metrics"``.
    """
    inputs, labels = dataset.split(split)
    extra = {}
    if name == "ood":
        sigma = config.corruption.sigma
        inputs = gaussian_corrupt(
            inputs, sigma, rng.derive_seed(config.seed, "ood-noise")
        )
        extra = {"sigma": sigma}
    elif name == "attack":
        clean = inputs
        inputs = predictor.attacked(clean, labels, config.attack)
        # one buffer for the distance, and the clean rows go before the
        # attacked ones are scored
        dist = np.subtract(inputs, clean)
        del clean
        extra = {
            "epsilon": config.attack.epsilon,
            "linf": float(np.max(np.abs(dist, out=dist))),
        }
        del dist
    tag = "test-eval" if name == "clean" else f"{name}-eval"
    probs = predictor.probs(inputs, rng.derive_seed(config.seed, tag))
    if name == "flip" and probs.shape[1] != 2:
        raise ConfigError("flip evaluation needs a binary task")
    records = records_from_probs(probs, labels)
    report = metrics.summarize(records, threshold, config.ece_bins)
    if name != "flip":
        return records, probs, {**report, **extra}

    pred, labels = records.pred_label, records.true_label
    uncertain = records.uncertainty > threshold
    flipped = np.where(uncertain, 1 - pred, pred)
    tp = int(np.sum((flipped == 1) & (labels == 1)))
    tn = int(np.sum((flipped == 0) & (labels == 0)))
    fp = int(np.sum((flipped == 1) & (labels == 0)))
    fn = int(np.sum((flipped == 0) & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    tpr = tp / (tp + fn) if tp + fn else 0.0
    tnr = tn / (tn + fp) if tn + fp else 0.0
    f1 = 2 * precision * tpr / (precision + tpr) if precision + tpr else 0.0
    return records, probs, {
        "threshold": float(threshold),
        "error_without_flip": float(np.mean(pred != labels)),
        "error_with_flip": float(np.mean(flipped != labels)),
        "flipped_count": int(np.sum(uncertain)),
        "f1": f1,
        "precision": precision,
        "tpr": tpr,
        "tnr": tnr,
        "metrics": report,
    }


# a run of plain text (numbers, literals, ", " and ": "), then one string,
# empty container or bracket; the last match ends the text with no token
_JSON_TOKENS = re.compile(
    r'([^"\[\]{}]*)("[^"\\]*(?:\\.[^"\\]*)*"|\[\]|\{\}|[\[\]{}]?)'
)


def _indented(text: str) -> bytes:
    """The bytes of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``
    from the compact ``json.dumps(doc, sort_keys=True)`` text of ``doc``.

    The C encoder formats every number once; ``indent=`` would run the
    pure-Python encoder. Outside strings, ", " only separates items.
    """
    out = []
    newline = "\n"  # plus the indent of the current depth
    for run, token in _JSON_TOKENS.findall(text):
        out.append(run.replace(", ", "," + newline))
        if token in ("[", "{"):
            newline += "  "
            out.append(token + newline)
        elif token in ("]", "}"):
            newline = newline[:-2]
            out.append(newline + token)
        else:
            out.append(token)
    out.append("\n")
    return "".join(out).encode()


def _json_bytes(doc) -> bytes:
    return _indented(json.dumps(doc, sort_keys=True))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_epoch_csv(path, reports: dict[int, list[dict]]):
    """Per-epoch rows for every member (member 0 = the single model)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["member", *REPORT_COLUMNS])
        for member, rows in reports.items():
            for row in rows:
                writer.writerow(
                    [member] + [_fmt(row.get(c, "")) for c in REPORT_COLUMNS]
                )


def write_histogram_csv(path, records: EvalRecords, n_bins: int):
    edges, c_counts, w_counts = metrics.uncertainty_histograms(records, n_bins)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_low", "bin_high", "correct_count", "wrong_count"])
        for i in range(n_bins):
            writer.writerow(
                [_fmt(float(edges[i])), _fmt(float(edges[i + 1])),
                 int(c_counts[i]), int(w_counts[i])]
            )


def write_predictions_csv(path, records: EvalRecords, probs: np.ndarray):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        k = probs.shape[1]
        writer.writerow(
            ["id", "true_label", "pred_label", "normalized_entropy"]
            + [f"p{c}" for c in range(k)]
        )
        rows = zip(
            records.true_label.tolist(), records.pred_label.tolist(),
            map(repr, records.uncertainty.tolist()), probs.tolist(),
        )
        writer.writerows(
            [i, true, pred, entropy, *map(repr, p)]
            for i, (true, pred, entropy, p) in enumerate(rows)
        )


def predictor_checkpoint(predictor: Predictor) -> str:
    """Compact, key-sorted JSON text of the predictor, built around each
    model's ``checkpoint_json`` string so no weight is formatted twice."""
    if predictor.ensemble is not None:
        members = ", ".join(checkpoint_json(m) for m in predictor.ensemble.members)
        seeds = json.dumps(predictor.ensemble.seeds)
        return f'{{"kind": "ensemble", "members": [{members}], "seeds": {seeds}}}'
    text = checkpoint_json(predictor.model)
    if predictor.calibration is None:
        return text
    calibration = json.dumps({
        "breakpoints": predictor.calibration.breakpoints.tolist(),
        "levels": predictor.calibration.levels.tolist(),
    }, sort_keys=True)
    return (
        f'{{"base": {text}, "calibration": {calibration}, "kind": "calibrated"}}'
    )


def predictor_from_checkpoint(doc: dict, config: ExperimentConfig) -> Predictor:
    """The predictor of ``doc``, a checkpoint of the kind ``config.method``
    writes; another kind raises ``EngineError``."""
    kind, n_mc = doc.get("kind"), config.mc_samples
    expected = CHECKPOINT_KINDS.get(config.method, "mlp")
    if kind != expected:
        raise EngineError(f"kind {kind!r}, but method {config.method!r} writes {expected!r}")
    if kind == "ensemble":
        members = [model_from_checkpoint_dict(m) for m in doc["members"]]
        return Predictor(ensemble=Ensemble(members, doc["seeds"]), n_mc=n_mc)
    if kind == "calibrated":
        return Predictor(
            model=model_from_checkpoint_dict(doc["base"]),
            calibration=IsotonicMap(
                np.array(doc["calibration"]["breakpoints"]),
                np.array(doc["calibration"]["levels"]),
            ),
            n_mc=n_mc,
        )
    return Predictor(model=model_from_checkpoint_dict(doc), n_mc=n_mc)


def _make_dir(path) -> Path:
    """Create the directory ``path`` and its parents; one that cannot be
    created (a file of that name, say) is a ``ConfigError``."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create run directory {path}: {exc}") from exc
    return path


def run_experiment(config: ExperimentConfig, output_dir=None) -> dict:
    """Dataset -> training -> threshold tuning -> protocols -> artifacts.

    Returns the manifest; writes everything under ``output_dir`` (falls
    back to ``config.output_dir``); a directory that cannot be created
    raises ``ConfigError`` before any stage runs. Stage failures are
    recorded in the manifest before the exception propagates.
    """
    out_dir = _make_dir(output_dir or config.output_dir or ".")
    manifest = {
        "code_version": __version__,
        "config": config.to_dict(),
        "stages": [],
        "files": {},
    }
    started = time.perf_counter()
    pooled_before = pool_use()[0]

    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            manifest["stages"].append(
                {"stage": name, "status": "failed", "error": str(exc)}
            )
            (out_dir / "manifest.json").write_bytes(_json_bytes(manifest))
            raise
        manifest["stages"].append(
            {"stage": name, "status": "ok",
             "wall_time": time.perf_counter() - t0}
        )
        return result

    dataset = stage("dataset", lambda: build_dataset(config))
    trained = stage("train", lambda: train_method(config, dataset))
    outcomes = trained.member_outcomes or [trained.outcome]
    manifest["diverged"] = any(o.diverged for o in outcomes)
    threshold = stage(
        "tune-threshold", lambda: tune_on_validation(trained.predictor, dataset, config)
    )
    manifest["tuned_threshold"] = threshold

    evaluation = (trained.predictor, dataset, threshold, config)
    records, probs, clean_report = stage(
        "evaluate", partial(protocol_eval, "clean", *evaluation)
    )
    reports = {"clean": clean_report}
    for name in PROTOCOLS[1:]:
        if name in config.protocols:
            reports[name] = stage(name, partial(protocol_eval, name, *evaluation))[2]

    def persist():
        metrics_bytes = _json_bytes(reports)
        (out_dir / "metrics.json").write_bytes(metrics_bytes)
        write_epoch_csv(
            out_dir / "per_epoch.csv", {i: o.report for i, o in enumerate(outcomes)}
        )
        write_histogram_csv(out_dir / "histogram.csv", records, config.histogram_bins)
        write_predictions_csv(out_dir / "predictions.csv", records, probs)
        checkpoint_bytes = _indented(predictor_checkpoint(trained.predictor))
        (out_dir / "checkpoint.json").write_bytes(checkpoint_bytes)
        manifest["files"] = {
            "metrics": "metrics.json",
            "per_epoch": "per_epoch.csv",
            "histogram": "histogram.csv",
            "predictions": "predictions.csv",
            "checkpoint": "checkpoint.json",
        }
        manifest["digests"] = {
            "metrics": hashlib.sha256(metrics_bytes).hexdigest(),
            "checkpoint": hashlib.sha256(checkpoint_bytes).hexdigest(),
        }

    stage("persist", persist)
    manifest["reports"] = reports
    # the pool width the run's predictions split their passes over, 1 if
    # every prediction ran its passes serially
    pooled, workers = pool_use()
    manifest["mc_pass_workers"] = workers if pooled > pooled_before else 1
    manifest["wall_time"] = time.perf_counter() - started
    (out_dir / "manifest.json").write_bytes(_json_bytes(manifest))
    return manifest


def _load_manifest(path) -> tuple[dict, ExperimentConfig]:
    """A run manifest and its config; an unreadable one is a ``ConfigError``."""
    try:
        manifest = json.loads(Path(path).read_text())
        doc = manifest["config"]
    # ValueError includes json.JSONDecodeError
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load manifest {path}: {exc}") from exc
    return manifest, ExperimentConfig.from_dict(doc)


def load_run(run_dir) -> tuple[ExperimentConfig, Predictor, dict]:
    """Reload the config, trained predictor, and manifest of a finished run;
    a bad manifest (also one without a numeric ``tuned_threshold`` in
    [0, 1]) raises ``ConfigError``, a bad checkpoint ``EngineError``."""
    run_dir = Path(run_dir)
    manifest, config = _load_manifest(run_dir / "manifest.json")
    threshold = manifest.get("tuned_threshold")
    # every comparison with NaN is False, so a NaN threshold fails too
    if (isinstance(threshold, bool) or not isinstance(threshold, (int, float))
            or not 0 <= threshold <= 1):
        raise ConfigError(
            f"manifest {run_dir / 'manifest.json'} has no numeric tuned_threshold"
            f" in [0, 1], got {threshold!r}"
        )
    path = run_dir / "checkpoint.json"
    try:
        checkpoint = json.loads(path.read_text())
        predictor = predictor_from_checkpoint(checkpoint, config)
    # ValueError includes json.JSONDecodeError; a non-object fails .get()
    except (OSError, KeyError, TypeError, AttributeError, ValueError) as exc:
        raise EngineError(f"bad checkpoint {path}: {exc}") from exc
    return config, predictor, manifest


def _rows_sans_wall_time(path) -> list[list[str]]:
    """The rows of a per-epoch CSV without its ``wall_time`` column; a file
    whose header lacks that column (also an empty one) is a ``ConfigError``."""
    try:
        with open(path) as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not rows or "wall_time" not in rows[0]:
        raise ConfigError(f"{path} has no header with a wall_time column")
    drop = rows[0].index("wall_time")
    return [[c for i, c in enumerate(r) if i != drop] for r in rows]


def replay(manifest_path, output_dir) -> dict:
    """Re-execute a manifest's config and byte-compare the metric artifacts.

    Wall-time columns are excluded from the per-epoch comparison; every
    other reported number must match exactly. An ``output_dir`` that is the
    original run's directory (which would compare each file with itself), a
    missing original, or an original ``per_epoch.csv`` without a
    ``wall_time`` header raises ``ConfigError`` before anything is re-run.
    """
    original_dir = Path(manifest_path).parent
    _, config = _load_manifest(manifest_path)
    if Path(output_dir).resolve() == original_dir.resolve():
        raise ConfigError(f"cannot replay into the original run directory {output_dir}")
    byte_compared = (
        "metrics.json", "histogram.csv", "predictions.csv", "checkpoint.json"
    )
    for name in byte_compared + ("per_epoch.csv",):
        if not (original_dir / name).is_file():
            raise ConfigError(
                f"cannot replay {manifest_path}: original {name} is missing"
            )
    original_epochs = _rows_sans_wall_time(original_dir / "per_epoch.csv")
    run_experiment(config, output_dir)

    identical = {}
    for name in byte_compared:
        identical[name] = (
            (original_dir / name).read_bytes() == (Path(output_dir) / name).read_bytes()
        )
    identical["per_epoch.csv"] = original_epochs == _rows_sans_wall_time(
        Path(output_dir) / "per_epoch.csv"
    )
    return {"identical": all(identical.values()), "files": identical}


COMPARE_METRICS = (
    "error", "ua", "uauc", "ece", "wasserstein", "corr_residual", "threshold"
)


def compare_methods(
    config: ExperimentConfig, methods: list[str], output_dir
) -> dict:
    """Run several methods on the identical dataset/seed and tabulate the
    clean-test metrics side by side (one row per metric). An empty or
    repeated method list, an ``output_dir`` that cannot be created, or a
    method whose config or dataset fails its checks raises before any
    method trains or writes a file."""
    if not methods or len(set(methods)) != len(methods):
        raise ConfigError(f"compare needs distinct methods, got {methods}")
    configs = []  # every method's config and dataset is checked before any training
    for method in methods:
        doc = config.to_dict()
        doc["method"] = method
        configs.append(ExperimentConfig.from_dict(doc))
    out_dir = _make_dir(output_dir)
    for sub in configs:
        build_dataset(sub)
    columns = {
        sub.method: run_experiment(sub, out_dir / sub.method)["reports"]["clean"]
        for sub in configs
    }
    table = [
        [metric] + [columns[m].get(metric) for m in methods]
        for metric in COMPARE_METRICS
    ]
    with open(out_dir / "compare.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric"] + list(methods))
        for row in table:
            writer.writerow([_fmt(v) for v in row])
    return {"methods": list(methods), "table": table}
