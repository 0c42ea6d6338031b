"""Training loops.

The error-driven procedure assumes a CE-pretrained model. Every outer
epoch it re-partitions the training set into currently-correct and
currently-wrong examples, equalizes the two sets by stratified subsampling
of the larger one, mixes them into balanced mini-batches (half from each
set), and applies the two-branch loss. After each epoch the model is
evaluated on a disjoint validation set and the checkpoint maximizing the
selection metric is retained.

``ce_family_train`` is the one CE-family entry point: the plain SGD loop
that pretrains the error-driven method (``epochs=schedule.pretrain_epochs``,
no validation data) also trains the CE and CE+PE baselines and every
ensemble member, all from ``experiment.train_method`` (CE is the
lambda = 0 case of the same code path, which makes the two trajectories
bit-identical under equal seeds).

Both loops step through one update loop, ``_Run.fit``, and select through
``_Run.record``. A non-finite loss or a step ``sgd_step`` refuses (a
non-finite gradient) is a divergence, and it is not fatal: training stops,
the outcome keeps the validation-selected model (without validation data,
the model after the last accepted step) and sets ``TrainOutcome.diverged``.
A non-finite forward pass is fatal: it raises ``nn.EngineError``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import metrics, rng
from .losses import CORRECT_SET, WRONG_SET, LabeledBatch, ce_pe_loss, euat_loss
from .metrics import EvalRecords, records_from_probs
# nothing here calls ``forward``; the binding stays because the benchmark's
# tracer test (benchmarks/test_benchmark.py) patches and restores it
from .nn import EngineError, MlpModel, OptimizerState, forward, infer, sgd_step  # noqa: F401
from .robustness import AttackConfig, fgsm
from .uncertainty import mc_predict, mc_predict_probs

logger = logging.getLogger(__name__)

SELECTION_METRICS = ("ua", "uauc", "corr", "wasserstein", "error")

MAX_CONSECUTIVE_SKIPS = 3

REPORT_COLUMNS = (
    "epoch",
    "train_error",
    "val_error",
    "ua",
    "uauc",
    "ece",
    "wasserstein",
    "corr",
    "wall_time",
    "skipped",
)


@dataclass
class TrainingSchedule:
    pretrain_epochs: int = 30
    euat_epochs: int = 30
    pretrain_lr: float = 0.1
    euat_lr: float | None = None  # defaults to pretrain_lr / 1000
    batch_size: int = 64
    momentum: float = 0.9
    weight_decay: float = 0.0
    selection_metric: str = "uauc"
    train_mc_samples: int = 1  # stochastic passes per step in the CE-family loop

    def __post_init__(self):
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ValueError(f"batch_size must be even and >= 2, got {self.batch_size}")
        for name in ("pretrain_epochs", "euat_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.train_mc_samples < 1:
            raise ValueError(
                f"train_mc_samples must be >= 1, got {self.train_mc_samples}"
            )
        if self.euat_lr is None:
            self.euat_lr = self.pretrain_lr / 1000.0
        for name in ("pretrain_lr", "euat_lr", "weight_decay"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(
                    f"{name} must be finite and >= 0, got {getattr(self, name)}"
                )
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.selection_metric not in SELECTION_METRICS:
            raise ValueError(
                f"selection_metric must be one of {SELECTION_METRICS}, "
                f"got {self.selection_metric!r}"
            )


@dataclass
class PartitionedTrainSet:
    """Ids of currently-correct and currently-wrong training examples."""

    correct: np.ndarray
    wrong: np.ndarray
    epoch: int


@dataclass
class TrainOutcome:
    model: MlpModel
    report: list[dict] = field(default_factory=list)
    loss_trajectory: list[float] = field(default_factory=list)
    best_epoch: int | None = None
    diverged: bool = False


def predict_labels(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """Deterministic evaluation-mode argmax predictions."""
    return infer(model, inputs).argmax(axis=1)


def partition(
    model: MlpModel, inputs: np.ndarray, labels: np.ndarray, epoch: int = 0
) -> PartitionedTrainSet:
    """Split example ids by evaluation-mode prediction correctness."""
    correct = predict_labels(model, inputs) == np.asarray(labels)
    return PartitionedTrainSet(
        correct=np.flatnonzero(correct),
        wrong=np.flatnonzero(~correct),
        epoch=epoch,
    )


def stratified_subsample(
    ids: np.ndarray, target_size: int, labels: np.ndarray, seed: int
) -> np.ndarray:
    """Pick ``target_size`` ids preserving per-class proportions (largest
    remainder apportionment, ties to the lower class id).

    If target_size >= len(ids) the full id list passes through unchanged.
    """
    ids = np.asarray(ids)
    if target_size >= len(ids):
        if target_size > len(ids):
            logger.warning(
                "stratified_subsample: target %d > available %d, passing through",
                target_size,
                len(ids),
            )
        return ids.copy()
    labels = np.asarray(labels)
    classes, class_sizes = np.unique(labels[ids], return_counts=True)
    quotas = target_size * class_sizes / len(ids)
    counts = np.floor(quotas).astype(np.int64)
    leftover = target_size - counts.sum()
    if leftover > 0:
        order = np.lexsort((np.arange(len(classes)), -(quotas - counts)))
        counts[order[:leftover]] += 1
    gen = rng.substream(seed, "stratified-subsample")
    picks = []
    for cls, count in zip(classes, counts):
        members = ids[labels[ids] == cls]
        picks.append(gen.choice(members, size=count, replace=False))
    return np.concatenate(picks)


def balanced_batches(
    inputs: np.ndarray,
    labels: np.ndarray,
    correct_ids: np.ndarray,
    wrong_ids: np.ndarray,
    batch_size: int,
    seed: int,
) -> list[LabeledBatch]:
    """Mini-batches drawing half from each set, shuffled within the batch.

    Full batches hold exactly batch_size/2 rows per set; the final ragged
    batch keeps whatever remains on each side.
    """
    if batch_size % 2 != 0:
        raise ValueError(f"batch_size must be even, got {batch_size}")
    correct_ids = np.asarray(correct_ids)
    wrong_ids = np.asarray(wrong_ids)
    if len(correct_ids) == 0 and len(wrong_ids) == 0:
        return []
    gen = rng.substream(seed, "balanced-batches")
    c_order = gen.permutation(correct_ids)
    w_order = gen.permutation(wrong_ids)
    half = batch_size // 2
    n_batches = max(
        -(-len(c_order) // half) if len(c_order) else 0,
        -(-len(w_order) // half) if len(w_order) else 0,
    )
    batches = []
    for i in range(n_batches):
        c_part = c_order[i * half : (i + 1) * half]
        w_part = w_order[i * half : (i + 1) * half]
        ids = np.concatenate([c_part, w_part])
        membership = np.concatenate(
            [
                np.full(len(c_part), CORRECT_SET, dtype=np.int8),
                np.full(len(w_part), WRONG_SET, dtype=np.int8),
            ]
        )
        mix = gen.permutation(len(ids))
        ids, membership = ids[mix], membership[mix]
        batches.append(LabeledBatch(inputs[ids], labels[ids], membership))
    return batches


def evaluate_records(
    model: MlpModel, inputs: np.ndarray, labels: np.ndarray, n_mc: int, seed: int
) -> EvalRecords:
    """MC-dropout evaluation records for a labelled set."""
    probs = mc_predict_probs(model, inputs, n_mc, seed)
    return records_from_probs(probs, labels)


def selection_score(row: dict, metric: str) -> float:
    """Higher-is-better score of an epoch's report row for validation model
    selection; undefined metrics rank below every defined value."""
    if metric not in SELECTION_METRICS:
        raise ValueError(f"unknown selection metric {metric!r}")
    if metric == "error":
        return -row["val_error"]
    value = row[metric]
    return -np.inf if value is None else float(value)


def _report_row(epoch, train_error, records, wall_time, ece_bins, skipped=False) -> dict:
    report = metrics.summarize(records, metrics.tune_threshold(records, "ua"), ece_bins)
    return {
        "epoch": epoch,
        "train_error": float(train_error),
        "val_error": report["error"],
        "ua": report["ua"],
        "uauc": report["uauc"],
        "ece": report["ece"],
        "wasserstein": report["wasserstein"],
        "corr": report["corr_residual"],
        "wall_time": float(wall_time),
        "skipped": skipped,
    }


class _Run:
    """The work copy, optimizer state and outcome of one training loop, with
    the update loop, selection and divergence policy both loops share."""

    def __init__(self, model, lr, schedule, seed, val_inputs, val_labels, n_mc, ece_bins):
        self.work = model.copy()
        self.state = OptimizerState.for_model(
            self.work, lr, schedule.momentum, schedule.weight_decay
        )
        # the live work copy until an epoch is scored, then the best copy
        self.outcome = TrainOutcome(model=self.work)
        self.metric = schedule.selection_metric
        self.seed = seed
        self.val = (val_inputs, val_labels)
        self.n_mc = n_mc
        self.ece_bins = ece_bins
        self.best_score = -np.inf

    def fit(self, batches, epoch: int, tag: str, n_mc: int, loss, attack) -> bool:
        """One epoch of steps: per batch an optional attack, ``n_mc`` passes
        masked by ``derive_seed(seed, tag, epoch, b)`` and a step on
        ``loss(batch, dist)``'s ``LossResult``. Appends the epoch's mean
        loss; False (``diverged`` set) ends training."""
        total, rows = 0.0, 0
        for b, batch in enumerate(batches):
            if attack is not None:
                xb = fgsm([self.work], batch.inputs, batch.labels, attack)
                batch = LabeledBatch(xb, batch.labels, batch.membership)
            seed = rng.derive_seed(self.seed, tag, epoch, b)
            dist = mc_predict(self.work, batch.inputs, n_mc, seed)
            res = loss(batch, dist)
            if not (np.isfinite(res.value) and sgd_step(self.work, res.grads, self.state)):
                logger.warning("divergence at epoch %d batch %d; stopping", epoch, b)
                self.outcome.diverged = True
                return False
            total += res.value * len(batch)
            rows += len(batch)
        self.outcome.loss_trajectory.append(total / rows)
        return True

    def record(self, epoch: int, train_error, start: float, skipped=False):
        """Append the epoch's validation report row; a trained epoch scoring
        above every earlier one becomes the returned model."""
        seed = rng.derive_seed(self.seed, "val-eval", epoch)
        records = evaluate_records(self.work, *self.val, self.n_mc, seed)
        wall_time = time.perf_counter() - start
        row = _report_row(epoch, train_error, records, wall_time, self.ece_bins, skipped)
        self.outcome.report.append(row)
        if skipped:
            return
        score = selection_score(row, self.metric)
        if self.outcome.best_epoch is None or score > self.best_score:
            self.best_score = score
            self.outcome.model = self.work.copy()
            self.outcome.best_epoch = epoch


def ce_family_train(
    model: MlpModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    schedule: TrainingSchedule,
    epochs: int,
    seed: int,
    lam: float = 0.0,
    attack: AttackConfig | None = None,
    val_inputs: np.ndarray | None = None,
    val_labels: np.ndarray | None = None,
    n_mc_eval: int = 20,
    ece_bins: int = 15,
) -> TrainOutcome:
    """Minibatch SGD on CE + lam * PE at ``schedule.pretrain_lr``.

    With validation data every epoch is scored and the best checkpoint is
    returned (its report rows bin their ECE in ``ece_bins``); without it,
    the last one. With ``attack``, every mini-batch is replaced by its
    ``fgsm`` attack on the work copy before the update. A divergence ends
    training (see the module docstring).
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    run = _Run(model, schedule.pretrain_lr, schedule, seed, val_inputs, val_labels,
               n_mc_eval, ece_bins)
    n, size, mc = len(labels), schedule.batch_size, schedule.train_mc_samples
    select = val_inputs is not None
    loss = partial(ce_pe_loss, lam=lam)

    def record(epoch, start):
        run.record(epoch, np.mean(predict_labels(run.work, inputs) != labels), start)

    if select:
        record(0, time.perf_counter())
    for epoch in range(1, epochs + 1):
        start = time.perf_counter()
        order = rng.substream(seed, "sgd-shuffle", epoch).permutation(n)
        # a generator, so one batch of rows is alive at a time
        batches = (
            LabeledBatch(inputs[ids], labels[ids])
            for ids in (order[lo : lo + size] for lo in range(0, n, size))
        )
        if not run.fit(batches, epoch, "sgd-mask", mc, loss, attack):
            return run.outcome
        if select:
            record(epoch, start)
    return run.outcome


def euat_train(
    model: MlpModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    val_inputs: np.ndarray,
    val_labels: np.ndarray,
    schedule: TrainingSchedule,
    n_mc: int,
    seed: int,
    attack: AttackConfig | None = None,
    ece_bins: int = 15,
) -> TrainOutcome:
    """Error-driven training of a pre-trained model with validation-based
    checkpoint selection; the report rows bin their ECE in ``ece_bins``.

    Epochs where either partition side is empty are skipped (nothing to
    balance); three consecutive skips end training early. When ``attack``
    is given, partitioning is computed on ``fgsm`` attacks of the training
    rows, and every mini-batch of clean rows is attacked once before its
    update, so trained rows stay within the attack's bound of the clean
    rows. A divergence ends training (see the module docstring); a full
    batch without balanced halves raises ``nn.EngineError``.
    """
    run = _Run(model, schedule.euat_lr, schedule, seed, val_inputs, val_labels, n_mc,
               ece_bins)
    work = run.work
    n = len(labels)
    start = time.perf_counter()
    run.record(0, len(partition(work, inputs, labels, epoch=0).wrong) / n, start)
    epoch = skip_counter = 0
    while epoch < schedule.euat_epochs and skip_counter < MAX_CONSECUTIVE_SKIPS:
        epoch += 1
        start = time.perf_counter()
        part_inputs = inputs if attack is None else fgsm([work], inputs, labels, attack)
        part = partition(work, part_inputs, labels, epoch=epoch)
        if part.epoch != epoch:
            raise EngineError(f"partition of epoch {part.epoch} used in epoch {epoch}")
        train_error = len(part.wrong) / n

        if len(part.wrong) == 0 or len(part.correct) == 0:
            skip_counter += 1
            logger.info("epoch %d skipped (one partition side empty)", epoch)
            run.record(epoch, train_error, start, skipped=True)
            continue
        skip_counter = 0

        # equalize the two sets: the larger side is subsampled
        target = min(len(part.correct), len(part.wrong))
        sub_seed = rng.derive_seed(seed, "subsample", epoch)
        batches = balanced_batches(
            inputs, labels,
            stratified_subsample(part.correct, target, labels, sub_seed),
            stratified_subsample(part.wrong, target, labels, sub_seed),
            schedule.batch_size, rng.derive_seed(seed, "batches", epoch),
        )
        half = schedule.batch_size // 2
        for b, batch in enumerate(batches):
            if len(batch) == schedule.batch_size:
                n_correct = int(np.sum(batch.membership == CORRECT_SET))
                if n_correct != half or np.sum(batch.membership == WRONG_SET) != half:
                    raise EngineError(f"epoch {epoch} batch {b}: {n_correct} "
                                      f"correct rows, expected {half} of each side")
        if not run.fit(batches, epoch, "euat-mask", n_mc, euat_loss, attack):
            return run.outcome
        run.record(epoch, train_error, start)
    return run.outcome
