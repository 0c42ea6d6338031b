"""Training loops.

The error-driven procedure assumes a CE-pretrained model. Every outer
epoch it re-partitions the training set into currently-correct and
currently-wrong examples, equalizes the two sets by stratified subsampling
of the larger one, mixes them into balanced mini-batches (half from each
set), and applies the two-branch loss. After each epoch the model is
evaluated on a disjoint validation set and the checkpoint maximizing the
selection metric is retained.

The plain SGD loop used for pretraining also backs the CE and CE+PE
baselines (CE is the lambda = 0 case of the same code path, which makes
the two trajectories bit-identical under equal seeds).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics, rng
from .losses import CORRECT_SET, WRONG_SET, LabeledBatch, ce_pe_loss, euat_loss
from .metrics import EvalRecords, records_from_probs
from .nn import MlpModel, OptimizerState, forward, save_checkpoint, sgd_step
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
)


class TrainingDivergence(RuntimeError):
    """Raised when training cannot produce any finite checkpoint."""


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
        if self.euat_lr is None:
            self.euat_lr = self.pretrain_lr / 1000.0
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
    logits, _ = forward(model, inputs)
    return logits.argmax(axis=1)


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


def stop_condition(epoch: int, schedule: TrainingSchedule, skip_counter: int) -> bool:
    """True once the epoch budget is exhausted or the skip rule fires."""
    return epoch >= schedule.euat_epochs or skip_counter >= MAX_CONSECUTIVE_SKIPS


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


def _report_row(epoch, train_error, records, wall_time, skipped=False) -> dict:
    t = metrics.tune_threshold(records, "ua")
    correct = records.correct
    u_c, u_w = records.uncertainty[correct], records.uncertainty[~correct]
    return {
        "epoch": epoch,
        "train_error": float(train_error),
        "val_error": metrics.error_rate(records),
        "ua": metrics.uncertainty_accuracy(metrics.build_ucm(records, t)),
        "uauc": metrics.uauc(records),
        "ece": metrics.ece(records),
        "wasserstein": (
            metrics.wasserstein1(u_c, u_w) if len(u_c) and len(u_w) else None
        ),
        "corr": metrics.residual_correlation(records),
        "wall_time": float(wall_time),
        "skipped": skipped,
    }


def ce_family_train(
    model: MlpModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    schedule: TrainingSchedule,
    epochs: int,
    seed: int,
    lam: float = 0.0,
    attack=None,
    val_inputs: np.ndarray | None = None,
    val_labels: np.ndarray | None = None,
    n_mc_eval: int = 20,
) -> TrainOutcome:
    """Minibatch SGD on CE + lam * PE at ``schedule.pretrain_lr``.

    With validation data every epoch is scored and the best checkpoint is
    returned; without it, the last one. ``attack`` is an optional hook
    (model, x, y) -> x' applied to every mini-batch before the update.
    Divergence aborts with the last finite end-of-epoch checkpoint.
    """
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    work = model.copy()
    state = OptimizerState.for_model(
        work, schedule.pretrain_lr, schedule.momentum, schedule.weight_decay
    )
    n = len(labels)
    outcome = TrainOutcome(model=work)
    snapshot = work.copy()
    select = val_inputs is not None

    def epoch_score(epoch, start):
        records = evaluate_records(
            work, val_inputs, val_labels, n_mc_eval, rng.derive_seed(seed, "val-eval", epoch)
        )
        train_error = float(
            np.mean(predict_labels(work, inputs) != labels)
        )
        row = _report_row(epoch, train_error, records, time.perf_counter() - start)
        outcome.report.append(row)
        return selection_score(row, schedule.selection_metric)

    if select:
        best_score = epoch_score(0, time.perf_counter())
        outcome.best_epoch = 0
        best_model = work.copy()

    for epoch in range(1, epochs + 1):
        start = time.perf_counter()
        order = rng.substream(seed, "sgd-shuffle", epoch).permutation(n)
        total, rows = 0.0, 0
        for b, lo in enumerate(range(0, n, schedule.batch_size)):
            ids = order[lo : lo + schedule.batch_size]
            xb, yb = inputs[ids], labels[ids]
            if attack is not None:
                xb = attack(work, xb, yb)
            dist = mc_predict(
                work,
                xb,
                schedule.train_mc_samples,
                seed=rng.derive_seed(seed, "sgd-mask", epoch, b),
                keep_grad_records=True,
            )
            value, grads = ce_pe_loss(dist, yb, lam)
            if not np.isfinite(value) or not sgd_step(work, grads, state):
                logger.warning("divergence at epoch %d batch %d; reverting", epoch, b)
                outcome.diverged = True
                outcome.model = snapshot
                return outcome
            total += value * len(ids)
            rows += len(ids)
        outcome.loss_trajectory.append(total / rows)
        snapshot = work.copy()
        if select:
            score = epoch_score(epoch, start)
            if score > best_score:
                best_score, best_model = score, work.copy()
                outcome.best_epoch = epoch

    outcome.model = best_model if select else work
    return outcome


def pretrain(
    model: MlpModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    schedule: TrainingSchedule,
    seed: int,
    attack=None,
) -> TrainOutcome:
    """Standard CE minibatch SGD for ``schedule.pretrain_epochs`` epochs."""
    return ce_family_train(
        model,
        inputs,
        labels,
        schedule,
        epochs=schedule.pretrain_epochs,
        seed=seed,
        attack=attack,
    )


def euat_train(
    model: MlpModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    val_inputs: np.ndarray,
    val_labels: np.ndarray,
    schedule: TrainingSchedule,
    n_mc: int,
    seed: int,
    attack=None,
    checkpoint_dir=None,
) -> TrainOutcome:
    """Error-driven training of a pre-trained model with validation-based
    checkpoint selection.

    Epochs where either partition side is empty are skipped (nothing to
    balance); three consecutive skips end training early. When ``attack``
    is given, partitioning is computed on attacked versions of the training
    rows, and every mini-batch of clean rows is attacked once before its
    update, so trained rows stay within the attack's bound of the clean
    rows. Checkpointing
    is in-memory; ``checkpoint_dir`` additionally spills every end-of-epoch
    model to disk.
    """
    work = model.copy()
    state = OptimizerState.for_model(
        work, schedule.euat_lr, schedule.momentum, schedule.weight_decay
    )
    outcome = TrainOutcome(model=work)
    n = len(labels)

    def val_records(epoch):
        return evaluate_records(
            work, val_inputs, val_labels, n_mc, rng.derive_seed(seed, "val-eval", epoch)
        )

    start = time.perf_counter()
    records = val_records(0)
    part0 = partition(work, inputs, labels, epoch=0)
    row = _report_row(0, len(part0.wrong) / n, records, time.perf_counter() - start)
    outcome.report.append(row)
    best_score = selection_score(row, schedule.selection_metric)
    best_model = work.copy()
    outcome.best_epoch = 0

    snapshot = work.copy()
    skip_counter = 0
    epoch = 0
    while not stop_condition(epoch, schedule, skip_counter):
        epoch += 1
        start = time.perf_counter()
        part_inputs = inputs if attack is None else attack(work, inputs, labels)
        part = partition(work, part_inputs, labels, epoch=epoch)
        assert part.epoch == epoch
        train_error = len(part.wrong) / n

        if len(part.wrong) == 0 or len(part.correct) == 0:
            skip_counter += 1
            logger.info("epoch %d skipped (one partition side empty)", epoch)
            outcome.report.append(
                _report_row(
                    epoch, train_error, val_records(epoch),
                    time.perf_counter() - start, skipped=True,
                )
            )
            continue
        skip_counter = 0

        # equalize the two sets: subsample whichever side is larger
        target = min(len(part.correct), len(part.wrong))
        sub_seed = rng.derive_seed(seed, "subsample", epoch)
        if len(part.correct) >= len(part.wrong):
            c_ids = stratified_subsample(part.correct, target, labels, sub_seed)
            w_ids = part.wrong
        else:
            c_ids = part.correct
            w_ids = stratified_subsample(part.wrong, target, labels, sub_seed)

        batches = balanced_batches(
            inputs,
            labels,
            c_ids,
            w_ids,
            schedule.batch_size,
            rng.derive_seed(seed, "batches", epoch),
        )
        half = schedule.batch_size // 2
        for b, batch in enumerate(batches):
            if len(batch) == schedule.batch_size:
                assert int(np.sum(batch.membership == CORRECT_SET)) == half
                assert int(np.sum(batch.membership == WRONG_SET)) == half
            if attack is not None:
                xb = attack(work, batch.inputs, batch.labels)
                batch = LabeledBatch(xb, batch.labels, batch.membership)
            res = euat_loss(
                batch, work, n_mc, seed=rng.derive_seed(seed, "euat-mask", epoch, b)
            )
            if not np.isfinite(res.value) or not sgd_step(work, res.grads, state):
                logger.warning("divergence at epoch %d batch %d; reverting", epoch, b)
                outcome.diverged = True
                outcome.model = snapshot
                return outcome
        snapshot = work.copy()
        if checkpoint_dir is not None:
            out = Path(checkpoint_dir)
            out.mkdir(parents=True, exist_ok=True)
            save_checkpoint(work, out / f"epoch-{epoch:03d}.json", seed=seed)

        row = _report_row(
            epoch, train_error, val_records(epoch), time.perf_counter() - start
        )
        outcome.report.append(row)
        score = selection_score(row, schedule.selection_metric)
        if score > best_score:
            best_score, best_model = score, work.copy()
            outcome.best_epoch = epoch

    outcome.model = best_model
    return outcome
