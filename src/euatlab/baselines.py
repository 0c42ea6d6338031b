"""Comparison methods: isotonic post-hoc calibration of the top-label
confidence, and the deep-ensemble record.

Every baseline trains in ``experiment.train_method``: the CE and CE+PE
baselines and each ensemble member are ``training.ce_family_train`` with
validation data (lambda = 0 for CE), so all share the validation-based
model selection. An ensemble predicts through
``uncertainty.eval_predict_probs`` over its members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import MlpModel


@dataclass
class IsotonicMap:
    """Monotone piecewise-linear map fitted on top-label confidences."""

    breakpoints: np.ndarray  # ascending confidences
    levels: np.ndarray  # non-decreasing calibrated values in [0, 1]

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=np.float64)
        self.levels = np.asarray(self.levels, dtype=np.float64)
        if self.breakpoints.shape != self.levels.shape:
            raise ValueError("breakpoints and levels must have equal length")
        if not (np.isfinite(self.breakpoints).all() and np.isfinite(self.levels).all()):
            raise ValueError("breakpoints and levels must be finite")
        if np.any(np.diff(self.breakpoints) < 0):
            raise ValueError("breakpoints must be ascending")
        if np.any(np.diff(self.levels) < -1e-15):
            raise ValueError("levels must be non-decreasing")

    def __call__(self, confidence):
        return np.clip(
            np.interp(confidence, self.breakpoints, self.levels), 0.0, 1.0
        )


def isotonic_fit(confidences: np.ndarray, correctness: np.ndarray) -> IsotonicMap:
    """Pool-adjacent-violators solution: the monotone least-squares fit of
    correctness against confidence."""
    conf = np.asarray(confidences, dtype=np.float64)
    y = np.asarray(correctness, dtype=np.float64)
    if conf.shape != y.shape or conf.ndim != 1:
        raise ValueError("confidences and correctness must be equal-length vectors")
    if len(conf) < 2:
        raise ValueError(f"isotonic fit needs >= 2 points, got {len(conf)}")

    order = np.argsort(conf, kind="stable")
    xs, inverse = np.unique(conf[order], return_inverse=True)
    weights = np.bincount(inverse).astype(np.float64)
    targets = np.bincount(inverse, weights=y[order]) / weights

    # PAV: maintain a stack of blocks with non-decreasing means
    block_value: list[float] = []
    block_weight: list[float] = []
    block_size: list[int] = []
    for value, weight in zip(targets, weights):
        block_value.append(float(value))
        block_weight.append(float(weight))
        block_size.append(1)
        while len(block_value) > 1 and block_value[-2] > block_value[-1]:
            v, w, s = block_value.pop(), block_weight.pop(), block_size.pop()
            merged = (block_value[-1] * block_weight[-1] + v * w) / (
                block_weight[-1] + w
            )
            block_value[-1] = merged
            block_weight[-1] += w
            block_size[-1] += s
    levels = np.repeat(block_value, block_size)
    return IsotonicMap(xs, np.clip(levels, 0.0, 1.0))


def isotonic_apply(mapping: IsotonicMap, probs: np.ndarray) -> np.ndarray:
    """Recalibrate the top-class probability and rescale the remaining mass
    proportionally over the other classes.

    The calibrated top probability is floored at the tie point with the
    second-largest class, so the predicted class never changes (standard
    contract for post-hoc calibration: confidences move, predictions do
    not).
    """
    batch = np.array(probs, dtype=np.float64)
    rows = np.arange(len(batch))
    top = np.argmax(batch, axis=1)
    p_top = batch[rows, top]
    rest = 1.0 - p_top
    others = batch.copy()
    others[rows, top] = -np.inf
    p_second = others.max(axis=1)  # -inf for one class: no tie point
    q = mapping(p_top)
    denom = rest + p_second
    positive = denom > 0
    tie = np.zeros(len(batch))
    tie[positive] = p_second[positive] / denom[positive]
    q = np.where(tie > q, tie, q)  # max(q, tie), keeping q on equality
    rescaled = rest > 0
    batch[rescaled] *= ((1.0 - q[rescaled]) / rest[rescaled])[:, None]
    batch[~rescaled] = ((1.0 - q[~rescaled]) / max(batch.shape[1] - 1, 1))[:, None]
    batch[rows, top] = q
    total = batch.sum(axis=1)
    off = np.abs(total - 1.0) > 1e-12  # leave float dust alone
    batch[off] /= total[off, None]
    # knife-edge ties from the floor: lift the top class one ulp above the
    # row's maximum and renormalise those rows
    edge = np.flatnonzero(np.argmax(batch, axis=1) != top)
    rows = batch[edge]
    rows[np.arange(len(edge)), top[edge]] = np.nextafter(rows.max(axis=1), np.inf)
    rows /= rows.sum(axis=1)[:, None]
    batch[edge] = rows
    return batch


@dataclass
class Ensemble:
    members: list[MlpModel]
    seeds: list[int]

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        first = self.members[0]
        for m in self.members:
            if m.class_count != first.class_count:
                raise ValueError("ensemble members must share class_count")

