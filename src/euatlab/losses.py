"""Differentiable losses over MC-dropout predictive distributions.

All losses act on the *averaged* distribution and backpropagate through
every retained stochastic pass. Probabilities are clamped to
[CLAMP_MIN, 1] inside each logarithm, which removes the only singularity;
the clamped region contributes a constant slope so finite differences and
analytic gradients agree everywhere the engine can land.

Both losses are the batch mean of per-row CE + w * H, where H is the
predictive entropy. CE+PE weighs every row by w = lambda. The error-driven
composite treats the two halves of a batch differently: rows flagged as
current mispredictions take w = -1 (pushing their uncertainty up),
correctly predicted rows w = +1 (pushing it down).

Every loss has one contract: ``loss(batch, dist) -> LossResult``, where
``dist`` is the MC prediction of ``batch.inputs`` (``ce_pe_loss`` takes
``lam`` after them, so training binds it with ``functools.partial``). Its
gradient is the parameter gradient that training steps on; the two-branch
attack asks ``euat_loss`` for the input gradient instead (``wrt="input"``),
and only the one asked for is computed. ``_weighted_ce_entropy`` builds
every ``LossResult``; the losses choose the weights and check their
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .uncertainty import PredictiveDistribution

CLAMP_MIN = 1e-12

# membership flags for error-driven batches
CORRECT_SET = 1
WRONG_SET = 0


@dataclass
class LabeledBatch:
    """Inputs, integer labels, and (for error-driven training) per-row
    membership flags in {CORRECT_SET, WRONG_SET}."""

    inputs: np.ndarray
    labels: np.ndarray
    membership: np.ndarray | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.membership is not None:
            self.membership = np.asarray(self.membership, dtype=np.int8)
            if self.membership.shape != self.labels.shape:
                raise ValueError("membership flags must be per-row")

    def __len__(self) -> int:
        return self.labels.shape[0]


@dataclass
class LossResult:
    """What every loss returns: the batch mean, the per-row CE + w * H it
    averages, and the one gradient of the mean its caller asked for: the
    parameter gradients (``input_grad`` None) or the input gradient
    (``grads`` None)."""

    value: float
    per_row: np.ndarray
    grads: list[tuple[np.ndarray, np.ndarray]] | None
    input_grad: np.ndarray | None


def _ce_rows(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row -ln(p_label) and the gradient of their *sum* w.r.t. probs."""
    rows = np.arange(probs.shape[0])
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (probs.shape[0],):
        raise ValueError(f"labels shape {labels.shape} != ({probs.shape[0]},)")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError("label out of range for class count")
    p_label = probs[rows, labels]
    values = -np.log(np.clip(p_label, CLAMP_MIN, 1.0))
    grad = np.zeros_like(probs)
    live = p_label > CLAMP_MIN
    grad[rows[live], labels[live]] = -1.0 / p_label[live]
    return values, grad


def _entropy_rows(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row clamped entropy and the gradient of their sum w.r.t. probs."""
    logp = np.log(np.clip(probs, CLAMP_MIN, 1.0))
    values = -(probs * logp).sum(axis=1)
    grad = np.where(probs > CLAMP_MIN, -(logp + 1.0), -np.log(CLAMP_MIN))
    return values, grad


def _weighted_ce_entropy(
    dist: PredictiveDistribution, labels: np.ndarray, w: np.ndarray, wrt: str
) -> LossResult:
    """The one loss core: per-row CE + w * H of the averaged distribution,
    with the ``wrt`` gradient of their batch mean through every retained
    pass (``backprop_mean_prob_grad``'s selector)."""
    ce_vals, ce_grad = _ce_rows(dist.probs, labels)
    h_vals, h_grad = _entropy_rows(dist.probs)
    values = ce_vals + w * h_vals
    d_probs = (ce_grad + w[:, None] * h_grad) / len(values)
    grad = dist.backprop_mean_prob_grad(d_probs, wrt)
    params = wrt == "params"
    return LossResult(float(values.mean()), values, grad if params else None,
                      None if params else grad)


def ce_pe_loss(
    batch: LabeledBatch, dist: PredictiveDistribution, lam: float
) -> LossResult:
    """Cross-entropy plus ``lam`` times predictive entropy over ``dist``, the
    MC prediction of ``batch.inputs``; ``lam = 0`` is plain cross-entropy."""
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    w = np.full(len(batch), float(lam))
    return _weighted_ce_entropy(dist, batch.labels, w, "params")


def euat_loss(
    batch: LabeledBatch, dist: PredictiveDistribution, wrt: str = "params"
) -> LossResult:
    """Error-driven composite over ``dist``, the MC prediction of
    ``batch.inputs``: CE - H on WRONG_SET rows and CE + H on CORRECT_SET
    rows. A branch's sum is ``per_row[batch.membership == CORRECT_SET].sum()``
    (or ``WRONG_SET``). ``wrt="input"`` returns the input gradient (the
    two-branch attack's) in place of the parameter gradients."""
    if batch.membership is None:
        raise ValueError("error-driven loss needs per-row membership flags")
    w = np.where(batch.membership == CORRECT_SET, 1.0, -1.0)
    return _weighted_ce_entropy(dist, batch.labels, w, wrt)
