"""Gradient-sign adversarial examples and Gaussian-noise corruption.

``fgsm`` is the one attack of every predictor and of adversarial
training. It takes one signed gradient step of size epsilon in the L-inf
ball and clips back into the valid input range; the gradient is computed
in evaluation mode (no dropout) so the attack is a deterministic function
of (models, input, label, config). A final projection keeps the measured
L-inf distance at or below epsilon even under float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .losses import CORRECT_SET, WRONG_SET, LabeledBatch, euat_loss
from .nn import MlpModel
from .uncertainty import eval_predict


@dataclass
class AttackConfig:
    epsilon: float = 4.0 / 255.0
    clip_min: float = 0.0
    clip_max: float = 1.0
    loss: str = "ce"  # "euat" attacks through the full two-branch loss

    def __post_init__(self):
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not self.clip_min < self.clip_max:
            raise ValueError(
                f"clip_min must be below clip_max, got {self.clip_min} and {self.clip_max}"
            )
        if self.loss not in ("ce", "euat"):
            raise ValueError(f"attack loss must be 'ce' or 'euat', got {self.loss!r}")


@dataclass
class CorruptionConfig:
    sigma: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


def ce_input_grad(
    models: list[MlpModel], inputs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Evaluation-mode CE input gradient of the mean softmax of ``models``
    (one model, or every ensemble member), through the shared softmax VJP."""
    labels = np.asarray(labels, dtype=np.int64)
    dist = eval_predict(models, inputs)
    mean = dist.probs
    rows = np.arange(len(labels))
    d_mean = np.zeros_like(mean)
    d_mean[rows, labels] = -1.0 / np.clip(mean[rows, labels], 1e-12, 1.0)
    return dist.backprop_mean_prob_grad(d_mean, "input")


def _euat_input_grad(model: MlpModel, inputs: np.ndarray, labels: np.ndarray):
    # deterministic variant: one unmasked pass, membership from the argmax
    # of its logits (the evaluation-mode predictions), slice 0 of its stack
    dist = eval_predict([model], inputs)
    _, cache = dist.grad_passes[0]
    correct = cache.logits[0].argmax(axis=1) == labels
    membership = np.where(correct, CORRECT_SET, WRONG_SET).astype(np.int8)
    return euat_loss(LabeledBatch(inputs, labels, membership), dist, "input").input_grad


def fgsm(
    models: list[MlpModel], inputs: np.ndarray, labels: np.ndarray, cfg: AttackConfig
) -> np.ndarray:
    """x' = clip(x + eps * sign(dL/dx)); exact L-inf bound.

    L is the CE of the mean softmax of ``models`` (one model, or every
    ensemble member), or with ``cfg.loss == "euat"`` the two-branch loss of
    a single model. No gradient is taken when epsilon is zero.
    """
    x = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(x < cfg.clip_min) or np.any(x > cfg.clip_max):
        raise ValueError("inputs must lie within [clip_min, clip_max]")
    if cfg.epsilon == 0.0:
        return x.copy()
    if cfg.loss == "ce":
        adv = ce_input_grad(models, x, labels)
    else:
        (model,) = models  # the two-branch loss is defined for one model
        adv = _euat_input_grad(model, x, labels)
    # the step is built inside the fresh gradient array, the same ufuncs on
    # the same operands as clip(x + eps * sign(grad)): a product and a sum
    # are the same bits in either operand order
    np.sign(adv, out=adv)
    adv *= cfg.epsilon
    adv += x
    np.clip(adv, cfg.clip_min, cfg.clip_max, out=adv)
    # project away half-ulp overshoot so the measured distance never
    # exceeds epsilon; one distance buffer and one mask serve every round
    dist = np.empty_like(adv)
    over = np.empty(adv.shape, dtype=bool)
    for _ in range(3):
        np.subtract(adv, x, out=dist)
        np.abs(dist, out=dist)
        np.greater(dist, cfg.epsilon, out=over)
        if not over.any():
            break
        np.nextafter(adv, x, out=adv, where=over)
    return adv


def gaussian_corrupt(inputs: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """x' = clip(x + sigma * z) with per-coordinate standard normal z."""
    x = np.asarray(inputs, dtype=np.float64)
    if sigma == 0.0:
        return x.copy()
    # the noise array becomes the result: the same products, sums and clip
    # as clip(x + sigma * z) with no temporary of the input's size
    z = rng.substream(seed, "gaussian-corrupt").standard_normal(x.shape)
    z *= sigma
    z += x
    return np.clip(z, 0.0, 1.0, out=z)

