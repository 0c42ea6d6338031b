"""Monte-Carlo-dropout predictive distributions and entropy scores.

A prediction is the average of N softmaxed stochastic forward passes, each
under a fresh dropout mask. The uncertainty score used throughout the
package is the predictive entropy of that averaged distribution, normalized
by ln(class_count) so it lives in [0, 1] regardless of the label space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from . import nn, rng

DEFAULT_MC_SAMPLES = 20


@dataclass
class PredictiveDistribution:
    """Class probabilities averaged over stochastic forward passes.

    ``probs`` has shape (class_count,) for a single input or
    (rows, class_count) for a batch. When gradients are needed the
    per-pass probabilities and forward caches are retained so losses can
    backpropagate through the Monte-Carlo average.
    """

    probs: np.ndarray
    sample_count: int
    per_sample_probs: np.ndarray | None = None
    grad_passes: list[tuple[np.ndarray, "nn.ForwardCache"]] | None = field(
        default=None, repr=False
    )

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")

    @property
    def class_count(self) -> int:
        return self.probs.shape[-1]

    def backprop_mean_prob_grad(
        self, d_mean_probs: np.ndarray
    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """Push a gradient w.r.t. the averaged probabilities back to the
        model parameters, summing contributions over all retained passes.

        Returns per-layer (d_weights, d_bias) plus the input gradient.
        """
        if not self.grad_passes:
            raise ValueError(
                "distribution has no gradient records; predict with "
                "keep_grad_records=True"
            )
        g = np.atleast_2d(np.asarray(d_mean_probs, dtype=np.float64))
        share = 1.0 / len(self.grad_passes)
        total: list[tuple[np.ndarray, np.ndarray]] | None = None
        input_grad = None
        for pass_probs, cache in self.grad_passes:
            gp = g * share
            # softmax vector-Jacobian product: dL/dz = p * (g - sum_k g_k p_k)
            gz = pass_probs * (gp - (gp * pass_probs).sum(axis=1, keepdims=True))
            grads, xg = nn.backward(cache, gz)
            if total is None:
                # nn.backward allocates fresh arrays: accumulate in place
                total, input_grad = grads, xg
            else:
                for (tw, tb), (gw, gb) in zip(total, grads):
                    tw += gw
                    tb += gb
                input_grad += xg
        return total, input_grad


def _mc_mean(
    model: nn.MlpModel,
    x: np.ndarray,
    n_samples: int,
    seed: int,
    passes: list | None = None,
) -> np.ndarray:
    """Mean softmax over the MC passes on the 2-d batch ``x``, appending each
    pass's ``(probs, cache)`` to ``passes`` when given.

    Pass ``i`` uses the mask seeded by ``derive_seed(seed, "mc-pass", i)``;
    with dropout_rate == 0 there is a single unmasked pass. All passes share
    one unmasked input layer.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    first = nn.input_layer(model, x)
    if model.dropout_rate == 0.0:
        masks = [None]
    else:
        masks = [
            nn.sample_mask(model, rng.derive_seed(seed, "mc-pass", i))
            for i in range(n_samples)
        ]
    acc = None
    for mask in masks:
        logits, cache = nn.forward(model, x, mask, first)
        p = nn.softmax(logits)
        if passes is not None:
            passes.append((p, cache))
        acc = p if acc is None else acc + p
    return acc / len(masks)


def mc_predict(
    model: nn.MlpModel,
    inputs: np.ndarray,
    n_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    keep_grad_records: bool = False,
) -> PredictiveDistribution:
    """Average ``n_samples`` masked softmax passes over ``inputs``.

    Deterministic given the seed; pass seeds are derived per sample index.
    With dropout_rate == 0 a single deterministic pass is returned, which
    collapses bit-exactly to the evaluation-mode prediction for any N.
    """
    x = np.asarray(inputs, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    passes = []
    mean = _mc_mean(model, x, n_samples, seed, passes)
    per_sample = np.stack([p for p, _ in passes])
    if single:
        mean = mean[0]
        per_sample = per_sample[:, 0, :]
    return PredictiveDistribution(
        probs=mean,
        sample_count=len(passes),
        per_sample_probs=per_sample,
        grad_passes=passes if keep_grad_records else None,
    )


def mc_predict_probs(
    model: nn.MlpModel,
    inputs: np.ndarray,
    n_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> np.ndarray:
    """Averaged probabilities only, without per-pass records."""
    return _mc_mean(model, np.asarray(inputs, dtype=np.float64), n_samples, seed)


def entropy(probs: np.ndarray):
    """Shannon entropy in nats along the last axis, with 0*ln(0) := 0."""
    p = np.asarray(probs, dtype=np.float64)
    h = -xlogy(p, p).sum(axis=-1)
    return float(h) if np.ndim(h) == 0 else h


def predictive_entropy(dist: PredictiveDistribution | np.ndarray):
    """Entropy of the MC-averaged distribution; in [0, ln(class_count)]."""
    probs = dist.probs if isinstance(dist, PredictiveDistribution) else dist
    return entropy(probs)


def normalized_entropy(dist: PredictiveDistribution | np.ndarray):
    """Predictive entropy divided by ln(class_count); in [0, 1]."""
    probs = dist.probs if isinstance(dist, PredictiveDistribution) else dist
    k = np.asarray(probs).shape[-1]
    if k < 2:
        raise ValueError(f"normalized entropy needs >= 2 classes, got {k}")
    return predictive_entropy(probs) / np.log(k)
