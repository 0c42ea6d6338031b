"""Monte-Carlo-dropout predictive distributions and entropy scores.

A prediction is the average of N softmaxed stochastic forward passes, each
under a fresh dropout mask, or of one unmasked pass per model (evaluation
mode, or a deep ensemble); both run the one pass loop of this module. The
uncertainty score used throughout the package is the predictive entropy of
that averaged distribution, normalized by ln(class_count) so it lives in
[0, 1] regardless of the label space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from . import nn, rng

DEFAULT_MC_SAMPLES = 20


@dataclass
class PredictiveDistribution:
    """Class probabilities averaged over softmax passes.

    ``probs`` has shape (rows, class_count). When gradients are needed the
    per-pass probabilities and forward caches are retained in
    ``grad_passes`` so losses can backpropagate through the average.
    """

    probs: np.ndarray
    sample_count: int
    grad_passes: list[tuple[np.ndarray, "nn.ForwardCache"]] | None = field(
        default=None, repr=False
    )

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")

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
        gp = d_mean_probs * (1.0 / len(self.grad_passes))
        total: list[tuple[np.ndarray, np.ndarray]] | None = None
        input_grad = None
        for pass_probs, cache in self.grad_passes:
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


def _mc_passes(model: nn.MlpModel, n_samples: int, seed: int) -> list:
    """``(model, mask)`` of each MC pass: pass ``i`` uses the mask seeded by
    ``derive_seed(seed, "mc-pass", i)``; with dropout_rate == 0 there is a
    single unmasked pass."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if model.dropout_rate == 0.0:
        return [(model, None)]
    return [
        (model, nn.sample_mask(model, rng.derive_seed(seed, "mc-pass", i)))
        for i in range(n_samples)
    ]


def _mean_of_passes(
    passes: list, inputs: np.ndarray, keep_grad_records: bool = False
) -> PredictiveDistribution:
    """The one softmax-pass loop: mean softmax of the ``(model, mask | None)``
    passes over the 2-d batch ``inputs``, keeping each pass's
    ``(probs, cache)`` when asked.

    Consecutive passes of one model share its unmasked input layer.
    """
    x = np.asarray(inputs, dtype=np.float64)
    records = [] if keep_grad_records else None
    model = acc = None
    for m, mask in passes:
        if m is not model:
            model, first = m, nn.input_layer(m, x)
        logits, cache = nn.forward(m, x, mask, first)
        p = nn.softmax(logits)
        if records is not None:
            records.append((p, cache))
        acc = p if acc is None else acc + p
    return PredictiveDistribution(acc / len(passes), len(passes), records)


def mc_predict(
    model: nn.MlpModel,
    inputs: np.ndarray,
    n_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    keep_grad_records: bool = False,
) -> PredictiveDistribution:
    """Average ``n_samples`` masked softmax passes over the batch ``inputs``.

    Deterministic given the seed; pass seeds are derived per sample index.
    With dropout_rate == 0 a single deterministic pass is returned, which
    collapses bit-exactly to the evaluation-mode prediction for any N.
    """
    passes = _mc_passes(model, n_samples, seed)
    return _mean_of_passes(passes, inputs, keep_grad_records)


def mc_predict_probs(
    model: nn.MlpModel,
    inputs: np.ndarray,
    n_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> np.ndarray:
    """Averaged probabilities only, without per-pass records."""
    return _mean_of_passes(_mc_passes(model, n_samples, seed), inputs).probs


def eval_predict(
    models: list[nn.MlpModel], inputs: np.ndarray, keep_grad_records: bool = False
) -> PredictiveDistribution:
    """Average one unmasked (evaluation-mode) softmax pass per model over the
    batch ``inputs``: a single model's deterministic prediction, or a deep
    ensemble's, whose uncertainty is the entropy of the members' mean."""
    if not models:
        raise ValueError("eval_predict needs at least one model")
    return _mean_of_passes([(m, None) for m in models], inputs, keep_grad_records)


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
