"""Monte-Carlo-dropout predictive distributions and entropy scores.

A prediction is the average of N softmaxed stochastic forward passes, each
under a fresh dropout mask, or of one unmasked pass per model (evaluation
mode, or a deep ensemble); both run the one pass loop of this module, which
takes the passes as ``(model, nn.MaskStack)`` runs: one run of N masks for
an MC call, one unmasked run per model for ``eval_predict``. The
uncertainty score used throughout the package is the predictive entropy of
that averaged distribution, normalized by ln(class_count) so it lives in
[0, 1] regardless of the label space.

The passes of a prediction without gradient records are independent, so
when they are large enough they run on a process-wide thread pool, one
thread per CPU the process may use (BLAS itself stays single-threaded).
Each pass makes the same gemm and ufunc calls on the same operands as a
serial one, and the calling thread checks, softmaxes and sums the logits
in pass order, so the probabilities are bit-identical.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from . import nn, rng

DEFAULT_MC_SAMPLES = 20

# per-pass work (rows x weights of the layers a pass computes itself) from
# which pooled passes run: on a 2-vCPU Xeon with single-threaded OpenBLAS,
# 20 pooled passes broke even with serial ones at about 1e6 and were faster
# from about 2e6 (a 2-8-2 net on 450 rows does 7,200; 784-256-256-10 on
# 2,000 rows, 136e6)
POOL_MIN_WORK = 2_000_000


@dataclass
class PredictiveDistribution:
    """Class probabilities averaged over softmax passes.

    ``probs`` has shape (rows, class_count). When gradients are needed
    ``grad_passes`` keeps one ``(probs, cache)`` record per run of passes,
    each from one ``nn.forward``: its probabilities are (passes, rows,
    class_count), in pass order, so losses can backpropagate through the
    average.
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
        model parameters, summing contributions over all retained passes:
        one softmax VJP and one ``nn.backward`` per record.

        Returns per-layer (d_weights, d_bias) plus the input gradient.
        """
        if not self.grad_passes:
            raise ValueError(
                "distribution has no gradient records; predict with "
                "keep_grad_records=True"
            )
        gp = d_mean_probs * (1.0 / self.sample_count)
        total: list[tuple[np.ndarray, np.ndarray]] | None = None
        input_grad = None
        for pass_probs, cache in self.grad_passes:
            # softmax vector-Jacobian product: dL/dz = p * (g - sum_k g_k p_k)
            gz = pass_probs * (gp - (gp * pass_probs).sum(axis=-1, keepdims=True))
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
    """The one ``(model, MaskStack)`` run of an MC call: pass ``i`` uses the
    mask seeded by ``derive_seed(seed, "mc-pass", i)``, and the N one-pass
    masks are concatenated in pass order; with dropout_rate == 0 the run is
    a single unmasked pass."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if model.dropout_rate == 0.0:
        return [(model, nn.MaskStack(None, 1))]
    masks = [nn.sample_mask(model, rng.derive_seed(seed, "mc-pass", i))
             for i in range(n_samples)]
    scales = [np.concatenate(layer) for layer in zip(*(m.scales for m in masks))]
    return [(model, nn.MaskStack(scales, n_samples))]


_pool: tuple[ThreadPoolExecutor, int] | None = None
_pool_lock = threading.Lock()
_pooled_predictions = 0


def _new_pool() -> tuple[ThreadPoolExecutor, int]:
    """The pass pool and its width: one thread per CPU this process may use."""
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(workers, thread_name_prefix="euatlab-pass"), workers


def _pass_pool() -> tuple[ThreadPoolExecutor, int]:
    """The process-wide pass pool, built on first use; its threads start
    only when a pooled prediction submits work."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = _new_pool()
        return _pool


def _forget_pool():
    # a forked child has none of its parent's pool threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def pool_use() -> tuple[int, int]:
    """(predictions whose passes ran on the pool so far in this process,
    the pool's width, 1 while no pool exists)."""
    return _pooled_predictions, _pool[1] if _pool is not None else 1


def _run_passes(loops: list) -> list[np.ndarray]:
    """The logits of ``nn._layer_loop`` calls, one per argument tuple. Pool
    threads run it, so it calls no public package function: the benchmark
    tracer wraps those and keeps a single span stack."""
    return [nn._layer_loop(*loop) for loop in loops]


def _hidden_buffers(model: nn.MlpModel, rows: int, start: int) -> list:
    """``(masked input, output)`` arrays of layers ``start, ...`` of a pass of
    ``model`` over ``rows`` rows, for ``nn._layer_loop``; the last layer's
    output is left to each pass. A layer masks its input in place in the
    previous layer's output, except after a shared input layer."""
    layers = model.layers
    bufs, out = [(None, None)] * start, None
    for i in range(start, len(layers)):
        into = None
        if i > 0:
            into = out if out is not None else np.empty((rows, layers[i].in_width))
        out = np.empty((rows, layers[i].out_width)) if i < len(layers) - 1 else None
        bufs.append((into, out))
    return bufs


def _pass_logits(runs: list, x: np.ndarray) -> list[np.ndarray]:
    """The logits of every pass of the ``(model, MaskStack)`` runs over the
    batch ``x``, in pass order, without forward caches; pass ``p`` of a run
    is masked by the slices ``s[p]`` of its scales.

    Every check runs on the calling thread, once per run, before any pass
    does. Passes of one model share its input layer, computed here; passes
    of several models (an ensemble) each compute their own. The passes run
    serially unless there are several, each computes at least
    ``POOL_MIN_WORK`` (rows x weights) and the pool has two or more
    threads. Then worker ``j`` of ``w`` runs passes ``j, j + w, ...`` into
    arrays the calling thread allocated: threads that allocate their own
    each get a malloc arena, which raises the peak RSS.
    """
    for m, stack in runs:
        nn._check_pass(m, x, stack)
    model = runs[0][0]
    shared = all(m is model for m, _ in runs)
    # dropout masks only the outputs of hidden layers, so every pass of one
    # model computes the same first layer
    start, a = (1, nn._layer_loop(model.layers[:1], x, None, 0)) if shared else (0, x)
    rows = len(x)
    work = rows * sum(layer.weights.size for layer in model.layers[start:])
    passes = [(m, None if stack.scales is None else [s[p] for s in stack.scales])
              for m, stack in runs for p in range(stack.passes)]
    loops = [(m.layers, a, scales, start) for m, scales in passes]
    if len(passes) < 2 or work < POOL_MIN_WORK:
        return _run_passes(loops)
    pool, workers = _pass_pool()
    if workers < 2:
        return _run_passes(loops)

    global _pooled_predictions
    with _pool_lock:
        _pooled_predictions += 1
    groups = [[] for _ in range(workers)]
    scratch = [{} for _ in range(workers)]  # per worker, by geometry
    for i, ((m, _), loop) in enumerate(zip(passes, loops)):
        key = tuple(layer.weights.shape for layer in m.layers)
        hidden = scratch[i % workers].get(key)
        if hidden is None:
            hidden = scratch[i % workers][key] = _hidden_buffers(m, rows, start)
        logits = np.empty((rows, m.class_count))
        groups[i % workers].append((*loop, hidden[:-1] + [(hidden[-1][0], logits)]))
    futures = [pool.submit(_run_passes, group) for group in groups]
    wait(futures)
    done = [f.result() for f in futures]
    return [done[i % workers][i // workers] for i in range(len(passes))]


def _mean_of_passes(
    runs: list, inputs: np.ndarray, keep_grad_records: bool = False
) -> PredictiveDistribution:
    """The one softmax-pass loop: mean softmax of every pass of the
    ``(model, MaskStack)`` runs over the 2-d batch ``inputs``, summed in
    pass order, keeping the ``(probs, cache)`` record of each run when
    asked.

    With records, each run is one stacked ``nn.forward`` and one softmax:
    one for an MC call, one per member of an ensemble. Without, the passes
    come from :func:`_pass_logits` and a non-finite pass raises here, the
    first in pass order.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if keep_grad_records:
        records = []
        for m, stack in runs:
            logits, cache = nn.forward(m, x, stack)
            records.append((nn.softmax(logits), cache))
        probs = (p for stacked, _ in records for p in stacked)
    else:
        records = None
        probs = (nn.softmax(nn._check_logits(l)) for l in _pass_logits(runs, x))
    acc = None
    for p in probs:
        acc = p if acc is None else acc + p
    count = sum(stack.passes for _, stack in runs)
    return PredictiveDistribution(acc / count, count, records)


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
    """Averaged probabilities only, without gradient records."""
    return _mean_of_passes(_mc_passes(model, n_samples, seed), inputs).probs


def eval_predict(
    models: list[nn.MlpModel], inputs: np.ndarray, keep_grad_records: bool = False
) -> PredictiveDistribution:
    """Average one unmasked (evaluation-mode) softmax pass per model over the
    batch ``inputs``: a single model's deterministic prediction, or a deep
    ensemble's, whose uncertainty is the entropy of the members' mean."""
    if not models:
        raise ValueError("eval_predict needs at least one model")
    runs = [(m, nn.MaskStack(None, 1)) for m in models]
    return _mean_of_passes(runs, inputs, keep_grad_records)


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
