"""Monte-Carlo-dropout predictive distributions and entropy scores.

A prediction is the average of N softmaxed stochastic forward passes, each
under a fresh dropout mask, or of one unmasked pass per model (evaluation
mode, or a deep ensemble); both run the one pass loop of this module, which
takes the passes as ``(model, nn.MaskStack)`` runs: one ``sample_mask``
stack for an MC call, one unmasked run per model for ``eval_predict``. The
uncertainty score used throughout the package is the predictive entropy of
that averaged distribution, normalized by ln(class_count) so it lives in
[0, 1] regardless of the label space.

``mc_predict`` and ``eval_predict`` feed a gradient, so their
``PredictiveDistribution`` keeps the passes' records; ``mc_predict_probs``
and ``eval_predict_probs`` only score and return the probabilities, from
independent passes that, when large enough, run on a process-wide thread
pool, one thread per CPU the process may use (BLAS stays single-threaded).
Each pass makes the same gemm and ufunc calls on the same operands as a
serial one, and the calling thread checks, softmaxes and sums the logits
in pass order, so the probabilities are bit-identical.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import nn

DEFAULT_MC_SAMPLES = 20

# per-pass work (rows x weights of the layers a pass computes itself) from
# which pooled passes run: on a 2-vCPU Xeon with single-threaded OpenBLAS,
# 20 pooled passes broke even with serial ones at about 1e6 and were faster
# from about 2e6 (a 2-8-2 net on 450 rows does 7,200; 784-256-256-10 on
# 2,000 rows, 136e6)
POOL_MIN_WORK = 2_000_000


@dataclass
class PredictiveDistribution:
    """Class probabilities averaged over softmax passes, and their records.

    ``probs`` has shape (rows, class_count). ``grad_passes`` keeps one
    ``(probs, cache)`` record per run of passes, each from one
    ``nn.forward``: its probabilities are (passes, rows, class_count), in
    pass order, so losses can backpropagate through the average.
    """

    probs: np.ndarray
    sample_count: int
    grad_passes: list[tuple[np.ndarray, "nn.ForwardCache"]] = field(repr=False)

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if not self.grad_passes:
            raise ValueError("a predictive distribution needs its gradient records")

    def backprop_mean_prob_grad(
        self, d_mean_probs: np.ndarray, wrt: str
    ) -> list[tuple[np.ndarray, np.ndarray]] | np.ndarray:
        """Push a gradient w.r.t. the averaged probabilities back through all
        retained passes: one softmax VJP and one ``nn.backward`` per record,
        their results summed in record order.

        ``wrt`` is ``nn.backward``'s selector: ``"params"`` returns per-layer
        (d_weights, d_bias), ``"input"`` the input gradient, and nothing
        the other needs is computed or summed.
        """
        gp = d_mean_probs * (1.0 / self.sample_count)
        total = None
        for pass_probs, cache in self.grad_passes:
            # softmax vector-Jacobian product: dL/dz = p * (g - sum_k g_k p_k)
            gz = pass_probs * (gp - nn._class_sum(gp * pass_probs))
            grad = nn.backward(cache, gz, wrt)
            if total is None:
                # nn.backward allocates fresh arrays: accumulate in place
                total = grad
            elif wrt == "params":
                for (tw, tb), (gw, gb) in zip(total, grad):
                    tw += gw
                    tb += gb
            else:
                total += grad
        return total


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


def _pass_order_mean(runs: list, parts) -> np.ndarray:
    """The one pass-order sum: the mean of the (rows, class_count)
    probabilities of every pass of the ``runs`` from ``parts``, pass-order
    sums of consecutive passes added in order. Only the first part sums
    several passes (an MC call's one stack); every later part is one pass
    (an ensemble member's, or a record-free pass), so the parts add up in
    pass order."""
    acc = None
    for p in parts:
        acc = p if acc is None else acc + p
    return acc / sum(stack.passes for _, stack in runs)


def _recorded_mean(runs: list, inputs: np.ndarray) -> PredictiveDistribution:
    """Mean softmax of every pass of the ``(model, MaskStack)`` runs over the
    2-d batch ``inputs``, with the ``(probs, cache)`` record of each run: one
    stacked ``nn.forward``, one softmax and one ``nn._pass_sum`` per run, one
    for an MC call, one per member of an ensemble."""
    x = np.asarray(inputs, dtype=np.float64)
    records = []
    for m, stack in runs:
        logits, cache = nn.forward(m, x, stack)
        records.append((nn.softmax(logits), cache))
    probs = _pass_order_mean(runs, (nn._pass_sum(stacked) for stacked, _ in records))
    return PredictiveDistribution(probs, sum(len(p) for p, _ in records), records)


def _mean_probs(runs: list, inputs: np.ndarray) -> np.ndarray:
    """The probabilities of :func:`_recorded_mean`, from the record-free
    passes of :func:`_pass_logits`; the first non-finite pass raises."""
    logits = _pass_logits(runs, np.asarray(inputs, dtype=np.float64))
    return _pass_order_mean(runs, (nn.softmax(nn._check_logits(l)) for l in logits))


def mc_predict(
    model: nn.MlpModel,
    inputs: np.ndarray,
    n_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> PredictiveDistribution:
    """Average ``n_samples`` masked softmax passes over the batch ``inputs``.

    Deterministic given the seed, which keys ``nn.sample_mask``. With
    dropout_rate == 0 a single deterministic pass is returned, which
    collapses bit-exactly to the evaluation-mode prediction for any N.
    """
    return _recorded_mean([(model, nn.sample_mask(model, seed, n_samples))], inputs)


def mc_predict_probs(
    model: nn.MlpModel,
    inputs: np.ndarray,
    n_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> np.ndarray:
    """The probabilities of :func:`mc_predict`, without gradient records."""
    return _mean_probs([(model, nn.sample_mask(model, seed, n_samples))], inputs)


def _eval_runs(models: list[nn.MlpModel]) -> list:
    """One unmasked run per model, for both evaluation-mode predictions."""
    if not models:
        raise ValueError("an evaluation-mode prediction needs at least one model")
    return [(m, nn.MaskStack(None, 1)) for m in models]


def eval_predict(models: list[nn.MlpModel], inputs: np.ndarray) -> PredictiveDistribution:
    """Average one unmasked (evaluation-mode) softmax pass per model over the
    batch ``inputs``: a single model's deterministic prediction, or a deep
    ensemble's, whose uncertainty is the entropy of the members' mean."""
    return _recorded_mean(_eval_runs(models), inputs)


def eval_predict_probs(models: list[nn.MlpModel], inputs: np.ndarray) -> np.ndarray:
    """The probabilities of :func:`eval_predict`, without gradient records."""
    return _mean_probs(_eval_runs(models), inputs)


def entropy(probs: np.ndarray):
    """Shannon entropy in nats along the last axis, with 0*ln(0) := 0.

    Each term is ``p * math.log(p)``: ``math.log`` is the C library's
    ``log``, which ``np.log`` (a SIMD kernel) does not match bit for bit.
    A term is +0 where ``p`` is 0 of either sign and NaN where ``p`` is
    negative or NaN, and the terms share the memory layout of ``p``, so
    the sums equal those of ``-scipy.special.xlogy(p, p)`` bit for bit,
    signed zeros included.
    """
    p = np.asarray(probs, dtype=np.float64)
    terms = np.zeros_like(p)
    positive = p > 0
    x = p[positive]
    terms[positive] = x * np.fromiter(map(math.log, x.tolist()), np.float64, x.size)
    terms[~(p >= 0)] = np.nan
    h = -terms.sum(axis=-1)
    return float(h) if np.ndim(h) == 0 else h


def normalized_entropy(probs: np.ndarray):
    """Entropy of the probabilities ``probs`` over ln(class_count); in [0, 1]."""
    k = np.asarray(probs).shape[-1]
    if k < 2:
        raise ValueError(f"normalized entropy needs >= 2 classes, got {k}")
    return entropy(probs) / np.log(k)
