"""Independent reference computations used to check the package.

Everything here is deliberately naive (python loops, brute force,
finite differences) and shares no code path with the implementation
under test.
"""

from __future__ import annotations

import json

import numpy as np

from euatlab.data import BLOB_CENTER_RADIUS


def naive_forward(model, batch, mask=None):
    """Loop-based forward pass: explicit matmul, relu, inverted dropout
    under a one-pass ``mask``, a ``MaskStack`` of ``(1, 1, width)`` scales."""
    batch = np.asarray(batch, dtype=np.float64)
    out = []
    for row in batch:
        a = list(row)
        for li, layer in enumerate(model.layers):
            z = []
            for o in range(layer.weights.shape[0]):
                s = float(layer.bias[o])
                for i in range(layer.weights.shape[1]):
                    s += float(layer.weights[o, i]) * a[i]
                z.append(s)
            if layer.activation == "relu":
                z = [v if v > 0 else 0.0 for v in z]
            if mask is not None and li < len(model.layers) - 1:
                # a one-pass MaskStack: scales[li] has shape (1, 1, width)
                z = [v * float(mask.scales[li][0, 0, o]) for o, v in enumerate(z)]
            a = z
        out.append(a)
    return np.array(out)


def parameters_equal(a, b):
    """Whether two models hold bit-identical weights and biases."""
    return len(a.layers) == len(b.layers) and all(
        np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)
        for la, lb in zip(a.layers, b.layers)
    )


def fd_param_grads(loss_fn, model, h=1e-5):
    """Central finite differences of ``loss_fn(model)`` w.r.t. every
    parameter entry, in [W0, b0, W1, b1, ...] order."""
    grads = []
    for layer in model.layers:
        for name in ("weights", "bias"):
            arr = getattr(layer, name)
            g = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                model.version += 1
                lp = loss_fn(model)
                arr[idx] = orig - h
                model.version += 1
                lm = loss_fn(model)
                arr[idx] = orig
                model.version += 1
                g[idx] = (lp - lm) / (2.0 * h)
            grads.append(g)
    return grads


def flatten_grads(grads):
    """[(dW, db), ...] -> [dW0, db0, dW1, db1, ...]."""
    out = []
    for gw, gb in grads:
        out.append(gw)
        out.append(gb)
    return out


def max_rel_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def pairwise_auc(u_wrong, u_correct):
    """O(n^2) count of concordant pairs with half credit for ties."""
    wins = 0.0
    for uw in u_wrong:
        for uc in u_correct:
            if uw > uc:
                wins += 1.0
            elif uw == uc:
                wins += 0.5
    return wins / (len(u_wrong) * len(u_correct))


def transport_w1(a, b):
    """Exact 1-D transport cost: integral of |F_a - F_b| over the merged
    support grid."""
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    pts = sorted(set(a) | set(b))
    total = 0.0
    for x0, x1 in zip(pts, pts[1:]):
        fa = sum(1 for v in a if v <= x0) / len(a)
        fb = sum(1 for v in b if v <= x0) / len(b)
        total += abs(fa - fb) * (x1 - x0)
    return total


def ece_recount(confidences, corrects, n_bins):
    """Loop-based calibration error with (b/n, (b+1)/n] bins and
    confidence 0 assigned to bin 0."""
    edges = [b / n_bins for b in range(n_bins + 1)]
    bins = [[] for _ in range(n_bins)]
    for c, ok in zip(confidences, corrects):
        if c == 0.0:
            bins[0].append((c, ok))
            continue
        for b in range(n_bins):
            if edges[b] < c <= edges[b + 1]:
                bins[b].append((c, ok))
                break
    n = len(confidences)
    total = 0.0
    for members in bins:
        if not members:
            continue
        acc = sum(1.0 for _, ok in members if ok) / len(members)
        conf = sum(c for c, _ in members) / len(members)
        total += (len(members) / n) * abs(acc - conf)
    return total


def naive_ece(records, n_bins):
    """Calibration error from one boolean mask per bin: the bin index
    ``metrics.ece`` computes, each bin's rows taken in record order."""
    edges = np.arange(n_bins + 1) / n_bins
    idx = np.searchsorted(edges, records.confidence, side="left") - 1
    idx = np.clip(idx, 0, n_bins - 1)
    correct = records.correct.astype(np.float64)
    total = len(records)
    value = 0.0
    for b in range(n_bins):
        in_bin = idx == b
        count = int(np.sum(in_bin))
        if count == 0:
            continue
        acc = correct[in_bin].mean()
        conf = records.confidence[in_bin].mean()
        value += (count / total) * abs(acc - conf)
    return float(value)


def blob_bayes_error(noise):
    """Bayes error of the two-class blob geometry at a given noise level:
    the normal tail beyond ``BLOB_CENTER_RADIUS / noise``."""
    from scipy.special import ndtr

    if noise <= 0:
        return 0.0
    return float(ndtr(-BLOB_CENTER_RADIUS / noise))


def blob_noise_for_bayes_error(target):
    """Noise level putting the two-class blob Bayes error at ``target``."""
    from scipy.special import ndtri

    if not 0 < target < 0.5:
        raise ValueError("target Bayes error must be in (0, 0.5)")
    return float(BLOB_CENTER_RADIUS / -ndtri(target))


def apportion_largest_remainder(class_sizes, target):
    """Reference largest-remainder apportionment; ties to the lower index."""
    total = sum(class_sizes)
    quotas = [target * s / total for s in class_sizes]
    counts = [int(np.floor(q)) for q in quotas]
    leftover = target - sum(counts)
    remainders = sorted(
        range(len(class_sizes)), key=lambda i: (-(quotas[i] - counts[i]), i)
    )
    for i in remainders[:leftover]:
        counts[i] += 1
    return counts


def isotonic_nnls(y):
    """Exact monotone least squares via NNLS on the increment
    parameterization x_i = (u - v) + sum_{j<=i} z_j, z >= 0."""
    from scipy.optimize import nnls

    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    a = np.zeros((n, n + 1))
    a[:, 0] = 1.0
    a[:, 1] = -1.0
    for i in range(n):
        a[i, 2 : 2 + i] = 1.0  # increments z_1..z_i (z_0 absorbed in level)
    sol, _ = nnls(a, y, maxiter=10 * (n + 1))
    x = np.full(n, sol[0] - sol[1])
    for i in range(1, n):
        x[i] = x[i - 1] + sol[1 + i]
    return x


def isotonic_apply_rows(mapping, probs):
    """The per-row loop of the former ``baselines.isotonic_apply``: map the
    top probability, floor it at the tie with the runner-up, rescale the
    other classes, renormalise, and lift the top class by one ulp where the
    floor left a knife-edge tie."""
    probs = np.asarray(probs, dtype=np.float64)
    single = probs.ndim == 1
    batch = np.atleast_2d(probs).copy()
    for row in batch:
        top = int(np.argmax(row))
        p_top = row[top]
        rest = 1.0 - p_top
        others_sorted = np.sort(np.delete(row, top))
        p_second = others_sorted[-1] if len(others_sorted) else 0.0
        q = float(mapping(p_top))
        tie = p_second / (rest + p_second) if rest + p_second > 0 else 0.0
        q = max(q, tie)
        if rest > 0:
            row *= (1.0 - q) / rest
        else:
            row[:] = (1.0 - q) / max(len(row) - 1, 1)
        row[top] = q
        total = row.sum()
        if abs(total - 1.0) > 1e-12:
            row /= total
        if int(np.argmax(row)) != top:
            row[top] = np.nextafter(row.max(), np.inf)
            row /= row.sum()
    return batch[0] if single else batch


def in_order_sum(per_pass):
    """``per_pass[0] + per_pass[1] + ...``, one pass at a time in pass
    order, into a copy of the first pass."""
    total = np.array(per_pass[0], dtype=np.float64)
    for part in per_pass[1:]:
        total += part
    return total


def full_backward(cache, upstream):
    """Both gradients of one backward pass through the ``nn.ForwardCache``
    ``cache``: per-layer ``(d_weights, d_bias)`` and the input gradient,
    from one delta chain that computes every product, a masked cache's
    summed over the passes by :func:`in_order_sum`."""
    layers = cache.model.layers
    scales = cache.mask.scales if cache.mask is not None else None
    grads = [None] * len(layers)
    delta = np.asarray(upstream, dtype=np.float64)
    for i in reversed(range(len(layers))):
        if i < len(layers) - 1 and scales is not None:
            delta = delta * scales[i]
        if layers[i].activation == "relu":
            delta = delta * (cache.acts[i] > 0.0)
        grads[i] = (np.matmul(delta.swapaxes(-1, -2), cache.inputs[i]),
                    delta.sum(axis=-2))
        delta = delta @ layers[i].weights
    if cache.mask is not None:
        grads = [(in_order_sum(gw), in_order_sum(gb)) for gw, gb in grads]
        delta = in_order_sum(delta)
    return grads, delta


def reference_mask(model, seed):
    """Dropout scales from a freshly built Philox generator keyed by
    ``derive_seed(seed, "dropout-mask")``: one ``random(width)`` draw per
    hidden layer, kept where ``>= p`` and scaled by ``1 / (1 - p)``."""
    from euatlab import rng

    p = model.dropout_rate
    gen = np.random.Generator(
        np.random.Philox(key=rng.derive_seed(seed, "dropout-mask"))
    )
    return [
        (gen.random(layer.weights.shape[0]) >= p) / (1.0 - p)
        for layer in model.layers[:-1]
    ]


def reference_gaussian_corrupt(inputs, sigma, seed):
    """``clip(x + sigma * z, 0, 1)`` as one expression, with ``z`` drawn
    from a freshly built Philox generator keyed by
    ``derive_seed(seed, "gaussian-corrupt")``."""
    from euatlab import rng

    x = np.asarray(inputs, dtype=np.float64)
    gen = np.random.Generator(
        np.random.Philox(key=rng.derive_seed(seed, "gaussian-corrupt"))
    )
    z = gen.standard_normal(x.shape)
    return np.clip(x + sigma * z, 0.0, 1.0)


def checkpoint_reference(predictor):
    """The bytes ``checkpoint.json`` had when it was written by parsing each
    model's ``checkpoint_json`` text back into a dict, wrapping it for
    calibrated and ensemble predictors, and re-encoding the whole document
    with ``indent=2``."""
    from euatlab.nn import checkpoint_json

    if predictor.ensemble is not None:
        doc = {
            "kind": "ensemble",
            "members": [json.loads(checkpoint_json(m)) for m in predictor.ensemble.members],
            "seeds": predictor.ensemble.seeds,
        }
    else:
        doc = json.loads(checkpoint_json(predictor.model))
        if predictor.calibration is not None:
            doc = {
                "kind": "calibrated",
                "base": doc,
                "calibration": {
                    "breakpoints": predictor.calibration.breakpoints.tolist(),
                    "levels": predictor.calibration.levels.tolist(),
                },
            }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
