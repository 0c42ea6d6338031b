"""Uncertainty-evaluation metrics.

The central object is a batch of per-input evaluation records: whether the
prediction was correct, its normalized-entropy uncertainty, its confidence
(max averaged probability), and its residual (1 - p assigned to the true
label). On top of these sit the uncertainty confusion matrix and the
derived scores, a threshold-free rank AUC, calibration error, the 1-D
Wasserstein distance between the uncertainty samples of correct and wrong
predictions, residual correlation, and exhaustive threshold tuning.

Threshold convention (fixed throughout): an input counts as *certain* when
its uncertainty is <= the threshold and *uncertain* strictly above it, so
TC = certain & correct, TU = uncertain & wrong, FC = certain & wrong,
FU = uncertain & correct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .uncertainty import normalized_entropy


@dataclass
class EvalRecords:
    """Column-wise per-input evaluation records."""

    true_label: np.ndarray
    pred_label: np.ndarray
    uncertainty: np.ndarray  # normalized entropy in [0, 1]
    confidence: np.ndarray  # max averaged class probability
    residual: np.ndarray  # 1 - p(true label)

    def __post_init__(self):
        self.true_label = np.asarray(self.true_label, dtype=np.int64)
        self.pred_label = np.asarray(self.pred_label, dtype=np.int64)
        self.uncertainty = np.asarray(self.uncertainty, dtype=np.float64)
        self.confidence = np.asarray(self.confidence, dtype=np.float64)
        self.residual = np.asarray(self.residual, dtype=np.float64)
        n = len(self.true_label)
        for name in ("pred_label", "uncertainty", "confidence", "residual"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has mismatched length")

    def __len__(self) -> int:
        return len(self.true_label)

    @property
    def correct(self) -> np.ndarray:
        return self.pred_label == self.true_label


def records_from_probs(
    probs: np.ndarray, labels: np.ndarray
) -> EvalRecords:
    """Build records from averaged class probabilities and true labels."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.arange(probs.shape[0])
    return EvalRecords(
        true_label=labels,
        pred_label=probs.argmax(axis=1),
        uncertainty=normalized_entropy(probs),
        confidence=probs.max(axis=1),
        residual=1.0 - probs[rows, labels],
    )


@dataclass
class UncertaintyConfusionMatrix:
    tc: int  # certain and correct
    tu: int  # uncertain and wrong
    fc: int  # certain but wrong
    fu: int  # uncertain but correct

    @property
    def total(self) -> int:
        return self.tc + self.tu + self.fc + self.fu


def _check_threshold(threshold: float):
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


def build_ucm(records: EvalRecords, threshold: float) -> UncertaintyConfusionMatrix:
    if len(records) == 0:
        raise ValueError("cannot build a confusion matrix from zero records")
    _check_threshold(threshold)
    correct = records.correct
    certain = records.uncertainty <= threshold
    return UncertaintyConfusionMatrix(
        tc=int(np.sum(correct & certain)),
        tu=int(np.sum(~correct & ~certain)),
        fc=int(np.sum(~correct & certain)),
        fu=int(np.sum(correct & ~certain)),
    )


def uncertainty_accuracy(ucm: UncertaintyConfusionMatrix) -> float:
    """(TC + TU) / total: fraction whose uncertainty verdict matches
    prediction correctness."""
    if ucm.total == 0:
        raise ValueError("empty confusion matrix")
    return (ucm.tc + ucm.tu) / ucm.total


def error_rate(records: EvalRecords) -> float:
    if len(records) == 0:
        raise ValueError("no records")
    return float(np.mean(~records.correct))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, each tie group sharing the mean of its
    positions; all NaN when any value is NaN.

    The ranks are half-integers, exact in float64, and equal
    ``scipy.stats.rankdata`` (method "average") element for element.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], len(values))
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    if np.isnan(values).any():
        ranks[:] = np.nan
    return ranks


def uauc(records: EvalRecords) -> float | None:
    """AUC of uncertainty as a score for predicting incorrectness.

    Equals P(u_wrong > u_correct) + 0.5 * P(tie), computed via midranks
    (Mann-Whitney). Returns None when records are all-correct or all-wrong,
    where the quantity is undefined.
    """
    correct = records.correct
    n_wrong = int(np.sum(~correct))
    n_right = int(np.sum(correct))
    if n_wrong == 0 or n_right == 0:
        return None
    ranks = _midranks(records.uncertainty)
    wrong_rank_sum = ranks[~correct].sum()
    return float((wrong_rank_sum - n_wrong * (n_wrong + 1) / 2.0) / (n_wrong * n_right))


def ece(records: EvalRecords, n_bins: int = 15) -> float:
    """Expected calibration error over equal-width confidence bins on (0, 1].

    Bin b covers (b/n_bins, (b+1)/n_bins]; a confidence of exactly 0 falls
    into bin 0. Empty bins contribute nothing.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if len(records) == 0:
        raise ValueError("no records")
    edges = np.arange(n_bins + 1) / n_bins
    idx = np.searchsorted(edges, records.confidence, side="left") - 1
    idx = np.clip(idx, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins).tolist()
    # a bin's hit count is an exact integer, so hits / count is its accuracy
    hits = np.bincount(idx, weights=records.correct, minlength=n_bins).tolist()
    # a stable sort keeps each bin's rows in record order, so the sum of a
    # bin's slice adds the same values in the same order as a mask would;
    # over the count it is the value ``.mean()`` gives
    confidence = records.confidence[np.argsort(idx, kind="stable")]
    total = len(records)
    value = 0.0
    start = 0
    for count, hit in zip(counts, hits):
        if count == 0:
            continue
        stop = start + count
        conf = confidence[start:stop].sum() / count
        value += (count / total) * abs(hit / count - conf)
        start = stop
    return float(value)


def wasserstein1(u_first: np.ndarray, u_second: np.ndarray) -> float:
    """Exact empirical 1-D W1 via the quantile-function integral.

    Both samples may have different sizes; the piecewise-constant quantile
    functions are integrated over the union of their jump levels.
    """
    a = np.sort(np.asarray(u_first, dtype=np.float64))
    b = np.sort(np.asarray(u_second, dtype=np.float64))
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("both sample lists must be non-empty")
    cuts = np.concatenate([np.arange(1, n) / n, np.arange(1, m) / m])
    edges = np.concatenate([[0.0], np.sort(cuts), [1.0]])
    widths = np.diff(edges)
    mids = (edges[:-1] + edges[1:]) / 2.0
    qa = a[np.minimum((mids * n).astype(np.int64), n - 1)]
    qb = b[np.minimum((mids * m).astype(np.int64), m - 1)]
    return float(np.sum(widths * np.abs(qa - qb)))


def residual_correlation(records: EvalRecords, kind: str = "continuous") -> float | None:
    """Pearson correlation between residuals and uncertainty.

    ``kind="continuous"`` uses 1 - p(true label); ``kind="binary"`` uses the
    0/1 incorrectness indicator. Returns None when either side has zero
    variance (undefined).
    """
    if kind == "continuous":
        res = records.residual
    elif kind == "binary":
        res = (~records.correct).astype(np.float64)
    else:
        raise ValueError(f"unknown residual kind {kind!r}")
    if len(records) < 2:
        return None
    u = records.uncertainty
    if np.std(res) == 0.0 or np.std(u) == 0.0:
        return None
    rmean, umean = res.mean(), u.mean()
    cov = np.sum((res - rmean) * (u - umean))
    denom = np.sqrt(np.sum((res - rmean) ** 2) * np.sum((u - umean) ** 2))
    return float(cov / denom)


def threshold_candidates(uncertainties: np.ndarray) -> np.ndarray:
    """Midpoints of consecutive sorted unique uncertainties plus {0, 1}."""
    uniq = np.unique(np.asarray(uncertainties, dtype=np.float64))
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    return np.unique(np.concatenate([[0.0], mids, [1.0]]))


def tune_threshold(records: EvalRecords, objective: str = "ua") -> float:
    """Best of the :func:`threshold_candidates`; ties go to the smaller.

    ``objective="ua"`` maximizes uncertainty accuracy; ``"flip_gain"``
    maximizes the error drop obtained by class inversion above the
    threshold (meaningful on binary tasks).

    Binary search in the sorted uncertainties of the correct and of the
    wrong rows gives the confusion counts at every candidate, in
    O(n log n) overall. Both scores are the same ratios of integer counts
    as ``uncertainty_accuracy(build_ucm(records, t))`` and the error rate
    before minus after the flip, so they match those bit for bit.
    """
    if len(records) == 0:
        raise ValueError("no records to tune on")
    cands = threshold_candidates(records.uncertainty)
    u, correct = records.uncertainty, records.correct

    def n_uncertain(rows):
        # u > t is false for NaN, so NaN rows are certain at every t
        side = np.sort(u[rows & ~np.isnan(u)])
        return len(side) - np.searchsorted(side, cands, side="right")

    n = len(records)
    n_wrong = int(np.sum(~correct))
    fu = n_uncertain(correct)
    tu = n_uncertain(~correct)
    if objective == "ua":
        outside = ~((cands >= 0.0) & (cands <= 1.0))
        if outside.any():
            _check_threshold(float(cands[outside][0]))
        tc = (n - n_wrong) - fu
        scores = (tc + tu) / n
    elif objective == "flip_gain":
        fc = n_wrong - tu
        scores = n_wrong / n - (fc + fu) / n
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return float(cands[np.argmax(scores)])


def uncertainty_histograms(
    records: EvalRecords, n_bins: int = 50
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histogram counts of uncertainty over [0, 1] for the correct and the
    wrong sets; returns (edges, correct_counts, wrong_counts)."""
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    correct = records.correct
    c_counts, _ = np.histogram(records.uncertainty[correct], bins=edges)
    w_counts, _ = np.histogram(records.uncertainty[~correct], bins=edges)
    return edges, c_counts, w_counts


def summarize(
    records: EvalRecords, threshold: float, ece_bins: int = 15
) -> dict:
    """Full metric report for one record set at one tuned threshold."""
    ucm = build_ucm(records, threshold)
    correct = records.correct
    u_correct = records.uncertainty[correct]
    u_wrong = records.uncertainty[~correct]
    wd = (
        wasserstein1(u_correct, u_wrong)
        if len(u_correct) > 0 and len(u_wrong) > 0
        else None
    )
    return {
        "count": len(records),
        "error": error_rate(records),
        "threshold": float(threshold),
        "ucm": {"tc": ucm.tc, "tu": ucm.tu, "fc": ucm.fc, "fu": ucm.fu},
        "ua": uncertainty_accuracy(ucm),
        "uauc": uauc(records),
        "ece": ece(records, ece_bins),
        "ece_bins": ece_bins,
        "ece_bin_edges": [float(b) / ece_bins for b in range(ece_bins + 1)],
        "wasserstein": wd,
        "corr_residual": residual_correlation(records, "continuous"),
        "corr_residual_binary": residual_correlation(records, "binary"),
        "mean_uncertainty_correct": float(u_correct.mean()) if len(u_correct) else None,
        "mean_uncertainty_wrong": float(u_wrong.mean()) if len(u_wrong) else None,
    }
