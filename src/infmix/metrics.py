"""Uncertainty scoring: rank-based AUROC (plain and class-balanced),
fixed-bin histograms of the two uncertainty measures, and trial aggregation.

Convention: higher score = more anomalous.  Entropy and predictive variance
both rise on out-of-distribution or adversarial inputs, so AUROC > 0.5
means the score is a useful detector; sub-0.5 values are reported as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .network import MAX_ENTROPY
from .tensor import Rng

_BALANCE_STREAM = 7

VARIANCE_BIN_EDGES = np.linspace(0.0, 0.25, 26)
ENTROPY_BIN_EDGES = np.linspace(0.0, MAX_ENTROPY, 26)
_EDGES_BY_METRIC = {"max_variance": VARIANCE_BIN_EDGES,
                    "entropy": ENTROPY_BIN_EDGES}


def auroc_scores(pos_scores, neg_scores) -> float:
    """P(random positive outranks random negative), midrank tie handling.

    Computed from the Mann-Whitney U statistic on pooled midranks, which
    equals the all-pairs count (wins + 0.5 * ties) / (n_pos * n_neg).
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUROC needs at least one positive and one negative")
    pooled = np.concatenate([pos, neg])
    if not np.all(np.isfinite(pooled)):
        raise ValueError("AUROC scores must be finite")
    ranks = rankdata(pooled)
    u = ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


@dataclass
class BalancedAuroc:
    value: float
    n_per_class: int


def auroc_balanced(pos_scores, neg_scores, seed: int = 0) -> BalancedAuroc:
    """AUROC with the larger class subsampled (seeded, uniform, without
    replacement) to the size of the smaller.

    Detection passes the scores of successful attacks as positives and of
    correctly classified clean samples as negatives, each in index order.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    n_pos, n_neg = pos.size, neg.size
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"balanced AUROC needs both classes, got {n_pos} successful "
            f"attacks and {n_neg} correct samples")
    m = min(n_pos, n_neg)
    rng = Rng(seed).derive(_BALANCE_STREAM)
    if n_pos > m:
        pos = pos[rng.choice(n_pos, m, replace=False)]
    if n_neg > m:
        neg = neg[rng.choice(n_neg, m, replace=False)]
    return BalancedAuroc(value=auroc_scores(pos, neg), n_per_class=m)


def uncertainty_histograms(groups: dict) -> dict:
    """Fixed-bin histograms of max-class variance and entropy per group.

    ``groups`` maps a group name ("correct", "wrong", "test", "ood",
    "adversarial", ...) to a dict with arrays under "max_variance" and
    "entropy".  Bin edges are fixed per metric so histograms from different
    trials aggregate bin-wise; total counts equal the input sizes.  Edges
    and counts are lists, ready for a result JSON.
    """
    out = {}
    for metric, edges in _EDGES_BY_METRIC.items():
        per_group = {}
        for name, values in groups.items():
            v = np.asarray(values[metric], dtype=np.float64)
            counts, _ = np.histogram(np.clip(v, edges[0], edges[-1]), bins=edges)
            per_group[name] = counts.tolist()
        out[metric] = {"bin_edges": edges.tolist(), "counts": per_group}
    return out


def summary_groups(summary, labels) -> dict:
    """Split one PredictiveSummary into correct/wrong score groups."""
    correct = summary.correct_mask(labels)
    return {
        "correct": {"max_variance": summary.max_variance[correct],
                    "entropy": summary.entropy[correct]},
        "wrong": {"max_variance": summary.max_variance[~correct],
                  "entropy": summary.entropy[~correct]},
    }


def mean_std(values, axis=None):
    """Mean and sample (n-1) standard deviation of trial values along
    ``axis`` (over all values by default); the std of one trial is 0.

    Returns Python floats, or lists of them over the remaining axes, ready
    for a result JSON.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.size if axis is None else v.shape[axis]
    std = v.std(axis=axis, ddof=1 if n > 1 else 0)
    return v.mean(axis=axis).tolist(), std.tolist()

