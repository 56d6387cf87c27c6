"""Classification metrics with explicit handling of empty denominators.

Every ratio that would divide by zero is reported as None rather than
silently coerced to 0, so callers can tell "no positives predicted"
apart from "precision is zero".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricSet:
    """Threshold metrics; fields are None when undefined."""

    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    precision: float | None
    f1: float | None
    counts: ConfusionCounts

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "precision": self.precision,
            "f1": self.f1,
            "tp": self.counts.tp,
            "fp": self.counts.fp,
            "tn": self.counts.tn,
            "fn": self.counts.fn,
        }


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def confusion(
    labels: np.ndarray, probs: np.ndarray, threshold: float
) -> ConfusionCounts:
    """Threshold probabilities and count outcomes; ties go positive."""
    labels = np.asarray(labels)
    probs = np.asarray(probs)
    _check_inputs(labels, probs)
    pred = probs >= threshold
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def metric_set_from_counts(c: ConfusionCounts) -> MetricSet:
    precision = _ratio(c.tp, c.tp + c.fp)
    sensitivity = _ratio(c.tp, c.tp + c.fn)
    if precision is None or sensitivity is None or precision + sensitivity == 0:
        f1 = None
    else:
        f1 = 2 * precision * sensitivity / (precision + sensitivity)
    return MetricSet(
        accuracy=_ratio(c.tp + c.tn, c.total),
        sensitivity=sensitivity,
        specificity=_ratio(c.tn, c.tn + c.fp),
        precision=precision,
        f1=f1,
        counts=c,
    )


def metric_set(
    labels: np.ndarray, probs: np.ndarray, threshold: float
) -> MetricSet:
    return metric_set_from_counts(confusion(labels, probs, threshold))


def _check_inputs(labels: np.ndarray, probs: np.ndarray) -> None:
    if labels.shape != probs.shape:
        raise ValueError(
            f"labels shape {labels.shape} != probs shape {probs.shape}"
        )
    _check_probs(probs)


def _check_probs(probs: np.ndarray) -> None:
    # min/max comparisons are False for NaN, so finiteness comes first
    if not np.all(np.isfinite(probs)):
        raise ValueError("probabilities must be finite, got NaN or inf")
    if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
        raise ValueError("probabilities outside [0, 1]")


def roc_auc(labels: np.ndarray, probs: np.ndarray) -> float | None:
    """Area under the ROC curve by the trapezoidal rule.

    Tied probabilities are grouped into single ROC points, which makes
    the trapezoid area equal to the rank statistic that counts ordered
    pairs with ties worth one half.  Returns None when only one class
    is present.
    """
    labels = np.asarray(labels)
    probs = np.asarray(probs)
    _check_inputs(labels, probs)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(-probs, kind="stable")
    sorted_probs = probs[order]
    sorted_pos = (labels[order] == 1).astype(np.float64)
    # Close one ROC point per distinct probability value.
    boundary = np.nonzero(np.diff(sorted_probs))[0]
    group_ends = np.concatenate([boundary, [probs.size - 1]])
    tp = np.concatenate([[0.0], np.cumsum(sorted_pos)[group_ends]])
    fp = np.concatenate([[0.0], (group_ends + 1.0) - np.cumsum(sorted_pos)[group_ends]])
    tpr = tp / n_pos
    fpr = fp / n_neg
    return float(np.trapezoid(tpr, fpr))


def fold_auc_summary(
    folds: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[float | None, float | None, list[float | None]]:
    """Mean and sample standard deviation of per-fold AUCs.

    Folds where AUC is undefined (single class) are excluded from the
    average but kept as None in the per-fold list.
    """
    per_fold = [roc_auc(labels, probs) for labels, probs in folds]
    defined = [a for a in per_fold if a is not None]
    if not defined:
        return None, None, per_fold
    mean = float(np.mean(defined))
    std = float(np.std(defined, ddof=1)) if len(defined) > 1 else 0.0
    return mean, std, per_fold


def prob_histogram(
    probs: np.ndarray, n_bins: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Counts over equal-width bins spanning [0, 1].

    Bins are [left, right) except the last, which closes at 1.0 so
    every probability lands in exactly one bin.
    """
    probs = np.asarray(probs)
    _check_probs(probs)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    counts, _ = np.histogram(probs, bins=edges)
    return counts, edges
