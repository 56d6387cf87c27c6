"""Turning window probabilities into seizure-level decisions.

Two aggregation rules operate on a record's probability series: a
sliding-window log-odds accumulator and a lagged difference filter.
Seizure scoring then credits one detection opportunity and one false
alarm opportunity per record: a detection is any positive decision in
the ictal part, a false alarm any positive decision in the interictal
part.  Windows from the preictal and extended interictal parts may
carry decisions but never reach the counts.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from seiznet.errors import AggregationError, DataError
from seiznet.metrics import ConfusionCounts, MetricSet, metric_set_from_counts

log = logging.getLogger(__name__)

LOGODDS_FLOOR = 1e-6
SCORED_POSITIVE_PART = "ictal"
SCORED_NEGATIVE_PART = "interictal"

DEFAULT_BAYES_WINDOWS = tuple(range(1, 24))
DEFAULT_BAYES_THRESHOLDS = tuple(np.arange(0, 21) * 0.25)
DEFAULT_DIFF_LAGS = tuple(range(1, 24))
DEFAULT_DIFF_THRESHOLDS = tuple(np.round(np.arange(1, 20) * 0.05, 2))

# The one place a method's window parameter gets its artifact name.
PARAMETER_NAMES = {"bayes": "window", "diff": "lag"}
DEFAULT_GRIDS = {
    "bayes": (DEFAULT_BAYES_WINDOWS, DEFAULT_BAYES_THRESHOLDS),
    "diff": (DEFAULT_DIFF_LAGS, DEFAULT_DIFF_THRESHOLDS),
}


@dataclass(frozen=True)
class Rule:
    """An aggregation method, its window (bayes) or lag (diff), and
    the threshold its statistic must strictly exceed."""

    method: str
    window: int
    threshold: float

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            PARAMETER_NAMES[self.method]: self.window,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, payload: dict, source) -> "Rule":
        """Read a rule written by to_dict; source names it in errors."""
        method = payload.get("method")
        if method not in PARAMETER_NAMES:
            raise DataError(f"{source}: unknown aggregation method {method!r}")
        try:
            return cls(
                method,
                int(payload[PARAMETER_NAMES[method]]),
                float(payload["threshold"]),
            )
        except KeyError as exc:
            raise DataError(f"{source}: {method} rule lacks {exc.args[0]!r}") from None


@dataclass(frozen=True)
class SeizureOutcome:
    """Seizure-level result of one record."""

    record_id: str
    detected_in_ictal: bool
    false_positive_in_interictal: bool
    first_detection: dict  # part name -> series index of first positive


def statistic(probs: np.ndarray, method: str, window: int) -> np.ndarray:
    """Per-window statistic of an aggregation method.

    bayes: entry t sums ln(p/(1-p)) over the `window` positions ending
    at t.  Probabilities are clamped away from 0 and 1 so every term
    is finite.
    diff: entry t is probs[t] - probs[t - window].

    Entries without a complete window (the first window - 1 for bayes,
    the first window for diff) are NaN: no decision is defined there.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if method not in PARAMETER_NAMES:
        raise ValueError(f"unknown aggregation method {method!r}")
    if window < 1:
        raise ValueError(f"{PARAMETER_NAMES[method]} {window} must be positive")
    out = np.full(probs.shape, np.nan)
    if method == "diff":
        out[window:] = probs[window:] - probs[:-window]
        return out
    p = np.clip(probs, LOGODDS_FLOOR, 1.0 - LOGODDS_FLOOR)
    terms = np.log(p) - np.log1p(-p)
    csum = np.concatenate([[0.0], np.cumsum(terms)])
    if probs.size >= window:
        out[window - 1 :] = csum[window:] - csum[:-window]
    return out


def decide(probs: np.ndarray, rule: Rule) -> np.ndarray:
    """Positive where the rule's statistic exceeds its threshold.

    NaN never exceeds a threshold, so the undefined prefix decides
    negative.
    """
    return statistic(probs, rule.method, rule.window) > rule.threshold


# The bayes-only names the benchmark in perfbench/ imports.
BayesParams = functools.partial(Rule, "bayes")
bayes_decide = decide


def _has_scored_parts(parts) -> bool:
    present = set(parts)
    return SCORED_POSITIVE_PART in present and SCORED_NEGATIVE_PART in present


def seizure_eval(
    decisions: np.ndarray, parts: tuple[str, ...], record_id: str
) -> SeizureOutcome | None:
    """Collapse window decisions of one record to a seizure outcome.

    Returns None (with a log entry) when the series lacks an ictal or
    interictal part, since such a record can be scored on neither
    side.
    """
    decisions = np.asarray(decisions, dtype=bool)
    if decisions.shape[0] != len(parts):
        raise ValueError("decisions and part tags differ in length")
    if not _has_scored_parts(parts):
        log.warning(
            "record %s lacks a scored part (has %s), skipping",
            record_id,
            sorted(set(parts)),
        )
        return None
    first: dict[str, int | None] = {}
    for name in dict.fromkeys(parts):
        idx = [i for i, part in enumerate(parts) if part == name and decisions[i]]
        first[name] = idx[0] if idx else None
    return SeizureOutcome(
        record_id=record_id,
        detected_in_ictal=first[SCORED_POSITIVE_PART] is not None,
        false_positive_in_interictal=first[SCORED_NEGATIVE_PART] is not None,
        first_detection=first,
    )


def seizure_counts(outcomes: list[SeizureOutcome]) -> ConfusionCounts:
    """Each record contributes one positive and one negative unit."""
    tp = sum(o.detected_in_ictal for o in outcomes)
    fp = sum(o.false_positive_in_interictal for o in outcomes)
    return ConfusionCounts(
        tp=tp,
        fp=fp,
        tn=len(outcomes) - fp,
        fn=len(outcomes) - tp,
    )


def seizure_metrics(outcomes: list[SeizureOutcome]) -> MetricSet:
    return metric_set_from_counts(seizure_counts(outcomes))


@dataclass(frozen=True)
class GridResult:
    """F1 over a parameter grid plus the argmax under the tie rule."""

    method: str  # "bayes" or "diff"
    windows: tuple[int, ...]
    thresholds: tuple[float, ...]
    f1_matrix: np.ndarray  # (len(windows), len(thresholds)), NaN = undefined
    best_window: int
    best_threshold: float
    best_f1: float
    ties: tuple[tuple[int, float], ...]
    n_series: int
    skipped_records: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            **Rule(self.method, self.best_window, self.best_threshold).to_dict(),
            "f1": self.best_f1,
            "n_series": self.n_series,
            "n_tied_cells": len(self.ties),
            "skipped_records": list(self.skipped_records),
        }


def grid_search(
    series: list,
    method: str,
    windows: tuple[int, ...] | None = None,
    thresholds: tuple[float, ...] | None = None,
) -> GridResult:
    """Exhaustive F1 search over aggregation parameters.

    series is a list of ProbabilitySeries-like objects (attributes
    record_id, probs, parts).  F1 is computed at seizure level over
    all scored records for every (window, threshold) cell.  The
    argmax prefers the smallest window and then the smallest
    threshold among tied cells.
    """
    if method not in DEFAULT_GRIDS:
        raise ValueError(f"unknown aggregation method {method!r}")
    default_windows, default_thresholds = DEFAULT_GRIDS[method]
    windows = default_windows if windows is None else windows
    thresholds = default_thresholds if thresholds is None else thresholds

    usable = []
    skipped = []
    for s in series:
        if _has_scored_parts(s.parts):
            usable.append(s)
        else:
            log.warning(
                "record %s lacks a scored part, excluded from grid search",
                s.record_id,
            )
            skipped.append(s.record_id)
    if not usable:
        raise AggregationError("no records with both scored parts; grid undefined")

    # A record decides positive in a part at threshold th exactly when
    # the statistic's maximum over that part exceeds th.  fmax skips
    # NaN; a part with no defined entry keeps -inf, which never does.
    n = len(usable)
    ict_max = np.full((n, len(windows)), -np.inf)
    int_max = np.full((n, len(windows)), -np.inf)
    for i, s in enumerate(usable):
        parts = np.asarray(s.parts)
        ict = parts == SCORED_POSITIVE_PART
        intr = parts == SCORED_NEGATIVE_PART
        for j, w in enumerate(windows):
            stat = statistic(s.probs, method, w)
            ict_max[i, j] = np.fmax.reduce(stat[ict], initial=-np.inf)
            int_max[i, j] = np.fmax.reduce(stat[intr], initial=-np.inf)
    th = np.asarray(thresholds, dtype=np.float64)
    tp = (ict_max[:, :, None] > th).sum(0)
    fp = (int_max[:, :, None] > th).sum(0)

    f1 = np.full(tp.shape, np.nan)
    for cell in np.ndindex(f1.shape):
        hits, alarms = int(tp[cell]), int(fp[cell])
        counts = ConfusionCounts(tp=hits, fp=alarms, tn=n - alarms, fn=n - hits)
        value = metric_set_from_counts(counts).f1
        if value is not None:
            f1[cell] = value
    if np.isnan(f1).all():
        raise AggregationError(
            "F1 undefined on every grid cell (no positive decisions anywhere)"
        )
    best_f1 = float(np.nanmax(f1))
    # argwhere walks row-major, so ties[0] is the first cell in grid
    # order: on ascending grids, the smallest window, then threshold
    ties = tuple(
        (int(windows[wi]), float(thresholds[ti]))
        for wi, ti in np.argwhere(f1 == best_f1)
    )
    return GridResult(
        method=method,
        windows=tuple(int(w) for w in windows),
        thresholds=tuple(float(t) for t in thresholds),
        f1_matrix=f1,
        best_window=ties[0][0],
        best_threshold=ties[0][1],
        best_f1=best_f1,
        ties=ties,
        n_series=n,
        skipped_records=tuple(skipped),
    )
