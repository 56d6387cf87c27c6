"""Property tests: aggregation and ranking against their definitions.

Hypothesis runs derandomized, with no example database and no
deadline, so every run draws the same examples in the same order.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seiznet.aggregation import (
    LOGODDS_FLOOR,
    Rule,
    decide,
    grid_search,
    seizure_eval,
    seizure_metrics,
    statistic,
)
from seiznet.errors import AggregationError
from seiznet.metrics import roc_auc
from seiznet.model import ProbabilitySeries

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None, max_examples=150)

PART_NAMES = ("extended_interictal", "interictal", "preictal", "ictal")
# Exact values give ties: log odds of 0.5 is 0, and the clamp bites at 0 and 1.
probabilities = st.one_of(
    st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False),
)
prob_lists = st.lists(probabilities, min_size=0, max_size=30)


@st.composite
def probability_series(draw, record_id):
    probs = draw(st.lists(probabilities, min_size=1, max_size=20))
    parts = sorted(
        draw(st.lists(st.sampled_from(PART_NAMES), min_size=len(probs), max_size=len(probs))),
        key=PART_NAMES.index,
    )
    return ProbabilitySeries(
        record_id=record_id,
        probs=np.asarray(probs),
        parts=tuple(parts),
        start_samples=tuple(range(len(probs))),
    )


@st.composite
def grids(draw):
    method = draw(st.sampled_from(["bayes", "diff"]))
    n = draw(st.integers(1, 5))
    series = [draw(probability_series(f"r{i}")) for i in range(n)]
    windows = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True)))
    span = 4.0 if method == "bayes" else 1.0
    thresholds = tuple(
        draw(
            st.lists(
                st.one_of(st.sampled_from([0.0, 0.25]), st.floats(-span, span)),
                min_size=1,
                max_size=5,
                unique=True,
            )
        )
    )
    return method, series, windows, thresholds


def explicit_f1(series, rule: Rule):
    outcomes = [seizure_eval(decide(s.probs, rule), s.parts, s.record_id) for s in series]
    return seizure_metrics([o for o in outcomes if o is not None]).f1


@DETERMINISTIC
@given(grids())
def test_grid_cells_equal_explicit_decisions(case):
    method, series, windows, thresholds = case
    cells = {
        (w, t): explicit_f1(series, Rule(method, w, t))
        for w in windows
        for t in thresholds
    }
    defined = {cell: f1 for cell, f1 in cells.items() if f1 is not None}
    try:
        grid = grid_search(series, method, windows=windows, thresholds=thresholds)
    except AggregationError:
        assert not defined
        return
    for wi, w in enumerate(windows):
        for ti, t in enumerate(thresholds):
            got = grid.f1_matrix[wi, ti]
            want = cells[(w, t)]
            assert (np.isnan(got) and want is None) or got == want
    # argmax: highest F1, the first such cell in row-major order
    best = max(defined.values())
    first = next(cell for cell, f1 in cells.items() if f1 == best)
    assert (grid.best_window, grid.best_threshold, grid.best_f1) == (*first, best)


@DETERMINISTIC
@given(prob_lists, st.integers(1, 12))
def test_bayes_statistic_equals_windowed_sum(probs, window):
    got = statistic(probs, "bayes", window)
    clamped = [min(max(p, LOGODDS_FLOOR), 1.0 - LOGODDS_FLOOR) for p in probs]
    terms = [math.log(p / (1.0 - p)) for p in clamped]
    # Each term is a difference of two logs, and the windowed sum a
    # difference of two prefix sums of up to n terms: a few roundings
    # per log, scaled by the logs' magnitudes.
    scale = sum(abs(math.log(p)) + abs(math.log1p(-p)) for p in clamped)
    tol = 4 * max(len(terms), 1) * np.finfo(float).eps * scale
    for t in range(len(probs)):
        if t < window - 1:
            assert np.isnan(got[t])
        else:
            want = math.fsum(terms[t - window + 1 : t + 1])
            assert abs(got[t] - want) <= tol


@DETERMINISTIC
@given(prob_lists, st.integers(1, 12))
def test_diff_statistic_equals_lagged_difference(probs, lag):
    got = statistic(probs, "diff", lag)
    for t in range(len(probs)):
        if t < lag:
            assert np.isnan(got[t])
        else:
            assert got[t] == probs[t] - probs[t - lag]


@DETERMINISTIC
@given(st.lists(st.tuples(st.integers(0, 1), probabilities), min_size=1, max_size=40))
def test_roc_auc_equals_mann_whitney_count(pairs):
    labels = np.array([label for label, _ in pairs])
    probs = np.array([p for _, p in pairs])
    pos = probs[labels == 1]
    neg = probs[labels == 0]
    got = roc_auc(labels, probs)
    if pos.size == 0 or neg.size == 0:
        assert got is None
        return
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    assert abs(got - wins / (pos.size * neg.size)) <= 1e-12
