"""Decision aggregation checked against direct slow-path definitions."""

import logging

import numpy as np
import pytest

from seiznet.aggregation import (
    DEFAULT_BAYES_THRESHOLDS,
    DEFAULT_BAYES_WINDOWS,
    DEFAULT_DIFF_LAGS,
    DEFAULT_DIFF_THRESHOLDS,
    Rule,
    decide,
    grid_search,
    seizure_counts,
    seizure_eval,
    seizure_metrics,
    statistic,
)
from seiznet.errors import AggregationError, DataError
from seiznet.model import ProbabilitySeries


def series_of(probs, parts):
    return ProbabilitySeries(
        record_id="r",
        probs=np.asarray(probs, dtype=float),
        parts=tuple(parts),
        start_samples=tuple(range(len(parts))),
    )


class TestBayesLogodds:
    def test_matches_product_ratio_oracle(self):
        """The sliding log-odds sum must equal the log of the product
        of p/(1-p) over the window, computed the slow way."""
        worst = 0.0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 31))
            probs = rng.uniform(0.001, 0.999, n)
            w = int(rng.integers(1, n + 1))
            got = statistic(probs, "bayes", w)
            for t in range(n):
                if t < w - 1:
                    assert np.isnan(got[t])
                    continue
                window = probs[t - w + 1 : t + 1]
                want = np.log(np.prod(window / (1.0 - window)))
                worst = max(worst, abs(got[t] - want))
        assert worst < 1e-12

    def test_extreme_probabilities_stay_finite(self):
        lo = statistic(np.array([0.0, 1.0, 0.5]), "bayes", 2)
        assert np.isnan(lo[0])
        assert np.all(np.isfinite(lo[1:]))

    def test_window_longer_than_series(self):
        for method in ("bayes", "diff"):
            assert np.all(np.isnan(statistic(np.array([0.9, 0.9]), method, 5)))

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError, match="window 0"):
            statistic(np.array([0.5]), "bayes", 0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            statistic(np.array([0.5]), "votes", 1)


class TestDecisions:
    def test_bayes_undefined_prefix_is_negative(self):
        d = decide(np.array([0.9, 0.9, 0.9]), Rule("bayes", 2, 0.0))
        assert d.tolist() == [False, True, True]

    def test_bayes_threshold_is_strict(self):
        probs = np.array([0.5, 0.5])
        # log odds of 0.5 is exactly 0; L > 0 must be False
        d = decide(probs, Rule("bayes", 1, 0.0))
        assert not d.any()

    def test_diff_matches_naive_definition(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 40))
            probs = rng.uniform(0, 1, n)
            lag = int(rng.integers(1, 25))
            th = float(rng.uniform(0, 1))
            got = decide(probs, Rule("diff", lag, th))
            want = [
                t >= lag and (probs[t] - probs[t - lag]) > th
                for t in range(n)
            ]
            assert got.tolist() == want

    def test_diff_rejects_nonpositive_lag(self):
        with pytest.raises(ValueError, match="lag 0"):
            decide(np.array([0.5]), Rule("diff", 0, 0.1))


class TestRule:
    def test_dict_names_the_window_parameter(self):
        assert Rule("bayes", 3, 0.5).to_dict() == {
            "method": "bayes", "window": 3, "threshold": 0.5,
        }
        assert Rule("diff", 4, 0.25).to_dict() == {
            "method": "diff", "lag": 4, "threshold": 0.25,
        }

    def test_dict_round_trip(self):
        for rule in (Rule("bayes", 3, 0.5), Rule("diff", 4, 0.25)):
            assert Rule.from_dict(rule.to_dict(), "p.json") == rule

    def test_bayes_rule_with_lag_names_the_source(self):
        payload = {"method": "bayes", "lag": 3, "threshold": 0.5}
        with pytest.raises(DataError, match="p.json: bayes rule lacks 'window'"):
            Rule.from_dict(payload, "p.json")

    def test_unknown_method_names_the_source(self):
        payload = {"method": "votes", "window": 3, "threshold": 0.5}
        with pytest.raises(DataError, match="p.json: unknown aggregation method"):
            Rule.from_dict(payload, "p.json")


PARTS_FULL = (
    ("extended_interictal",) * 2
    + ("interictal",) * 3
    + ("preictal",) * 3
    + ("ictal",) * 3
)


class TestSeizureEval:
    def test_preictal_only_positives_score_nothing(self):
        """Positives confined to the grey region are invisible to both
        the hit and the false-alarm side."""
        decisions = np.zeros(len(PARTS_FULL), dtype=bool)
        decisions[5:8] = True  # exactly the preictal span
        out = seizure_eval(decisions, PARTS_FULL, "r")
        assert out.detected_in_ictal is False
        assert out.false_positive_in_interictal is False
        assert out.first_detection["preictal"] == 5
        assert out.first_detection["ictal"] is None
        counts = seizure_counts([out])
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (0, 0, 1, 1)

    def test_first_detection_indices(self):
        decisions = np.zeros(len(PARTS_FULL), dtype=bool)
        decisions[3] = True   # second interictal window
        decisions[9] = True   # second ictal window
        out = seizure_eval(decisions, PARTS_FULL, "r")
        assert out.detected_in_ictal and out.false_positive_in_interictal
        assert out.first_detection["interictal"] == 3
        assert out.first_detection["ictal"] == 9

    def test_missing_scored_part_skips_with_warning(self, caplog):
        parts = ("interictal",) * 4
        with caplog.at_level(logging.WARNING):
            out = seizure_eval(np.zeros(4, dtype=bool), parts, "stub")
        assert out is None
        assert "stub" in caplog.text

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            seizure_eval(np.zeros(3, dtype=bool), PARTS_FULL, "r")

    def test_record_counts_one_each_way(self):
        hit = seizure_eval(
            np.array([False] * 8 + [True] * 3), PARTS_FULL, "a"
        )
        miss_fp = seizure_eval(
            np.array([False, False, True] + [False] * 8), PARTS_FULL, "b"
        )
        m = seizure_metrics([hit, miss_fp])
        counts = seizure_counts([hit, miss_fp])
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 1, 1, 1)
        assert m.sensitivity == 0.5
        assert m.specificity == 0.5


class TestGridSearch:
    def make_series(self, n=6):
        """Records whose probabilities jump cleanly at the onset."""
        out = []
        for i in range(n):
            probs = np.concatenate([np.full(12, 0.05), np.full(12, 0.95)])
            parts = ("interictal",) * 12 + ("ictal",) * 12
            out.append(
                ProbabilitySeries(
                    record_id=f"r{i}", probs=probs, parts=parts,
                    start_samples=tuple(range(24)),
                )
            )
        return out

    def test_finds_a_perfect_cell_and_prefers_smallest(self):
        grid = grid_search(self.make_series(), "bayes")
        assert grid.best_f1 == 1.0
        perfect = [
            (w, t)
            for wi, w in enumerate(grid.windows)
            for ti, t in enumerate(grid.thresholds)
            if grid.f1_matrix[wi, ti] == 1.0
        ]
        assert (grid.best_window, grid.best_threshold) == min(perfect)
        assert len(grid.ties) == len(perfect)
        assert grid.n_series == 6

    def test_diff_method_key(self):
        grid = grid_search(self.make_series(), "diff")
        assert grid.method == "diff"
        assert grid.best_f1 == 1.0
        assert grid.to_dict()["lag"] == grid.best_window

    def test_custom_grid_respected(self):
        grid = grid_search(
            self.make_series(), "bayes", windows=(2, 3), thresholds=(0.5, 1.0)
        )
        assert grid.windows == (2, 3)
        assert grid.f1_matrix.shape == (2, 2)

    def test_default_grids(self):
        assert DEFAULT_BAYES_WINDOWS == tuple(range(1, 24))
        assert DEFAULT_DIFF_LAGS == tuple(range(1, 24))
        assert DEFAULT_BAYES_THRESHOLDS[1] - DEFAULT_BAYES_THRESHOLDS[0] == 0.25
        assert max(DEFAULT_BAYES_THRESHOLDS) == 5.0
        assert min(DEFAULT_DIFF_THRESHOLDS) == 0.05
        assert max(DEFAULT_DIFF_THRESHOLDS) == 0.95

    def test_unscorable_series_are_skipped_and_reported(self):
        series = self.make_series(2)
        series.append(series_of([0.5] * 4, ("interictal",) * 4))
        grid = grid_search(series, "bayes")
        assert grid.skipped_records == ("r",)
        assert grid.n_series == 2

    def test_all_undefined_grid_raises(self):
        lonely = [series_of([0.5] * 4, ("interictal",) * 4)]
        with pytest.raises(AggregationError):
            grid_search(lonely, "bayes")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            grid_search(self.make_series(1), "votes")
