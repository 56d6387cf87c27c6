import numpy as np
import pytest

from seiznet.metrics import (
    ConfusionCounts,
    confusion,
    fold_auc_summary,
    metric_set,
    metric_set_from_counts,
    prob_histogram,
    roc_auc,
)


def pair_count_auc(labels, probs):
    """AUC as the probability a positive outranks a negative, ties 0.5.

    Quadratic, but independent of the trapezoid implementation.
    """
    pos = probs[labels == 1]
    neg = probs[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


class TestConfusion:
    def test_hand_counts(self):
        labels = np.array([1, 1, 0, 0, 1, 0])
        probs = np.array([0.9, 0.3, 0.8, 0.1, 0.6, 0.4])
        c = confusion(labels, probs, 0.5)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 2, 1)

    def test_tie_predicts_positive(self):
        c = confusion(np.array([1, 0]), np.array([0.5, 0.5]), 0.5)
        assert (c.tp, c.fp) == (1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            confusion(np.zeros(3), np.zeros(4), 0.5)


class TestNonFiniteProbabilities:
    """NaN compares False with both bounds, so a range check alone
    would let it through into the counts."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_metric_set_rejects(self, bad):
        with pytest.raises(ValueError, match="finite"):
            metric_set(np.array([0, 1, 1]), np.array([0.2, bad, 0.9]), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_roc_auc_rejects(self, bad):
        with pytest.raises(ValueError, match="finite"):
            roc_auc(np.array([0, 1, 1]), np.array([0.2, bad, 0.9]))

    def test_histogram_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            prob_histogram(np.array([0.2, np.nan]))


class TestMetricSet:
    def test_no_positives_leaves_sensitivity_undefined(self):
        m = metric_set(np.zeros(5), np.full(5, 0.1), 0.5)
        assert m.sensitivity is None
        assert m.f1 is None
        assert m.specificity == 1.0
        assert m.precision is None  # nothing was predicted positive

    def test_no_predicted_positives_leaves_precision_undefined(self):
        m = metric_set(np.array([1, 0]), np.array([0.1, 0.2]), 0.9)
        assert m.precision is None
        assert m.sensitivity == 0.0
        assert m.f1 is None

    def test_zero_sum_f1_is_undefined(self):
        m = metric_set_from_counts(ConfusionCounts(tp=0, fp=3, tn=0, fn=2))
        assert m.precision == 0.0 and m.sensitivity == 0.0
        assert m.f1 is None

    def test_perfect_case(self):
        m = metric_set(np.array([1, 1, 0, 0]), np.array([.9, .8, .2, .1]), 0.5)
        assert m.accuracy == 1.0
        assert m.f1 == 1.0
        assert m.to_dict()["tp"] == 2

    def test_never_silently_zero(self):
        # an empty evaluation must not fabricate numbers
        m = metric_set(np.array([]), np.array([]), 0.5)
        assert m.accuracy is None


class TestRocAuc:
    def test_perfect_and_inverted(self):
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(labels, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
        assert roc_auc(labels, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0

    def test_single_class_undefined(self):
        assert roc_auc(np.ones(4), np.linspace(0, 1, 4)) is None
        assert roc_auc(np.zeros(4), np.linspace(0, 1, 4)) is None

    def test_all_tied_scores(self):
        labels = np.array([1, 0, 1, 0])
        assert roc_auc(labels, np.full(4, 0.7)) == 0.5

    def test_matches_pair_counting_oracle(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse grid of probabilities forces plenty of ties
            probs = rng.integers(0, 7, n) / 6.0
            got = roc_auc(labels, probs)
            want = pair_count_auc(labels, probs)
            assert abs(got - want) < 1e-12


class TestFoldSummary:
    def test_mean_and_sample_std(self):
        folds = [
            (np.array([0, 1]), np.array([0.1, 0.9])),  # auc 1.0
            (np.array([0, 1]), np.array([0.9, 0.1])),  # auc 0.0
        ]
        mean, std, per_fold = fold_auc_summary(folds)
        assert mean == 0.5
        assert abs(std - np.std([0.0, 1.0], ddof=1)) < 1e-15
        assert per_fold == [1.0, 0.0]

    def test_undefined_folds_are_excluded_not_zeroed(self):
        folds = [
            (np.ones(3), np.array([0.5, 0.6, 0.7])),   # single class
            (np.array([0, 1]), np.array([0.2, 0.8])),  # auc 1.0
        ]
        mean, std, per_fold = fold_auc_summary(folds)
        assert per_fold == [None, 1.0]
        assert mean == 1.0
        assert std == 0.0

    def test_all_undefined(self):
        mean, std, per_fold = fold_auc_summary(
            [(np.ones(2), np.array([0.1, 0.2]))]
        )
        assert mean is None and std is None
        assert per_fold == [None]


class TestHistogram:
    def test_twenty_bins_cover_unit_interval(self):
        probs = np.linspace(0, 1, 41)
        counts, edges = prob_histogram(probs)
        assert counts.sum() == 41
        assert len(counts) == 20
        assert len(edges) == 21
        assert edges[0] == 0.0 and edges[-1] == 1.0

    def test_one_lands_in_last_bin(self):
        counts, _ = prob_histogram(np.array([1.0, 1.0, 0.9999]))
        assert counts[-1] == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            prob_histogram(np.array([0.5, 1.2]))
