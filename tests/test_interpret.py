import numpy as np
import pytest

from seiznet.data.records import record_segments
from seiznet.interpret import (
    AttributionMap,
    deeplift,
    main_frequencies,
    maximize_input,
    propagate_multipliers,
    rank_filters,
    welch_psd,
)
from seiznet.model import ModelConfig, build
from seiznet.nn.layers import Dense, Sigmoid

from conftest import labeled_segments


class TestWelch:
    def test_one_hertz_bins(self):
        s = welch_psd(np.zeros(1280))
        assert s.freqs[1] - s.freqs[0] == 1.0
        assert s.freqs[0] == 0.0
        assert s.freqs[-1] == 128.0

    def test_recovers_pure_tones(self):
        t = np.arange(1280) / 256.0
        for f in (5, 8, 14, 72, 97):
            s = welch_psd(np.sin(2 * np.pi * f * t))
            peak = s.freqs[np.argmax(s.power)]
            assert abs(peak - f) <= 1.0
            assert main_frequencies(s)[0] in (f - 1, f, f + 1)

    def test_two_tones_both_reported(self):
        t = np.arange(1280) / 256.0
        sig = np.sin(2 * np.pi * 8 * t) + 0.8 * np.sin(2 * np.pi * 30 * t)
        freqs = main_frequencies(welch_psd(sig))
        assert 8 in freqs and 30 in freqs
        assert freqs[0] == 8  # stronger component listed first

    def test_weak_component_below_threshold_dropped(self):
        t = np.arange(1280) / 256.0
        sig = np.sin(2 * np.pi * 8 * t) + 0.05 * np.sin(2 * np.pi * 30 * t)
        assert 30 not in main_frequencies(welch_psd(sig))

    def test_silence_has_no_main_frequency(self):
        assert main_frequencies(welch_psd(np.zeros(1280))) == []

    def test_rejects_multichannel(self):
        with pytest.raises(ValueError, match="single channel"):
            welch_psd(np.zeros((100, 4)))


class TestMaximize:
    def test_objective_improves(self, tiny_trained):
        for target in ("first", "last_block"):
            results = rank_filters(
                tiny_trained, target, init_amp=10.0, seed=0, steps=30
            )
            for res in results:
                assert res.objective >= res.objective_init
                assert res.signal.shape == (1280, 4)
                assert 0.0 <= res.probability <= 1.0
        # the first block of this fixture is known to be fully alive
        first = rank_filters(tiny_trained, "first", init_amp=10.0, seed=0, steps=30)
        assert all(not r.dead_filter for r in first)
        assert all(r.steps_run == 30 for r in first)
        assert all(r.objective > 2 * r.objective_init for r in first)

    def test_input_mode_keeps_amplitude(self, tiny_trained):
        res = maximize_input(
            tiny_trained, "first", 0, init_amp=10.0, seed=1,
            steps=15, normalize="input",
        )
        rms = float(np.sqrt(np.mean(res.signal**2)))
        init_rms = 10.0 / np.sqrt(3)  # RMS of uniform(-a, a)
        assert abs(rms - init_rms) / init_rms < 0.05

    def test_zeroed_filter_reported_dead(self):
        model = build(
            ModelConfig.desk(time_kernel=9, filters=(2, 2, 2), fc_hidden=4)
        )
        conv = model.layers[0]
        conv.kernel[..., 0] = 0.0
        conv.bias[0] = 0.0
        res = maximize_input(model, "first", 0, init_amp=5.0, seed=2, steps=30)
        assert res.dead_filter
        assert res.steps_run < 30
        assert res.objective == res.objective_init

    def test_filter_range_checked(self, tiny_trained):
        with pytest.raises(ValueError, match="out of range"):
            maximize_input(tiny_trained, "first", 99, init_amp=5.0, seed=0)

    def test_unknown_target_and_mode(self, tiny_trained):
        with pytest.raises(ValueError, match="target"):
            maximize_input(tiny_trained, "middle", 0, init_amp=5.0, seed=0)
        with pytest.raises(ValueError, match="normalize"):
            maximize_input(
                tiny_trained, "first", 0, init_amp=5.0, seed=0,
                normalize="unit",
            )

    def test_rank_filters_order_and_determinism(self, tiny_trained):
        a = rank_filters(tiny_trained, "last_block", init_amp=10.0, seed=5, steps=10)
        b = rank_filters(tiny_trained, "last_block", init_amp=10.0, seed=5, steps=10)
        assert len(a) == 4
        assert [r.filter_idx for r in a] == [r.filter_idx for r in b]
        objectives = [r.objective for r in a]
        assert objectives == sorted(objectives, reverse=True)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.signal, rb.signal)


class TestDeeplift:
    def test_baseline_attribution_is_zero(self, tiny_trained):
        out = deeplift(tiny_trained, np.zeros((1280, 4)))
        np.testing.assert_array_equal(out.shap, 0.0)
        assert out.probability == out.reference_probability
        assert out.summation_gap == 0.0
        assert out.normalization == 1.0  # zero map must not divide by zero

    def test_summation_to_delta_on_trained_model(
        self, tiny_trained, small_corpus
    ):
        rng = np.random.default_rng(0)
        segs = record_segments(small_corpus[3])
        worst = 0.0
        for i in rng.choice(len(segs), 8, replace=False):
            a = deeplift(tiny_trained, segs[i].data)
            worst = max(worst, a.summation_gap)
        assert worst < 1e-6

    def test_linear_network_matches_analytic(self):
        """One dense layer plus a sigmoid: the multipliers have a
        closed form, so the attribution must match it exactly."""
        rng = np.random.default_rng(3)
        dense = Dense(6, 1, rng)
        layers = [dense, Sigmoid()]
        x = rng.normal(size=(1, 6))
        baseline = np.zeros_like(x)
        m, out, ref_out = propagate_multipliers(layers, x, baseline)
        z = float((x @ dense.weight + dense.bias)[0, 0])
        b = float(dense.bias[0])
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        m_sig = (sig(z) - sig(b)) / (z - b)
        want = m_sig * dense.weight[:, 0] * x[0]
        got = (m * x)[0]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert abs(got.sum() - (out - ref_out)) < 1e-12

    def test_custom_baseline(self, tiny_trained, small_corpus):
        seg = record_segments(small_corpus[0])[40]
        base = record_segments(small_corpus[0])[1]
        a = deeplift(tiny_trained, seg.data, baseline=base.data)
        total = float(np.sum(a.shap))
        delta = a.probability - a.reference_probability
        assert abs(total - delta) <= 1e-6 * max(abs(delta), 1e-9)

    def test_baseline_shape_must_match(self, tiny_trained):
        with pytest.raises(ValueError, match="shape"):
            deeplift(
                tiny_trained, np.zeros((1280, 4)), baseline=np.zeros((640, 4))
            )

    def test_normalization_is_peak_magnitude(self):
        m = AttributionMap(
            shap=np.array([[0.2, -0.5], [0.1, 0.0]]),
            probability=0.7,
            reference_probability=0.5,
        )
        assert m.normalization == 0.5
