"""Gradient and semantics checks for the network building blocks.

Every backward pass is held against central finite differences on
seeded random instances; the tolerances are far below anything a
sign or indexing mistake could survive (see the negative control).
"""

import numpy as np
import pytest

from seiznet.errors import TrainingDivergedError
from seiznet.nn.gradcheck import (
    check_layer_gradients,
    draw_without_ties,
    finite_diff_check,
    relative_error,
)
from seiznet.nn import layers
from seiznet.nn.layers import (
    BN_EPS,
    BN_MOMENTUM,
    FFT_MIN_KT,
    BatchNorm,
    Conv,
    Dense,
    Dropout,
    MaxPoolTime,
    ReLU,
    Sigmoid,
    he_uniform,
)
from seiznet.nn.loss import add_l2_gradients, bce_loss, l2_penalty, sgd_step

TOL = 1e-4
N_SEEDS = 20


def naive_conv(x, kernel, bias):
    """Direct cross-correlation with same zero padding on both axes.

    An even kernel puts its extra tap after the centre: (k - 1) // 2
    taps reach back, k // 2 reach forward.
    """
    B, T, C, _ = x.shape
    kt, kc, f_in, f_out = kernel.shape
    pt, pc = (kt - 1) // 2, (kc - 1) // 2
    out = np.zeros((B, T, C, f_out))
    for b in range(B):
        for t in range(T):
            for c in range(C):
                for o in range(f_out):
                    acc = 0.0
                    for dt in range(kt):
                        for dc in range(kc):
                            ti, ci = t + dt - pt, c + dc - pc
                            if 0 <= ti < T and 0 <= ci < C:
                                acc += np.dot(
                                    x[b, ti, ci], kernel[dt, dc, :, o]
                                )
                    out[b, t, c, o] = acc + bias[o]
    return out


# A time kernel on the FFT side of Conv's rule, and a length T whose
# transform size T + kt - 1 is not a fast FFT length.
FFT_KT = FFT_MIN_KT + 1
ODD_T = 67

# (kt, f_in, f_out, channels, T): the direct path, then the FFT path with
# odd and even kernels, one input feature, and 4, 2 and 1 channels (the
# 3-tap channel kernel reaches past both edges, one edge, or neither).
CONV_SHAPES = [
    (3, 2, 2, 4, 6),
    (FFT_KT, 2, 2, 4, ODD_T),
    (FFT_KT - 1, 1, 3, 2, ODD_T),
    (FFT_KT, 2, 1, 1, ODD_T),
]


class TestConv:
    def test_matches_naive_cross_correlation(self):
        for kt, f_in, f_out, C, T in CONV_SHAPES:
            for seed in range(5):
                rng = np.random.default_rng(seed)
                layer = Conv(kt, 3, f_in, f_out, rng)
                layer.bias[:] = rng.normal(size=f_out)
                x = rng.normal(size=(2, T, C, f_in))
                got = layer.forward(x)
                want = naive_conv(x, layer.kernel, layer.bias)
                assert np.max(np.abs(got - want)) < 1e-12, (kt, f_in, C)

    def test_gradients(self):
        # (kt, f_in, channels, T, seeds)
        for kt, f_in, C, T, n_seeds in [
            (3, 2, 4, 5, N_SEEDS),
            (FFT_KT, 2, 4, ODD_T, 2),
            (FFT_KT - 1, 1, 2, ODD_T, 2),
        ]:
            worst = 0.0
            for seed in range(n_seeds):
                rng = np.random.default_rng(100 + seed)
                layer = Conv(kt, 3, f_in, 2, rng)
                x = rng.normal(size=(2, T, C, f_in))
                worst = max(worst, check_layer_gradients(layer, x, rng))
            assert worst < TOL, kt

    def test_wide_time_kernel_gradients(self):
        for kt, T in [(9, 12), (FFT_KT, 40)]:
            rng = np.random.default_rng(0)
            layer = Conv(kt, 3, 1, 2, rng)
            x = rng.normal(size=(1, T, 4, 1))
            assert check_layer_gradients(layer, x, rng) < TOL, kt

    def test_adjoint_equals_backward(self):
        for kt, C, T in [(5, 4, 8), (FFT_KT, 4, ODD_T), (FFT_KT - 1, 1, ODD_T)]:
            rng = np.random.default_rng(1)
            layer = Conv(kt, 3, 2, 3, rng)
            x = rng.normal(size=(2, T, C, 2))
            y = layer.forward(x)
            cot = rng.normal(size=y.shape)
            dx = layer.backward(cot)
            np.testing.assert_array_equal(layer.adjoint(cot), dx)

    @pytest.mark.parametrize("kt, f_in, f_out, C, T", CONV_SHAPES[1:])
    def test_fft_path_matches_direct_path(self, monkeypatch, kt, f_in, f_out, C, T):
        rng = np.random.default_rng(3)
        layer = Conv(kt, 3, f_in, f_out, rng)
        layer.bias[:] = rng.normal(size=f_out)
        x = rng.normal(size=(3, T, C, f_in))
        cot = rng.normal(size=(3, T, C, f_out))

        def run():
            y = layer.forward(x, train=True)
            dx = layer.backward(cot)
            return y, dx, layer.d_kernel.copy(), layer.d_bias.copy(), layer.adjoint(cot)

        fft = run()
        monkeypatch.setattr(layers, "FFT_MIN_KT", kt + 1)
        direct = run()
        for got, want in zip(fft, direct):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_fft_path_sees_in_place_kernel_writes(self):
        """Nothing derived from the kernel may outlive a call: SGD, weight
        restores and gradient checks all write the kernel in place."""
        rng = np.random.default_rng(4)
        layer = Conv(FFT_KT, 3, 2, 2, rng)
        x = rng.normal(size=(1, ODD_T, 4, 2))
        before = layer.forward(x).copy()
        layer.kernel[FFT_KT // 2, 1] *= -3.0
        after = layer.forward(x)
        assert np.max(np.abs(after - before)) > 0.1
        assert np.max(np.abs(after - naive_conv(x, layer.kernel, layer.bias))) < 1e-12

    def test_bias_shifts_every_output(self):
        rng = np.random.default_rng(2)
        layer = Conv(3, 3, 1, 1, rng)
        x = rng.normal(size=(1, 6, 4, 1))
        base = layer.forward(x).copy()
        layer.bias[0] += 2.5
        np.testing.assert_allclose(layer.forward(x), base + 2.5)


class TestBatchNorm:
    def test_train_mode_gradients(self):
        worst = 0.0
        for seed in range(N_SEEDS):
            rng = np.random.default_rng(200 + seed)
            layer = BatchNorm(3)
            layer.gamma[:] = rng.uniform(0.5, 1.5, 3)
            layer.beta[:] = rng.normal(size=3)
            x = rng.normal(size=(3, 4, 2, 3))
            worst = max(worst, check_layer_gradients(layer, x, rng, train=True))
        assert worst < TOL

    def test_infer_mode_gradients(self):
        worst = 0.0
        for seed in range(N_SEEDS):
            rng = np.random.default_rng(300 + seed)
            layer = BatchNorm(2)
            layer.running_mean[:] = rng.normal(size=2)
            layer.running_var[:] = rng.uniform(0.5, 2.0, 2)
            layer.gamma[:] = rng.uniform(0.5, 1.5, 2)
            x = rng.normal(size=(2, 3, 2, 2))
            worst = max(worst, check_layer_gradients(layer, x, rng, train=False))
        assert worst < TOL

    def test_normalizes_batch_statistics(self):
        rng = np.random.default_rng(3)
        layer = BatchNorm(2)
        x = rng.normal(3.0, 2.0, size=(4, 10, 4, 2))
        y = layer.forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=(0, 1, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=(0, 1, 2)), 1.0, atol=1e-3)

    def test_running_stats_update_rule(self):
        rng = np.random.default_rng(4)
        layer = BatchNorm(2)
        x = rng.normal(1.0, 1.5, size=(3, 6, 2, 2))
        layer.forward(x, train=True)
        mean = x.mean(axis=(0, 1, 2))
        var = x.var(axis=(0, 1, 2))  # biased, matching the forward pass
        np.testing.assert_allclose(
            layer.running_mean, (1 - BN_MOMENTUM) * mean, rtol=1e-12
        )
        np.testing.assert_allclose(
            layer.running_var, BN_MOMENTUM * 1.0 + (1 - BN_MOMENTUM) * var,
            rtol=1e-12,
        )

    def test_infer_uses_running_stats(self):
        layer = BatchNorm(1)
        layer.running_mean[:] = 2.0
        layer.running_var[:] = 4.0
        layer.gamma[:] = 3.0
        layer.beta[:] = -1.0
        x = np.full((1, 2, 1, 1), 4.0)
        want = 3.0 * (4.0 - 2.0) / np.sqrt(4.0 + BN_EPS) - 1.0
        np.testing.assert_allclose(layer.forward(x, train=False), want)

    def test_train_needs_two_samples(self):
        layer = BatchNorm(1)
        with pytest.raises(ValueError, match="batch size"):
            layer.forward(np.zeros((1, 4, 2, 1)), train=True)


class TestMaxPool:
    def test_forward_pads_with_neg_inf(self):
        x = np.arange(1, 8, dtype=float).reshape(1, 7, 1, 1)
        out = MaxPoolTime(3).forward(x)
        np.testing.assert_array_equal(out[0, :, 0, 0], [3.0, 6.0, 7.0])

    def test_backward_routes_to_argmax(self):
        x = np.array([1.0, 5.0, 2.0, 4.0]).reshape(1, 4, 1, 1)
        layer = MaxPoolTime(2)
        layer.forward(x)
        dx = layer.backward(np.array([10.0, 20.0]).reshape(1, 2, 1, 1))
        np.testing.assert_array_equal(dx[0, :, 0, 0], [0.0, 10.0, 0.0, 20.0])

    def test_gradients(self):
        worst = 0.0
        for seed in range(N_SEEDS):
            rng = np.random.default_rng(400 + seed)
            layer = MaxPoolTime(3)
            x = draw_without_ties(rng, (2, 7, 2, 2))
            worst = max(worst, check_layer_gradients(layer, x, rng))
        assert worst < TOL


class TestReluSigmoid:
    def test_relu_gradients(self):
        worst = 0.0
        for seed in range(N_SEEDS):
            rng = np.random.default_rng(500 + seed)
            x = draw_without_ties(rng, (2, 4, 3, 2))
            worst = max(worst, check_layer_gradients(ReLU(), x, rng))
        assert worst < TOL

    def test_sigmoid_gradients(self):
        worst = 0.0
        for seed in range(N_SEEDS):
            rng = np.random.default_rng(600 + seed)
            x = rng.normal(size=(3, 5)) * 3.0
            worst = max(worst, check_layer_gradients(Sigmoid(), x, rng))
        assert worst < TOL

    def test_sigmoid_extreme_inputs_stay_finite(self):
        y = Sigmoid().forward(np.array([[-800.0, 800.0, 0.0]]))
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, [[0.0, 1.0, 0.5]], atol=1e-12)


class TestDense:
    def test_gradients(self):
        worst = 0.0
        for seed in range(N_SEEDS):
            rng = np.random.default_rng(700 + seed)
            layer = Dense(12, 3, rng)
            x = rng.normal(size=(2, 12))
            worst = max(worst, check_layer_gradients(layer, x, rng))
        assert worst < TOL

    def test_flattens_4d_input(self):
        rng = np.random.default_rng(5)
        layer = Dense(2 * 3 * 2, 4, rng)
        x = rng.normal(size=(3, 2, 3, 2))
        out = layer.forward(x)
        assert out.shape == (3, 4)
        dx = layer.backward(np.ones((3, 4)))
        assert dx.shape == x.shape

    def test_rejects_wrong_width(self):
        layer = Dense(8, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="flattened features"):
            layer.forward(np.zeros((1, 9)))


class TestDropout:
    def test_inference_is_identity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 6))
        layer = Dropout(0.5, rng)
        np.testing.assert_array_equal(layer.forward(x, train=False), x)

    def test_training_masks_and_rescales(self):
        rng = np.random.default_rng(7)
        layer = Dropout(0.4, rng)
        x = np.ones((200, 50))
        y = layer.forward(x, train=True)
        kept = y != 0
        # survivors are scaled by 1/(1-rate); the keep rate matches
        np.testing.assert_allclose(y[kept], 1.0 / 0.6)
        assert abs(kept.mean() - 0.6) < 0.02

    def test_backward_reuses_forward_mask(self):
        rng = np.random.default_rng(8)
        layer = Dropout(0.3, rng)
        x = np.ones((5, 8))
        y = layer.forward(x, train=True)
        dx = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(dx != 0, y != 0)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            Dropout(1.0, np.random.default_rng(0))


class TestLossAndPenalty:
    def test_bce_matches_definition(self):
        rng = np.random.default_rng(9)
        p = rng.uniform(0.01, 0.99, size=(16, 1))
        y = rng.integers(0, 2, size=16).astype(float)
        loss, _ = bce_loss(p, y)
        want = -np.mean(
            y * np.log(p[:, 0]) + (1 - y) * np.log(1 - p[:, 0])
        )
        assert abs(loss - want) < 1e-12

    def test_bce_gradient(self):
        worst = 0.0
        for seed in range(N_SEEDS):
            rng = np.random.default_rng(800 + seed)
            p = rng.uniform(0.05, 0.95, size=(8, 1))
            y = rng.integers(0, 2, size=8).astype(float)
            _, d = bce_loss(p, y)
            worst = max(
                worst,
                finite_diff_check(lambda: bce_loss(p, y)[0], p, d),
            )
        assert worst < TOL

    def test_bce_clamps_and_zeroes_gradient_outside(self):
        p = np.array([[0.0], [1.0], [0.5]])
        y = np.array([0.0, 1.0, 1.0])
        loss, d = bce_loss(p, y)
        assert np.isfinite(loss)
        assert d[0, 0] == 0.0 and d[1, 0] == 0.0
        assert d[2, 0] != 0.0

    def test_l2_penalty_and_gradient(self):
        rng = np.random.default_rng(10)
        layer = Conv(3, 3, 1, 2, rng)
        lam = 0.05
        want = lam * (np.sum(layer.kernel**2) + np.sum(layer.bias**2))
        assert abs(l2_penalty([layer], lam) - want) < 1e-12
        layer.d_kernel[:] = 0.0
        layer.d_bias[:] = 0.0
        add_l2_gradients([layer], lam)
        err = finite_diff_check(
            lambda: l2_penalty([layer], lam), layer.kernel, layer.d_kernel
        )
        assert err < TOL

    def test_zero_lambda_is_free(self):
        layer = Dense(4, 2, np.random.default_rng(0))
        assert l2_penalty([layer], 0.0) == 0.0
        before = layer.d_weight.copy()
        add_l2_gradients([layer], 0.0)
        np.testing.assert_array_equal(layer.d_weight, before)


class TestSgd:
    def test_updates_in_place(self):
        rng = np.random.default_rng(11)
        layer = Dense(3, 2, rng)
        layer.d_weight[:] = 1.0
        layer.d_bias[:] = 2.0
        w = layer.weight.copy()
        sgd_step([layer], lr=0.1)
        np.testing.assert_allclose(layer.weight, w - 0.1)
        np.testing.assert_allclose(layer.bias, -0.2)

    def test_nonfinite_gradient_names_the_culprit(self):
        layer = Dense(3, 2, np.random.default_rng(12))
        layer.d_weight[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match=r"Dense\.weight"):
            sgd_step([layer], lr=0.1, context="unit test")


def test_he_uniform_bounds():
    rng = np.random.default_rng(13)
    w = he_uniform(rng, (50, 40), fan_in=50)
    limit = np.sqrt(6.0 / 50)
    assert np.max(np.abs(w)) <= limit
    assert np.max(np.abs(w)) > 0.8 * limit  # actually spread out


def test_negative_control_detects_corrupted_gradient():
    """A 1% error in a backward pass must trip the oracle."""
    rng = np.random.default_rng(14)
    layer = Conv(3, 3, 1, 1, rng)
    x = rng.normal(size=(1, 5, 4, 1))
    u = rng.standard_normal(layer.forward(x).shape)
    layer.forward(x)
    dx = layer.backward(u) * 1.01

    def objective():
        return float(np.sum(u * layer.forward(x)))

    assert finite_diff_check(objective, x, dx) > TOL


def test_relative_error_floor():
    a = np.array([0.0, 1e-12])
    assert relative_error(a, a) == 0.0
    assert relative_error(np.array([1.0]), np.array([1.0001])) < 2e-4
