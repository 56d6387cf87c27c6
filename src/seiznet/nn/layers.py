"""Network layers on float64 numpy arrays.

Feature maps are laid out as (batch, time, channel, feature).  Every
layer caches what its backward pass needs during forward, so a layer
instance handles one forward/backward pair at a time.

Attribution support: `adjoint` applies the exact linear pullback of a
layer (valid for layers that are linear maps in inference mode) and is
shared by gradient backprop and multiplier propagation.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import next_fast_len

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
# Conv kernels with at least this many time taps run as FFT convolution.
# At batch 1, where streaming, maximization and attribution run, the FFT
# path catches up with the direct one between 47 and 63 taps on the
# filter shapes of the desk and full profiles; README has the figures.
FFT_MIN_KT = 64


def he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Base layer: no parameters, identity bookkeeping."""

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> list[tuple[str, np.ndarray]]:
        """Trainable arrays, as (name, array) pairs."""
        return []

    def grads(self) -> list[tuple[str, np.ndarray]]:
        """Gradients matching params(), filled by backward()."""
        return []

    def state(self) -> list[tuple[str, np.ndarray]]:
        """All persistable arrays (trainable plus running statistics)."""
        return self.params()

    def penalized(self) -> list[np.ndarray]:
        """Arrays included in the L2 penalty."""
        return []


class Conv(Layer):
    """2D cross-correlation over (time, channel) with same zero padding.

    Kernel shape is (kt, kc, f_in, f_out), stride fixed at 1x1.  Two
    algorithms compute the same map; kernels of at least FFT_MIN_KT
    time taps take the second.

    - Direct: the input is unfolded over time taps (im2col) while the
      narrow channel axis is folded into a block-banded kernel matrix,
      so a pass is one matrix product per sample.
    - FFT: input and kernel are transformed along time, each channel
      tap becomes one complex matrix product per frequency, and the
      result is transformed back and cropped.  The transform length is
      at least T + kt - 1, so nothing wraps around.

    The kernel is transformed anew on every call: training, weight
    restores and gradient checks write `kernel` in place.
    """

    def __init__(self, kt: int, kc: int, f_in: int, f_out: int, rng: np.random.Generator):
        self.kt, self.kc, self.f_in, self.f_out = kt, kc, f_in, f_out
        self.kernel = he_uniform(rng, (kt, kc, f_in, f_out), fan_in=kt * kc * f_in)
        self.bias = np.zeros(f_out)
        self.d_kernel = np.zeros_like(self.kernel)
        self.d_bias = np.zeros_like(self.bias)
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.shape[3] != self.f_in:
            raise ValueError(f"expected {self.f_in} input features, got {x.shape[3]}")
        if self.kt >= FFT_MIN_KT:
            out = self._fft_forward(x)
        else:
            out = self._direct_forward(x)
        out += self.bias
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.d_bias = dy.sum(axis=(0, 1, 2))
        if self._cache[0] == "fft":
            return self._fft_backward(dy)
        return self._direct_backward(dy)

    def adjoint(self, m: np.ndarray) -> np.ndarray:
        """Pull a cotangent back through the linear part (no bias)."""
        B, T, C, _ = m.shape
        if self.kt >= FFT_MIN_KT:
            n = next_fast_len(T + self.kt - 1, real=True)
            ms = _rfft0(m.transpose(1, 2, 0, 3), n)
            return self._fft_input_grad(ms, _rfft0(self.kernel, n), n, T)
        return self._direct_input_grad(
            m.reshape(B, T, C * self.f_out), (B, T, C, self.f_in)
        )

    # ------------------------------------------------------------ direct

    def _banded(self, n_channels: int) -> np.ndarray:
        """Kernel as a (kt * C * f_in, C * f_out) block-banded matrix.

        Block (src_c, out_c) of tap dt holds kernel[dt, dc] where
        dc = src_c - out_c + pad; channel positions off the band stay
        zero, which reproduces the zero padding over channels.
        """
        C, Fi, Fo = n_channels, self.f_in, self.f_out
        banded = np.zeros((self.kt, C, Fi, C, Fo))
        for dc, out, src in _channel_taps(C, self.kc):
            for out_c, src_c in zip(range(C)[out], range(C)[src]):
                banded[:, src_c, :, out_c] = self.kernel[:, dc]
        return banded.reshape(self.kt * C * Fi, C * Fo)

    def _pad(self, x: np.ndarray) -> np.ndarray:
        """Zero-pad the time axis, channels and features flattened."""
        B, T, C, Fi = x.shape
        pt0 = (self.kt - 1) // 2
        xp = np.zeros((B, T + self.kt - 1, C * Fi))
        xp[:, pt0 : pt0 + T] = x.reshape(B, T, C * Fi)
        return xp

    @staticmethod
    def _window_view(xp: np.ndarray, t_out: int, kt: int) -> np.ndarray:
        """Overlapping (B, T, kt*width) view over consecutive time rows.

        Consecutive taps are consecutive padded rows, so each row of
        the im2col matrix already exists as kt*width contiguous floats
        inside xp; no data is materialized here.
        """
        sb, st, sw = xp.strides
        return np.lib.stride_tricks.as_strided(
            xp, (xp.shape[0], t_out, kt * xp.shape[2]), (sb, st, sw)
        )

    def _direct_forward(self, x: np.ndarray) -> np.ndarray:
        B, T, C, Fi = x.shape
        xp = self._pad(x)
        banded = self._banded(C)
        view = self._window_view(xp, T, self.kt)
        out = np.empty((B, T, C * self.f_out))
        buf = np.empty(view.shape[1:])
        for b in range(B):
            np.copyto(buf, view[b])
            np.matmul(buf, banded, out=out[b])
        self._cache = ("direct", xp, x.shape)
        return out.reshape(B, T, C, self.f_out)

    def _direct_backward(self, dy: np.ndarray) -> np.ndarray:
        _, xp, (B, T, C, Fi) = self._cache
        dy3 = dy.reshape(B, T, C * self.f_out)
        view = self._window_view(xp, T, self.kt)
        d_banded = np.zeros((self.kt * C * Fi, C * self.f_out))
        buf = np.empty(view.shape[1:])
        for b in range(B):
            np.copyto(buf, view[b])
            d_banded += buf.T @ dy3[b]
        self.d_kernel = self._fold_grad(d_banded, C)
        return self._direct_input_grad(dy3, (B, T, C, Fi))

    def _direct_input_grad(self, dy3: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """Adjoint of the padded correlation: overlap-add per time tap."""
        B, T, C, Fi = shape
        pt0 = (self.kt - 1) // 2
        banded3 = self._banded(C).reshape(self.kt, C * Fi, C * self.f_out)
        d_xp = np.zeros((B, T + self.kt - 1, C * Fi))
        tmp = np.empty((B, T, C * Fi))
        for dt in range(self.kt):
            np.matmul(dy3, banded3[dt].transpose(1, 0), out=tmp)
            d_xp[:, dt : dt + T] += tmp
        return np.ascontiguousarray(d_xp[:, pt0 : pt0 + T]).reshape(B, T, C, Fi)

    def _fold_grad(self, d_banded: np.ndarray, C: int) -> np.ndarray:
        """Collapse a banded-matrix gradient back onto the kernel."""
        db = d_banded.reshape(self.kt, C, self.f_in, C, self.f_out)
        dk = np.zeros_like(self.kernel)
        for dc, out, src in _channel_taps(C, self.kc):
            for out_c, src_c in zip(range(C)[out], range(C)[src]):
                dk[:, dc] += db[:, src_c, :, out_c]
        return dk

    # --------------------------------------------------------------- FFT
    #
    # The input is transformed reversed in time, which turns every
    # correlation here into a convolution: the forward pass, the input
    # gradient and the kernel gradient all multiply plain spectra, and
    # no spectrum is conjugated.  With xr the reversed input and pt0
    # the leading time padding:
    #   y[t]   = (xr * k)[T - 1 + pt0 - t]
    #   dx[s]  = (dy * k)[s + pt0]
    #   dk[dt] = (xr * dy)[T - 1 + pt0 - dt]
    # Batched spectra are laid out as (freq, channel, batch, feature),
    # so the rows of a channel range are one block per frequency.

    def _fft_forward(self, x: np.ndarray) -> np.ndarray:
        B, T, C, _ = x.shape
        n = next_fast_len(T + self.kt - 1, real=True)
        xs = _rfft0(x.transpose(1, 2, 0, 3)[::-1], n)
        ys = _mix_channels(xs, _rfft0(self.kernel, n), _channel_taps(C, self.kc))
        self._cache = ("fft", (xs, n), x.shape)
        pt0 = (self.kt - 1) // 2
        y = _irfft0(ys, n)[pt0 : pt0 + T][::-1]
        return np.ascontiguousarray(y.transpose(2, 0, 1, 3))

    def _fft_backward(self, dy: np.ndarray) -> np.ndarray:
        _, (xs, n), (_, T, C, Fi) = self._cache
        ks = _rfft0(self.kernel, n)
        ds = _rfft0(dy.transpose(1, 2, 0, 3), n)
        gs = np.zeros_like(ks)
        for dc, out, src in _channel_taps(C, self.kc):
            rows_x = xs[:, src].reshape(xs.shape[0], -1, Fi)
            rows_d = ds[:, out].reshape(ds.shape[0], -1, self.f_out)
            np.matmul(rows_x.transpose(0, 2, 1), rows_d, out=gs[:, dc])
        end = T + (self.kt - 1) // 2
        self.d_kernel = np.ascontiguousarray(_irfft0(gs, n)[end - self.kt : end][::-1])
        return self._fft_input_grad(ds, ks, n, T)

    def _fft_input_grad(self, ds, ks, n: int, T: int) -> np.ndarray:
        """dx = dy * kernel from their spectra, cropped to the input."""
        C = ds.shape[1]
        taps = [(dc, src, out) for dc, out, src in _channel_taps(C, self.kc)]
        dxs = _mix_channels(ds, ks.transpose(0, 1, 3, 2), taps)
        pt0 = (self.kt - 1) // 2
        dx = _irfft0(dxs, n)[pt0 : pt0 + T]
        return np.ascontiguousarray(dx.transpose(2, 0, 1, 3))

    def params(self):
        return [("kernel", self.kernel), ("bias", self.bias)]

    def grads(self):
        return [("kernel", self.d_kernel), ("bias", self.d_bias)]

    def penalized(self):
        return [self.kernel, self.bias]


def _channel_taps(n_channels: int, kc: int) -> list[tuple[int, slice, slice]]:
    """(dc, output channels, source channels) of each channel tap.

    Output channel c reads source channel c + dc - pad; taps whose
    source falls outside the channel range are dropped (zero padding).
    The centre tap, which reads every channel, comes first.
    """
    pc0 = (kc - 1) // 2
    taps = []
    for dc in sorted(range(kc), key=lambda dc: abs(dc - pc0)):
        shift = dc - pc0
        lo, hi = max(0, -shift), min(n_channels, n_channels - shift)
        if lo < hi:
            taps.append((dc, slice(lo, hi), slice(lo + shift, hi + shift)))
    return taps


def _rfft0(a: np.ndarray, n: int) -> np.ndarray:
    """Spectrum along axis 0, zero-padded to n, as a contiguous
    (n // 2 + 1, *a.shape[1:]) array.

    The transform itself runs over contiguous rows along the last axis,
    which is several times faster than numpy's strided transforms.
    """
    rows = np.ascontiguousarray(np.moveaxis(a, 0, -1))
    return np.ascontiguousarray(np.moveaxis(np.fft.rfft(rows, n=n), -1, 0))


def _irfft0(spec: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _rfft0: the (n, ...) signal, a view with time first."""
    rows = np.ascontiguousarray(np.moveaxis(spec, 0, -1))
    return np.moveaxis(np.fft.irfft(rows, n=n), -1, 0)


def _mix_channels(spec: np.ndarray, kspec: np.ndarray, taps) -> np.ndarray:
    """Sum over taps of spec[:, src] @ kspec[:, dc] into out[:, dst].

    spec is (freq, C, B, f), kspec (freq, kc, f, g); every frequency
    and channel tap is one (rows, f) @ (f, g) complex product.
    """
    F, C, B, f = spec.shape
    (dc, _, _), *rest = taps  # the centre tap reads every channel
    out = (spec.reshape(F, C * B, f) @ kspec[:, dc]).reshape(F, C, B, -1)
    for dc, dst, src in rest:
        rows = spec[:, src].reshape(F, -1, f)
        out[:, dst] += (rows @ kspec[:, dc]).reshape(F, -1, B, out.shape[-1])
    return out


class BatchNorm(Layer):
    """Per-feature batch normalization over the (batch, time, channel) axes.

    Training mode normalizes with biased batch statistics and updates
    exponential running statistics; inference mode is a fixed affine
    map built from the running statistics.
    """

    def __init__(self, n_features: int):
        self.gamma = np.ones(n_features)
        self.beta = np.zeros(n_features)
        self.running_mean = np.zeros(n_features)
        self.running_var = np.ones(n_features)
        self.d_gamma = np.zeros_like(self.gamma)
        self.d_beta = np.zeros_like(self.beta)
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        axes = (0, 1, 2)
        if train:
            if x.shape[0] < 2:
                raise ValueError("batch normalization needs batch size >= 2 in train mode")
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mean
            self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            x_hat = (x - mean) * inv_std
            self._cache = ("train", x_hat, inv_std)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + BN_EPS)
            x_hat = (x - self.running_mean) * inv_std
            self._cache = ("infer", x_hat, inv_std)
        return self.gamma * x_hat + self.beta

    def backward(self, dy: np.ndarray) -> np.ndarray:
        mode, x_hat, inv_std = self._cache
        axes = (0, 1, 2)
        self.d_gamma = (dy * x_hat).sum(axis=axes)
        self.d_beta = dy.sum(axis=axes)
        if mode == "infer":
            return dy * self.gamma * inv_std
        d_xhat = dy * self.gamma
        dx = (
            d_xhat
            - d_xhat.mean(axis=axes)
            - x_hat * (d_xhat * x_hat).mean(axis=axes)
        ) * inv_std
        return dx

    def adjoint(self, m: np.ndarray) -> np.ndarray:
        inv_std = 1.0 / np.sqrt(self.running_var + BN_EPS)
        return m * self.gamma * inv_std

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def grads(self):
        return [("gamma", self.d_gamma), ("beta", self.d_beta)]

    def state(self):
        return self.params() + [
            ("running_mean", self.running_mean),
            ("running_var", self.running_var),
        ]


class ReLU(Layer):
    def __init__(self):
        self._x = None
        self._y = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._x = x
        self._y = np.maximum(x, 0.0)
        return self._y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * (self._x > 0)


class Sigmoid(Layer):
    def __init__(self):
        self._x = None
        self._y = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._x = x
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._y = out
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._y * (1.0 - self._y)


class MaxPoolTime(Layer):
    """Max pooling along the time axis only.

    When the pool length does not divide the time dimension, the tail
    is padded on the right with -inf so no sample is dropped.
    """

    def __init__(self, pool: int):
        self.pool = pool
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        B, T, C, F = x.shape
        t_out = -(-T // self.pool)
        padded = T % self.pool != 0
        if padded:
            buf = np.full((B, t_out * self.pool, C, F), -np.inf)
            buf[:, :T] = x
        else:
            buf = x
        grouped = buf.reshape(B, t_out, self.pool, C, F)
        idx = grouped.argmax(axis=2)
        out = np.take_along_axis(grouped, idx[:, :, None], axis=2)[:, :, 0]
        self._cache = (idx, (B, T, C, F), t_out)
        return out

    @property
    def argmax(self) -> np.ndarray:
        """Winning offset within each pool of the last forward pass,
        shaped (B, T_out, C, F)."""
        return self._cache[0]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        idx, (B, T, C, F), t_out = self._cache
        d_grouped = np.zeros((B, t_out, self.pool, C, F))
        np.put_along_axis(d_grouped, idx[:, :, None], dy[:, :, None], axis=2)
        return d_grouped.reshape(B, t_out * self.pool, C, F)[:, :T]

class Dropout(Layer):
    """Inverted dropout: training output is scaled by 1/(1 - rate)."""

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate {rate} outside [0, 1)")
        self.rate = rate
        self.rng = rng
        self._mask = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        self._mask = self.rng.random(x.shape) >= self.rate
        return x * self._mask / (1.0 - self.rate)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dy
        return dy * self._mask / (1.0 - self.rate)


class Dense(Layer):
    """Fully connected layer; flattens any leading feature-map shape."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.d_in, self.d_out = d_in, d_out
        self.weight = he_uniform(rng, (d_in, d_out), fan_in=d_in)
        self.bias = np.zeros(d_out)
        self.d_weight = np.zeros_like(self.weight)
        self.d_bias = np.zeros_like(self.bias)
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        flat = x.reshape(x.shape[0], -1)
        if flat.shape[1] != self.d_in:
            raise ValueError(
                f"expected {self.d_in} flattened features, got {flat.shape[1]}"
            )
        self._cache = (flat, x.shape)
        return flat @ self.weight + self.bias

    def backward(self, dy: np.ndarray) -> np.ndarray:
        flat, shape = self._cache
        self.d_weight = flat.T @ dy
        self.d_bias = dy.sum(axis=0)
        return (dy @ self.weight.T).reshape(shape)

    def adjoint(self, m: np.ndarray, like_shape: tuple[int, ...]) -> np.ndarray:
        return (m @ self.weight.T).reshape(like_shape)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def grads(self):
        return [("weight", self.d_weight), ("bias", self.d_bias)]

    def penalized(self):
        return [self.weight, self.bias]
