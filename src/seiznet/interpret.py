"""What the network looks for: filter maximization, spectra, attributions.

Three complementary views.  Gradient ascent grows an input that
excites one filter, Welch spectra name the frequencies that input
contains, and a DeepLIFT-style multiplier pass splits a single
prediction into per-sample contributions against an all-zero
reference.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.signal import welch

from seiznet import TARGET_FS
from seiznet.model import TrainedModel
from seiznet.nn.layers import BatchNorm, Conv, Dense, Dropout, MaxPoolTime, ReLU, Sigmoid

log = logging.getLogger(__name__)

GRAD_RMS_GUARD = 1e-12
DEAD_FILTER_STEPS = 5
RESCALE_DELTA_FLOOR = 1e-7


@dataclass
class Spectrum:
    """One-sided Welch power spectral density of a single channel."""

    freqs: np.ndarray
    power: np.ndarray


@dataclass
class MaximizedInput:
    """Result of gradient ascent on one filter's mean activation."""

    filter_idx: int
    target: str  # "first" or "last_block"
    init_amp: float
    signal: np.ndarray  # (T, C) microvolts
    objective_init: float
    objective: float
    probability: float
    dead_filter: bool
    steps_run: int


@dataclass
class AttributionMap:
    """Per-sample contributions to one predicted probability."""

    shap: np.ndarray  # (T, C)
    probability: float
    reference_probability: float

    @property
    def normalization(self) -> float:
        """Scale used for display; zero map stays zero."""
        peak = float(np.max(np.abs(self.shap)))
        return peak if peak > 0 else 1.0

    @property
    def summation_gap(self) -> float:
        """|sum(shap) - (p - p_ref)|, relative to the output delta."""
        delta = self.probability - self.reference_probability
        gap = abs(float(np.sum(self.shap)) - delta)
        return gap / max(abs(delta), 1e-12)


def welch_psd(signal: np.ndarray, fs: int = TARGET_FS) -> Spectrum:
    """PSD from 256-sample Hann segments at 50% overlap (1 Hz bins)."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError("welch_psd takes a single channel")
    nperseg = min(256, signal.size)
    freqs, power = welch(
        signal, fs=fs, window="hann", nperseg=nperseg, noverlap=nperseg // 2
    )
    return Spectrum(freqs=freqs, power=power)


def main_frequencies(spectrum: Spectrum, rel_threshold: float = 0.25) -> list[int]:
    """Dominant frequencies: local PSD maxima within reach of the peak.

    Local maxima at least rel_threshold of the global maximum are
    kept, ordered by descending power, rounded to whole hertz.
    """
    p = spectrum.power
    if p.size < 3 or np.max(p) <= 0:
        return []
    floor = rel_threshold * np.max(p)
    peaks = []
    for i in range(1, p.size - 1):
        if p[i] > p[i - 1] and p[i] >= p[i + 1] and p[i] >= floor:
            peaks.append(i)
    peaks.sort(key=lambda i: -p[i])
    out: list[int] = []
    for i in peaks:
        hz = int(round(spectrum.freqs[i]))
        if hz not in out:
            out.append(hz)
    return out


def _ascend_prefix(model: TrainedModel, x: np.ndarray, layer_idx: int, filter_idx: int):
    """Objective (mean post-activation of one filter) and input gradient."""
    h = x
    prefix = model.layers[: layer_idx + 1]
    for layer in prefix:
        h = layer.forward(h, train=False)
    fmap = h[0, :, :, filter_idx]
    objective = float(fmap.mean())
    d = np.zeros_like(h)
    d[0, :, :, filter_idx] = 1.0 / fmap.size
    for layer in reversed(prefix):
        d = layer.backward(d)
    return objective, d


def maximize_input(
    model: TrainedModel,
    target: str,
    filter_idx: int,
    init_amp: float,
    seed: int,
    steps: int = 80,
    step_size: float = 0.5,
    normalize: str = "gradient",
) -> MaximizedInput:
    """Gradient ascent on one filter's mean activation.

    The input starts as uniform noise in [-init_amp, init_amp]
    microvolts.  With normalize="gradient" (the default) each step
    adds step_size times the RMS-normalized gradient; with
    normalize="input" the raw gradient is added and the input is
    rescaled back to its initial RMS.  A filter whose gradient stays
    zero for 5 consecutive steps is reported dead.
    """
    if normalize not in ("gradient", "input"):
        raise ValueError(f"unknown normalize mode {normalize!r}")
    layer_idx = model.target_relu_index(target)
    n_filters = _target_filter_count(model, layer_idx)
    if not 0 <= filter_idx < n_filters:
        raise ValueError(
            f"filter {filter_idx} out of range for {target} ({n_filters} filters)"
        )
    cfg = model.config
    rng = np.random.default_rng(seed)
    x = init_amp * rng.uniform(-1.0, 1.0, (1, cfg.input_samples, cfg.n_channels, 1))
    init_rms = float(np.sqrt(np.mean(x**2)))

    objective_init, _ = _ascend_prefix(model, x, layer_idx, filter_idx)
    zero_run = 0
    dead = False
    steps_run = 0
    for _ in range(steps):
        _, grad = _ascend_prefix(model, x, layer_idx, filter_idx)
        rms = float(np.sqrt(np.mean(grad**2)))
        if rms < GRAD_RMS_GUARD:
            zero_run += 1
            if zero_run >= DEAD_FILTER_STEPS:
                dead = True
                break
            steps_run += 1
            continue
        zero_run = 0
        if normalize == "gradient":
            x = x + step_size * grad / rms
        else:
            x = x + step_size * grad
            x_rms = float(np.sqrt(np.mean(x**2)))
            if x_rms > GRAD_RMS_GUARD and init_rms > 0:
                x = x * (init_rms / x_rms)
        steps_run += 1

    objective, _ = _ascend_prefix(model, x, layer_idx, filter_idx)
    probability = float(model.forward(x, train=False)[0, 0])
    return MaximizedInput(
        filter_idx=filter_idx,
        target=target,
        init_amp=init_amp,
        signal=x[0, :, :, 0].copy(),
        objective_init=objective_init,
        objective=objective,
        probability=probability,
        dead_filter=dead,
        steps_run=steps_run,
    )


def _target_filter_count(model: TrainedModel, relu_idx: int) -> int:
    for layer in reversed(model.layers[:relu_idx]):
        if isinstance(layer, (Conv, BatchNorm)):
            if isinstance(layer, Conv):
                return layer.f_out
            return layer.gamma.size
    raise ValueError("no feature layer ahead of the chosen activation")


def rank_filters(
    model: TrainedModel,
    target: str,
    init_amp: float,
    seed: int,
    steps: int = 80,
    step_size: float = 0.5,
) -> list[MaximizedInput]:
    """Maximize every filter of a layer, strongest objective first.

    Ties fall back to the lower filter index.  Each filter gets its
    own child seed so results do not depend on the visiting order.
    """
    layer_idx = model.target_relu_index(target)
    results = []
    for f in range(_target_filter_count(model, layer_idx)):
        results.append(
            maximize_input(
                model,
                target,
                f,
                init_amp,
                seed=seed + f,
                steps=steps,
                step_size=step_size,
            )
        )
    return sorted(results, key=lambda r: (-r.objective, r.filter_idx))


def _pool_multipliers(
    layer: MaxPoolTime, x_in: np.ndarray, y_out: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """Route pool multipliers so each pooled unit conserves its delta.

    Each unit's contribution lands on the max-position of the actual
    input, scaled by (delta out / delta in there) so the unit passes
    its full output delta downstream.  When the input delta at that
    position vanishes no scale can carry the delta, so the unit
    reroutes to the in-group position with the largest input delta.
    If every in-group delta is below the floor, the output delta is
    too (max is 1-Lipschitz in the sup norm) and plain gradient
    routing leaks less than the floor.
    """
    B, T, C, F = x_in.shape
    t_out = y_out.shape[1]
    if t_out * layer.pool == T:
        grouped = x_in.reshape(B, t_out, layer.pool, C, F)
        pad_mask = None
    else:
        buf = np.zeros((B, t_out * layer.pool, C, F))
        buf[:, :T] = x_in
        grouped = buf.reshape(B, t_out, layer.pool, C, F)
        pad_mask = np.zeros((1, t_out, layer.pool, 1, 1), dtype=bool)
        pad_mask.reshape(t_out * layer.pool)[T:] = True
    d_in = grouped[0:1] - grouped[1:2]
    d_abs = np.abs(d_in)
    if pad_mask is not None:
        d_abs = np.where(pad_mask, -1.0, d_abs)
    primary = layer.argmax[0:1, :, None]
    d_primary = np.take_along_axis(d_in, primary, axis=2)
    alt = d_abs.argmax(axis=2)[:, :, None]
    d_alt = np.take_along_axis(d_in, alt, axis=2)
    reroute = (np.abs(d_primary) < RESCALE_DELTA_FLOOR) & (
        np.abs(d_alt) >= RESCALE_DELTA_FLOOR
    )
    pos = np.where(reroute, alt, primary)
    d_sel = np.where(reroute, d_alt, d_primary)
    d_out = (y_out[0:1] - y_out[1:2])[:, :, None]
    small = np.abs(d_sel) < RESCALE_DELTA_FLOOR
    scaled = m[:, :, None] * np.where(
        small, 1.0, d_out / np.where(small, 1.0, d_sel)
    )
    routed = np.zeros((1, t_out, layer.pool, C, F))
    np.put_along_axis(routed, pos, scaled, axis=2)
    return routed.reshape(1, t_out * layer.pool, C, F)[:, :T]


def propagate_multipliers(
    layers: list, x: np.ndarray, baseline: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """Multiplier pass over a layer list against a reference input.

    Runs one inference forward on the stacked pair (input, reference),
    recording every layer's input and output, then walks the layers
    backwards propagating multipliers of the scalar output.  Linear
    layers use their exact adjoint; ReLU and sigmoid use the finite
    difference of the recorded activations (falling back to the local
    gradient when the input delta vanishes); max pooling routes to the
    argmax of the actual input, rescaled so each pooled unit conserves
    its output delta.  Returns the input multipliers (batch row 0) and
    the two scalar outputs.
    """
    pair = np.concatenate([x, baseline], axis=0)
    h = pair
    acts = []  # (input, output) per layer
    for layer in layers:
        x_in = h
        h = layer.forward(h, train=False)
        acts.append((x_in, h))
    if h.shape != (2, 1):
        raise ValueError("multiplier pass expects a single scalar output")
    out, ref_out = float(h[0, 0]), float(h[1, 0])

    m = np.ones((1, 1))
    for layer, (x_in, y_out) in zip(reversed(layers), reversed(acts)):
        if isinstance(layer, (ReLU, Sigmoid)):
            d_in = x_in[0:1] - x_in[1:2]
            d_out = y_out[0:1] - y_out[1:2]
            if isinstance(layer, ReLU):
                local = (x_in[0:1] > 0).astype(np.float64)
            else:
                local = y_out[0:1] * (1.0 - y_out[0:1])
            small = np.abs(d_in) < RESCALE_DELTA_FLOOR
            m = m * np.where(small, local, d_out / np.where(small, 1.0, d_in))
        elif isinstance(layer, MaxPoolTime):
            m = _pool_multipliers(layer, x_in, y_out, m)
        elif isinstance(layer, Dense):
            m = layer.adjoint(m, (1,) + x_in.shape[1:])
        elif isinstance(layer, (Conv, BatchNorm)):
            m = layer.adjoint(m)
        elif isinstance(layer, Dropout):
            pass  # identity in inference mode
        else:
            raise ValueError(f"no multiplier rule for {type(layer).__name__}")
    return m, out, ref_out


def deeplift(
    model: TrainedModel, signal: np.ndarray, baseline: np.ndarray | None = None
) -> AttributionMap:
    """Attribute one window's probability to its input samples.

    The reference is an all-zero signal unless another baseline of the
    same shape is given.  The contributions satisfy summation to
    delta: they add up to the probability difference between the
    input and the reference.
    """
    x = np.asarray(signal, dtype=np.float64)[None, :, :, None]
    if baseline is None:
        ref = np.zeros_like(x)
    else:
        ref = np.asarray(baseline, dtype=np.float64)[None, :, :, None]
        if ref.shape != x.shape:
            raise ValueError("baseline shape differs from signal shape")
    m, out, ref_out = propagate_multipliers(model.layers, x, ref)
    shap = (m * (x - ref))[0, :, :, 0]
    return AttributionMap(
        shap=shap, probability=out, reference_probability=ref_out
    )