"""SVG and CSV writers for inspection artifacts.

SVGs are assembled by hand so identical inputs produce identical
bytes; no plotting backend is involved.  CSVs hold the unrounded
numbers the figures were drawn from.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from seiznet import CHANNELS
from seiznet.aggregation import PARAMETER_NAMES, GridResult
from seiznet.fsio import atomic_write_text
from seiznet.interpret import AttributionMap, MaximizedInput

SMOOTH_WINDOW = 32
PANEL_WIDTH = 1000
TRACE_HEIGHT = 90
MARGIN = 40
MAX_BAND_OPACITY = 0.85


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def smoothed_intensity(shap: np.ndarray, normalization: float) -> np.ndarray:
    """Positive attributions as display intensities in [0, 1].

    Negative contributions are dropped, values are scaled by the map's
    normalization factor, and a 32-sample moving average knits
    neighboring samples into visible bands.
    """
    pos = np.maximum(shap, 0.0) / normalization
    kernel = np.ones(SMOOTH_WINDOW) / SMOOTH_WINDOW
    out = np.empty_like(pos)
    for c in range(pos.shape[1]):
        out[:, c] = np.convolve(pos[:, c], kernel, mode="same")
    return np.clip(out, 0.0, 1.0)


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [start, stop) index runs where mask is True."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate([[idx[0]], idx[breaks + 1]])
    stops = np.concatenate([idx[breaks] + 1, [idx[-1] + 1]])
    return list(zip(starts.tolist(), stops.tolist()))


def _trace_points(signal: np.ndarray, y0: float, height: float) -> str:
    n = signal.shape[0]
    peak = float(np.max(np.abs(signal)))
    scale = (height * 0.45) / peak if peak > 0 else 0.0
    xs = np.arange(n) * (PANEL_WIDTH / (n - 1))
    ys = y0 + height / 2 - signal * scale
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))


def render_attribution(
    signal: np.ndarray, attribution: AttributionMap, path
) -> None:
    """Channel traces with positive-attribution bands behind them."""
    intensity = smoothed_intensity(attribution.shap, attribution.normalization)
    n, n_ch = signal.shape
    height = n_ch * (TRACE_HEIGHT + 10) + 2 * MARGIN
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {PANEL_WIDTH + 2 * MARGIN} {height}" '
        f'font-family="monospace" font-size="12">',
        f'<text x="{MARGIN}" y="20">prediction {attribution.probability:.6f} '
        f"(reference {attribution.reference_probability:.6f})</text>",
    ]
    for c in range(n_ch):
        y0 = MARGIN + c * (TRACE_HEIGHT + 10)
        lines.append(f'<g id="channel-{c}" transform="translate({MARGIN},0)">')
        for start, stop in _runs(intensity[:, c] > 1e-9):
            opacity = MAX_BAND_OPACITY * float(intensity[start:stop, c].max())
            x = start * PANEL_WIDTH / (n - 1)
            w = max((stop - start) * PANEL_WIDTH / (n - 1), 1.0)
            lines.append(
                f'<rect class="band" x="{_fmt(x)}" y="{_fmt(y0)}" '
                f'width="{_fmt(w)}" height="{_fmt(TRACE_HEIGHT)}" '
                f'fill="#d62728" fill-opacity="{opacity:.4f}"/>'
            )
        lines.append(
            f'<polyline fill="none" stroke="#1a1a1a" stroke-width="0.8" '
            f'points="{_trace_points(signal[:, c], y0, TRACE_HEIGHT)}"/>'
        )
        label = CHANNELS[c] if c < len(CHANNELS) else f"ch{c}"
        lines.append(f'<text x="4" y="{_fmt(y0 + 14)}">{label}</text>')
        lines.append("</g>")
    lines.append("</svg>")
    atomic_write_text(path, "\n".join(lines) + "\n")


def attribution_csv(attribution: AttributionMap, path) -> None:
    """Unsmoothed attribution matrix, one column per channel."""
    buf = io.StringIO()
    buf.write(",".join(CHANNELS) + "\n")
    for row in attribution.shap:
        buf.write(",".join(f"{v:.9e}" for v in row) + "\n")
    atomic_write_text(path, buf.getvalue())


def render_maximized(
    results: list[MaximizedInput],
    freqs_per_channel: list[list[list[int]]],
    path,
) -> None:
    """One panel per maximized filter: traces plus a caption line."""
    panel_h = len(CHANNELS) * 34 + 40
    height = len(results) * panel_h + 2 * MARGIN
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {PANEL_WIDTH + 2 * MARGIN} {height}" '
        f'font-family="monospace" font-size="12">'
    ]
    for i, (res, freqs) in enumerate(zip(results, freqs_per_channel)):
        y_top = MARGIN + i * panel_h
        dead = " dead" if res.dead_filter else ""
        caption = (
            f"filter {res.filter_idx}  objective {res.objective:.6f}  "
            f"prediction {res.probability:.6f}{dead}  "
            f"freqs {['/'.join(map(str, f)) or '-' for f in freqs]}"
        )
        lines.append(
            f'<g class="panel" transform="translate({MARGIN},{y_top})">'
        )
        lines.append(f'<text x="0" y="12">{caption}</text>')
        for c in range(res.signal.shape[1]):
            y0 = 20 + c * 34
            lines.append(
                f'<polyline fill="none" stroke="#1a1a1a" stroke-width="0.6" '
                f'points="{_trace_points(res.signal[:, c], y0, 30)}"/>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    atomic_write_text(path, "\n".join(lines) + "\n")


def maximized_report_csv(
    results: list[MaximizedInput],
    freqs_per_channel: list[list[list[int]]],
    path,
) -> None:
    """Tabular report: one row per filter, frequency lists per channel."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["filter_idx", "objective", "prediction", "dead_filter"] + [
        f"freqs_{ch}" for ch in CHANNELS
    ]
    writer.writerow(header)
    for res, freqs in zip(results, freqs_per_channel):
        writer.writerow(
            [
                res.filter_idx,
                f"{res.objective:.6f}",
                f"{res.probability:.6f}",
                int(res.dead_filter),
            ]
            + [str(f) for f in freqs]
        )
    atomic_write_text(path, buf.getvalue())


def grid_csv(grid: GridResult, path) -> None:
    """Full F1 matrix; rows are window/lag values, columns thresholds."""
    buf = io.StringIO()
    header = [PARAMETER_NAMES[grid.method]] + [f"{t:g}" for t in grid.thresholds]
    buf.write(",".join(header) + "\n")
    for w, row in zip(grid.windows, grid.f1_matrix):
        cells = ["" if np.isnan(v) else f"{v:.6f}" for v in row]
        buf.write(f"{w}," + ",".join(cells) + "\n")
    atomic_write_text(path, buf.getvalue())


def timeline_csv(series, decisions: np.ndarray, path) -> None:
    """Per-window record timeline: part tag, probability, decision."""
    buf = io.StringIO()
    buf.write("window_idx,part,probability,decision\n")
    for i, (part, prob, dec) in enumerate(
        zip(series.parts, series.probs, decisions)
    ):
        buf.write(f"{i},{part},{prob:.9e},{int(bool(dec))}\n")
    atomic_write_text(path, buf.getvalue())


def histogram_csv(counts: np.ndarray, edges: np.ndarray, path) -> None:
    buf = io.StringIO()
    buf.write("bin_left,bin_right,count\n")
    for i, c in enumerate(counts):
        buf.write(f"{edges[i]:.6f},{edges[i + 1]:.6f},{int(c)}\n")
    atomic_write_text(path, buf.getvalue())


def spectra_csv(spectra: dict, path) -> None:
    """Long-format PSD table keyed by (filter, channel)."""
    buf = io.StringIO()
    buf.write("filter_idx,channel,freq_hz,power\n")
    for (filter_idx, channel), spectrum in spectra.items():
        for f, p in zip(spectrum.freqs, spectrum.power):
            buf.write(f"{filter_idx},{channel},{f:g},{p:.9e}\n")
    atomic_write_text(path, buf.getvalue())
