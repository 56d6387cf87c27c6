"""Output checks for the benchmark, written apart from the program.

Every function here recomputes a quantity from its definition with
plain numpy and loops (direct correlation, pair counts, windowed sums)
and compares it with what the program produced.  Nothing in this file
imports seiznet, so a fault in the program cannot hide in the oracle.
A failed comparison raises CheckFailed naming what differed.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import numpy as np

FS = 256
WINDOW = 1280
STRIDE = 640
PART = 15360
LOGODDS_CLAMP = 1e-6
BN_EPS = 1e-5

# Upsampled inputs carry no content above this frequency, so the
# 115.2 Hz anti-alias filter of the 512 Hz ingest path passes it whole.
UPSAMPLE_BAND_HZ = 96.0
# Samples skipped at each end when comparing resampled records: the FIR
# (63 samples at 256 Hz) and the periodic FFT interpolation ring there.
RESAMPLE_EDGE = 256
# Largest |ingested - band-limited original| allowed, relative to the
# signal RMS, away from the edges (Hamming passband ripple is ~2e-3).
RESAMPLE_TOL = 1e-2


class CheckFailed(Exception):
    """A program output disagrees with its independent recomputation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- inputs


def band_limit(x: np.ndarray, max_hz: float, fs: int = FS) -> np.ndarray:
    """Zero every FFT bin above max_hz along axis 0 (brick-wall)."""
    spec = np.fft.rfft(x, axis=0)
    freqs = np.fft.rfftfreq(x.shape[0], d=1.0 / fs)
    spec[freqs > max_hz] = 0.0
    return np.fft.irfft(spec, n=x.shape[0], axis=0)


def upsample_2x(x: np.ndarray, max_hz: float = UPSAMPLE_BAND_HZ) -> np.ndarray:
    """Band-limited 2x upsampling by spectral zero padding.

    Even output samples reproduce band_limit(x, max_hz) exactly up to
    rounding; no content above max_hz is created.
    """
    n = x.shape[0]
    spec = np.fft.rfft(x, axis=0)
    freqs = np.fft.rfftfreq(n, d=1.0 / FS)
    spec[freqs > max_hz] = 0.0
    padded = np.zeros((n + 1,) + x.shape[1:], dtype=complex)
    padded[: spec.shape[0]] = spec
    return 2.0 * np.fft.irfft(padded, n=2 * n, axis=0)


# ---------------------------------------------------------------- records


def check_record_equal(stored: np.ndarray, generated: np.ndarray, what: str) -> None:
    require(stored.dtype == np.float64, f"{what}: stored dtype {stored.dtype}")
    require(stored.shape == generated.shape, f"{what}: shape {stored.shape} != {generated.shape}")
    require(
        np.array_equal(stored, generated),
        f"{what}: {int(np.sum(stored != generated))} samples differ from the generated array",
    )


def check_resampled(
    stored: np.ndarray,
    original: np.ndarray,
    stored_onset: int,
    onset_512: int,
    what: str,
) -> None:
    """A 512 Hz record brought to 256 Hz matches its band-limited source."""
    require(stored.shape == original.shape, f"{what}: shape {stored.shape} != {original.shape}")
    require(
        stored_onset == onset_512 // 2,
        f"{what}: onset {stored_onset}, expected {onset_512} // 2 = {onset_512 // 2}",
    )
    expected = band_limit(original, UPSAMPLE_BAND_HZ)
    e = RESAMPLE_EDGE
    err = np.max(np.abs(stored[e:-e] - expected[e:-e]))
    rms = float(np.sqrt(np.mean(expected[e:-e] ** 2)))
    require(
        err <= RESAMPLE_TOL * rms,
        f"{what}: max error {err:.3g} uV exceeds {RESAMPLE_TOL} x RMS {rms:.3g} uV",
    )


def part_windows(samples: np.ndarray, onset: int) -> list[tuple[str, np.ndarray]]:
    """(part, median-centered window) pairs in time order.

    Parts are the four 60 s ranges tiling [onset - 3 min, onset + 1 min);
    a part starting before sample 0 is absent.  Windows are 5 s long
    with a 2.5 s stride inside each part.
    """
    out = []
    layout = (
        ("extended_interictal", onset - 3 * PART),
        ("interictal", onset - 2 * PART),
        ("preictal", onset - PART),
        ("ictal", onset),
    )
    for name, start in layout:
        if start < 0:
            continue
        t = start
        while t + WINDOW <= start + PART:
            block = samples[t : t + WINDOW]
            out.append((name, block - np.median(block, axis=0)))
            t += STRIDE
    return out


def labeled_windows(samples: np.ndarray, onset: int) -> tuple[np.ndarray, np.ndarray]:
    """Interictal (label 0) and ictal (label 1) windows, time order."""
    pairs = [(n, w) for n, w in part_windows(samples, onset) if n in ("interictal", "ictal")]
    x = np.stack([w for _, w in pairs])
    y = np.array([1.0 if n == "ictal" else 0.0 for n, _ in pairs])
    return x, y


# ---------------------------------------------------------------- metrics


def mann_whitney_auc(labels: np.ndarray, probs: np.ndarray) -> float:
    """Share of (positive, negative) pairs ordered correctly, ties 1/2."""
    pos = probs[labels == 1]
    neg = probs[labels == 0]
    greater = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return float((greater + 0.5 * ties) / (pos.size * neg.size))


def check_auc(reported: float, labels: np.ndarray, probs: np.ndarray, what: str) -> None:
    expected = mann_whitney_auc(labels, probs)
    require(
        abs(reported - expected) <= 1e-9,
        f"{what}: reported AUC {reported!r}, pair count gives {expected!r}",
    )


def check_threshold_counts(reported: dict, labels: np.ndarray, probs: np.ndarray, threshold: float, what: str) -> None:
    pred = probs >= threshold
    expected = {
        "tp": int(np.sum(pred & (labels == 1))),
        "fp": int(np.sum(pred & (labels == 0))),
        "tn": int(np.sum(~pred & (labels == 0))),
        "fn": int(np.sum(~pred & (labels == 1))),
    }
    got = {k: reported[k] for k in expected}
    require(got == expected, f"{what}: counts at {threshold} are {got}, recount gives {expected}")


def check_probabilities(values, what: str) -> None:
    v = np.asarray(values, dtype=np.float64)
    require(v.size > 0, f"{what}: no probabilities")
    require(bool(np.all(np.isfinite(v))), f"{what}: non-finite probability")
    require(bool(np.all((v >= 0.0) & (v <= 1.0))), f"{what}: probability outside [0, 1]")


# ---------------------------------------------------------------- aggregation


def naive_statistic(probs, method: str, w: int) -> list:
    """Per position: the windowed log-odds sum (bayes) or the lagged
    difference (diff); None where the window or lag is incomplete."""
    out = []
    for t in range(len(probs)):
        if method == "bayes":
            if t + 1 < w:
                out.append(None)
                continue
            s = 0.0
            for j in range(t - w + 1, t + 1):
                p = min(max(float(probs[j]), LOGODDS_CLAMP), 1.0 - LOGODDS_CLAMP)
                s += math.log(p / (1.0 - p))
            out.append(s)
        else:
            out.append(None if t < w else float(probs[t]) - float(probs[t - w]))
    return out


def naive_decisions(probs, method: str, w: int, threshold: float) -> list[bool]:
    return [s is not None and s > threshold for s in naive_statistic(probs, method, w)]


def _f1(tp: int, fp: int, n: int) -> Fraction | None:
    # precision tp/(tp+fp), sensitivity tp/n; F1 = 2tp / (2tp + fp + fn)
    if tp + fp == 0 or tp == 0:
        return None
    return Fraction(2 * tp, 2 * tp + fp + (n - tp))


def naive_grid(series, method: str, windows, thresholds) -> dict:
    """F1 per (window, threshold) over (probs, parts) series."""
    usable = [(p, parts) for p, parts in series if "ictal" in parts and "interictal" in parts]
    grid = {}
    for w in windows:
        stats = [(naive_statistic(p, method, w), parts) for p, parts in usable]
        for th in thresholds:
            tp = fp = 0
            for st, parts in stats:
                hit = [s is not None and s > th for s in st]
                tp += any(h for h, part in zip(hit, parts) if part == "ictal")
                fp += any(h for h, part in zip(hit, parts) if part == "interictal")
            grid[(w, th)] = _f1(tp, fp, len(usable))
    return grid


def parse_grid_csv(text: str) -> tuple[list[int], list[float], dict]:
    rows = list(csv.reader(io.StringIO(text)))
    thresholds = [float(t) for t in rows[0][1:]]
    cells = {}
    windows = []
    for row in rows[1:]:
        w = int(row[0])
        windows.append(w)
        for th, cell in zip(thresholds, row[1:]):
            cells[(w, th)] = None if cell == "" else float(cell)
    return windows, thresholds, cells


def check_grid(grid_text: str, params: dict, series, method: str, what: str) -> None:
    """Every grid.csv cell and the chosen cell match a naive recount.

    The argmax rule: highest F1, then the smallest window, then the
    smallest threshold.
    """
    windows, thresholds, cells = parse_grid_csv(grid_text)
    naive = naive_grid(series, method, windows, thresholds)
    for key, cell in cells.items():
        exp = naive[key]
        if exp is None or cell is None:
            require(exp is None and cell is None, f"{what}: cell {key} is {cell}, naive F1 {exp}")
        else:
            require(abs(cell - float(exp)) <= 6e-7, f"{what}: cell {key} is {cell}, naive F1 {float(exp)}")
    defined = [(f, w, th) for (w, th), f in naive.items() if f is not None]
    require(bool(defined), f"{what}: naive grid has no defined cell")
    best_f1 = max(f for f, _, _ in defined)
    best_w, best_th = min((w, th) for f, w, th in defined if f == best_f1)
    key = "window" if method == "bayes" else "lag"
    require(
        (params[key], params["threshold"]) == (best_w, best_th),
        f"{what}: params pick ({params[key]}, {params['threshold']}), naive argmax ({best_w}, {best_th})",
    )
    require(
        abs(params["f1"] - float(best_f1)) <= 1e-12,
        f"{what}: params F1 {params['f1']}, naive best {float(best_f1)}",
    )


def read_timeline(text: str) -> tuple[list[str], list[float], list[int]]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return (
        [r["part"] for r in rows],
        [float(r["probability"]) for r in rows],
        [int(r["decision"]) for r in rows],
    )


def check_outcomes(outcomes_text: str, timelines: dict[str, str], what: str) -> None:
    """outcomes.csv flags and first indices recounted from timelines/."""
    rows = list(csv.DictReader(io.StringIO(outcomes_text)))
    require(len(rows) == len(timelines), f"{what}: {len(rows)} outcomes for {len(timelines)} timelines")
    for row in rows:
        rid = row["record_id"]
        require(rid in timelines, f"{what}: no timeline for {rid}")
        parts, _, dec = read_timeline(timelines[rid])
        first = {}
        for name in ("ictal", "interictal"):
            hits = [i for i, (p, d) in enumerate(zip(parts, dec)) if p == name and d]
            first[name] = str(hits[0]) if hits else ""
        expected = {
            "detected_in_ictal": str(int(first["ictal"] != "")),
            "false_positive_in_interictal": str(int(first["interictal"] != "")),
            "first_ictal_idx": first["ictal"],
            "first_interictal_idx": first["interictal"],
        }
        got = {k: row[k] for k in expected}
        require(got == expected, f"{what}: {rid} outcome {got}, timeline recount {expected}")


def check_timeline_decisions(timeline_text: str, probs: np.ndarray, method: str, w: int, threshold: float, what: str) -> None:
    """Timeline decisions equal a naive rule applied to the given probabilities."""
    _, _, dec = read_timeline(timeline_text)
    expected = [int(d) for d in naive_decisions(probs, method, w, threshold)]
    require(dec == expected, f"{what}: timeline decisions differ from the naive {method} rule")


def check_stream(streamed_probs, reference_probs, streamed_decisions, full_decisions, window: int, threshold: float, what: str) -> None:
    """Online probabilities match the batch series and decisions are causal."""
    a = np.asarray(streamed_probs)
    b = np.asarray(reference_probs)
    require(a.shape == b.shape, f"{what}: streamed {a.shape} vs series {b.shape}")
    require(
        bool(np.allclose(a, b, rtol=1e-9, atol=1e-12)),
        f"{what}: streamed probabilities differ from the series by {np.max(np.abs(a - b)):.3g}",
    )
    naive = naive_decisions(a, "bayes", window, threshold)
    streamed = [bool(d) for d in streamed_decisions]
    require(streamed == naive, f"{what}: streamed decisions differ from the naive windowed sum")
    full = [bool(d) for d in full_decisions]
    require(streamed == full, f"{what}: streamed decisions differ from the full-series decisions")


# ---------------------------------------------------------------- network


def direct_correlation(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, t_lo: int, t_hi: int) -> np.ndarray:
    """Same-padded cross-correlation over (time, channel), outputs t_lo..t_hi.

    out[b, t, c, o] = bias[o] + sum over (dt, dc, i) of
    kernel[dt, dc, i, o] * x[b, t + dt - (kt-1)//2, c + dc - (kc-1)//2, i],
    with x zero outside its range.
    """
    B, T, C, Fi = x.shape
    kt, kc, _, Fo = kernel.shape
    pt, pc = (kt - 1) // 2, (kc - 1) // 2
    out = np.tile(bias, (B, t_hi - t_lo, C, 1)).astype(np.float64)
    for dt in range(kt):
        # output times whose tap dt lands inside [0, T)
        lo = max(t_lo, pt - dt)
        hi = min(t_hi, T + pt - dt)
        if lo >= hi:
            continue
        for dc in range(kc):
            for c in range(C):
                src_c = c + dc - pc
                if 0 <= src_c < C:
                    src = x[:, lo + dt - pt : hi + dt - pt, src_c, :]
                    out[:, lo - t_lo : hi - t_lo, c, :] += src @ kernel[dt, dc]
    return out


def check_conv_forward(layer_out: np.ndarray, x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, spans, what: str) -> None:
    for t_lo, t_hi in spans:
        exp = direct_correlation(x, kernel, bias, t_lo, t_hi)
        got = layer_out[:, t_lo:t_hi]
        err = np.max(np.abs(got - exp))
        scale = max(np.max(np.abs(exp)), 1e-300)
        require(err <= 1e-10 * scale, f"{what}: outputs {t_lo}..{t_hi} differ from direct correlation by {err:.3g} (scale {scale:.3g})")


def check_directional_derivative(f, x0: np.ndarray, direction: np.ndarray, analytic: float, what: str, eps: float = 1e-3) -> None:
    """Central difference of scalar f along direction vs the analytic value."""
    fd = (f(x0 + eps * direction) - f(x0 - eps * direction)) / (2 * eps)
    scale = max(abs(fd), abs(analytic), 1e-300)
    require(abs(fd - analytic) <= 1e-6 * scale, f"{what}: finite difference {fd!r} vs gradient {analytic!r}")


def check_close(a, b, what: str, rtol: float = 1e-9, atol: float = 0.0) -> None:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    require(a.shape == b.shape, f"{what}: shapes {a.shape} and {b.shape}")
    require(bool(np.allclose(a, b, rtol=rtol, atol=atol)), f"{what}: max difference {np.max(np.abs(a - b)):.3g}")


def check_summation(contributions: np.ndarray, delta: float, what: str, tol: float = 1e-6) -> None:
    """Attributions add up to the output delta."""
    total = float(np.sum(contributions))
    require(abs(total - delta) <= tol * max(1.0, abs(delta)), f"{what}: attributions sum to {total!r}, delta is {delta!r}")


def first_block_objective(x: np.ndarray, conv: dict, bn: dict, filter_idx: int) -> float:
    """Mean post-ReLU activation of one first-layer filter (inference BN)."""
    T = x.shape[1]
    h = direct_correlation(x, conv["kernel"], conv["bias"], 0, T)
    h = bn["gamma"] * (h - bn["running_mean"]) / np.sqrt(bn["running_var"] + BN_EPS) + bn["beta"]
    return float(np.maximum(h, 0.0)[0, :, :, filter_idx].mean())


def check_ascent(initial: dict[int, float], final: dict[int, float], what: str, min_share: float = 0.95) -> None:
    raised = [f for f in initial if final[f] > initial[f]]
    share = len(raised) / len(initial)
    require(share >= min_share, f"{what}: objective raised on {len(raised)} of {len(initial)} filters")
