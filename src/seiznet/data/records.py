"""EEG record ingestion, resampling, part layout, and windowing.

A record is a continuous multichannel signal around a single seizure
onset.  The minute starting at the onset is the ictal part; the three
minutes before it are, walking backwards in time, the preictal part,
the interictal part, and the extended interictal part.  Training and
seizure scoring use only the ictal and interictal parts; the other two
exist so that decision aggregation sees an uninterrupted probability
series across the onset.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import firwin

from seiznet import CHANNELS, PART_SAMPLES, TARGET_FS, WINDOW_SAMPLES, WINDOW_STRIDE
from seiznet.errors import DataError

log = logging.getLogger(__name__)

ACCEPTED_FS = (256, 512, 1024)

# Time-ordered part tags.  The extended interictal part sits furthest
# from the onset and only feeds prediction, never scoring.
PART_ORDER = ("extended_interictal", "interictal", "preictal", "ictal")
SCORED_PARTS = ("interictal", "ictal")

ANTIALIAS_TAPS = 127
ANTIALIAS_CUTOFF_HZ = 115.2


@dataclass
class EegRecord:
    """A continuous 4-channel signal with one annotated seizure onset."""

    record_id: str
    patient_id: str
    samples: np.ndarray  # (n, 4) float64, microvolts
    fs: int
    onset_sample: int
    channels: tuple[str, ...] = CHANNELS

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class PartRange:
    """Half-open sample range [start, stop) of one part at 256 Hz."""

    name: str
    start: int
    stop: int
    available: bool


@dataclass(frozen=True)
class RecordParts:
    """The four-part layout of a record around its onset."""

    record_id: str
    parts: tuple[PartRange, ...]

    def get(self, name: str) -> PartRange:
        for part in self.parts:
            if part.name == name:
                return part
        raise KeyError(name)

    def available(self) -> tuple[PartRange, ...]:
        return tuple(p for p in self.parts if p.available)


@dataclass
class Segment:
    """One median-centered 5 s window cut from a record part.

    label is 1 for ictal windows, 0 for interictal windows, and None
    for windows from parts that never enter training or scoring.
    """

    data: np.ndarray  # (1280, 4) float64
    label: int | None
    record_id: str
    part: str
    start_sample: int
    channels: tuple[str, ...] = field(default=CHANNELS, repr=False)


def _locate_bad_cell(path) -> str:
    """Rescan a CSV that numpy rejected and name the offending cell."""
    with open(path, newline="") as fh:
        for row_idx, row in enumerate(csv.reader(fh)):
            for col_idx, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    return (
                        f"non-numeric value {cell!r} at row {row_idx},"
                        f" column {col_idx}"
                    )
    return "unparseable content"


def load_record(
    path,
    fs: int,
    onset_sample: int,
    patient_id: str,
    record_id: str | None = None,
) -> EegRecord:
    """Read a headerless 4-column CSV of channel samples in microvolts.

    Columns follow the fixed montage order F7-T7, F8-T8, T7-P7, T8-P8.
    fs must be one of 256, 512, or 1024 Hz, the onset must lie inside
    the record, and every sample must be finite.
    """
    if fs not in ACCEPTED_FS:
        raise DataError(f"sampling rate {fs} Hz not in {ACCEPTED_FS}")
    try:
        samples = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError:
        raise DataError(f"{path}: {_locate_bad_cell(path)}") from None
    if samples.ndim != 2 or samples.shape[1] != len(CHANNELS):
        raise DataError(
            f"{path}: expected {len(CHANNELS)} columns,"
            f" found {samples.shape[1] if samples.ndim == 2 else 1}"
        )
    # np.loadtxt parses "nan" and "inf" like any other number
    bad = np.argwhere(~np.isfinite(samples))
    if bad.size:
        row, col = bad[0]
        raise DataError(
            f"{path}: non-finite value {samples[row, col]} at row {row},"
            f" column {col}"
        )
    if not (0 <= onset_sample < samples.shape[0]):
        raise DataError(
            f"{path}: onset sample {onset_sample} outside record"
            f" of {samples.shape[0]} samples"
        )
    rid = record_id if record_id is not None else _stem(path)
    return EegRecord(
        record_id=rid,
        patient_id=patient_id,
        samples=samples,
        fs=fs,
        onset_sample=onset_sample,
    )


def _stem(path) -> str:
    name = str(path).rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0] if "." in name else name


def resample_to_256(record: EegRecord) -> EegRecord:
    """Bring a record to the 256 Hz analysis rate.

    256 Hz input passes through bit for bit.  512 and 1024 Hz inputs
    are low-pass filtered with a 127-tap Hamming-window FIR (cutoff
    115.2 Hz, below the output Nyquist) and then decimated.  The FIR
    group delay is compensated so events keep their sample positions,
    and the onset index is floor-divided by the decimation factor.
    """
    if record.fs == TARGET_FS:
        return record
    factor = record.fs // TARGET_FS
    taps = firwin(ANTIALIAS_TAPS, ANTIALIAS_CUTOFF_HZ, fs=record.fs)
    delay = (ANTIALIAS_TAPS - 1) // 2
    n = record.n_samples
    filtered = np.empty_like(record.samples)
    for ch in range(record.samples.shape[1]):
        full = np.convolve(record.samples[:, ch], taps)
        filtered[:, ch] = full[delay : delay + n]
    decimated = np.ascontiguousarray(filtered[::factor])
    return EegRecord(
        record_id=record.record_id,
        patient_id=record.patient_id,
        samples=decimated,
        fs=TARGET_FS,
        onset_sample=record.onset_sample // factor,
        channels=record.channels,
    )


def partition(record: EegRecord) -> RecordParts:
    """Lay out the four 60 s parts around the onset.

    Parts are contiguous half-open ranges of 15360 samples each,
    tiling [onset - 3 min, onset + 1 min).  A part whose start falls
    before the first sample of the record is flagged unavailable.
    """
    if record.fs != TARGET_FS:
        raise DataError(
            f"{record.record_id}: partition requires {TARGET_FS} Hz,"
            f" got {record.fs}"
        )
    onset = record.onset_sample
    if onset + PART_SAMPLES > record.n_samples:
        raise DataError(
            f"{record.record_id}: record ends {record.n_samples - onset}"
            f" samples after onset, need {PART_SAMPLES}"
        )
    offsets = {
        "ictal": 0,
        "preictal": -PART_SAMPLES,
        "interictal": -2 * PART_SAMPLES,
        "extended_interictal": -3 * PART_SAMPLES,
    }
    parts = []
    for name in PART_ORDER:
        start = onset + offsets[name]
        stop = start + PART_SAMPLES
        parts.append(PartRange(name, start, stop, available=start >= 0))
    return RecordParts(record_id=record.record_id, parts=tuple(parts))


def _part_label(part_name: str) -> int | None:
    if part_name == "ictal":
        return 1
    if part_name == "interictal":
        return 0
    return None


def windows(record: EegRecord, part: PartRange) -> list[Segment]:
    """Cut 5 s windows at 50% overlap from one available part.

    Each window is centered by subtracting the per-channel median.
    A full 60 s part yields 23 windows.
    """
    if not part.available:
        raise DataError(
            f"{record.record_id}: part {part.name!r} is not available"
        )
    label = _part_label(part.name)
    out: list[Segment] = []
    for start in range(part.start, part.stop - WINDOW_SAMPLES + 1, WINDOW_STRIDE):
        block = record.samples[start : start + WINDOW_SAMPLES]
        centered = block - np.median(block, axis=0)
        out.append(
            Segment(
                data=centered,
                label=label,
                record_id=record.record_id,
                part=part.name,
                start_sample=start,
            )
        )
    return out


def record_segments(
    record: EegRecord, labeled_only: bool = False
) -> list[Segment]:
    """All windows of a record's available parts in time order."""
    parts = partition(record)
    out: list[Segment] = []
    for part in parts.available():
        if labeled_only and _part_label(part.name) is None:
            continue
        out.extend(windows(record, part))
    return out
