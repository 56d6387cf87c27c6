import numpy as np
import pytest

from seiznet import CHANNELS, PART_SAMPLES, TARGET_FS, WINDOW_SAMPLES
from seiznet.data.records import (
    EegRecord,
    load_record,
    partition,
    record_segments,
    resample_to_256,
    windows,
)
from seiznet.errors import DataError


def make_record(n=4 * PART_SAMPLES, onset=3 * PART_SAMPLES, seed=0, fs=256):
    rng = np.random.default_rng(seed)
    return EegRecord(
        record_id="r", patient_id="p",
        samples=rng.normal(0, 30, (n, 4)), fs=fs, onset_sample=onset,
    )


class TestLoadRecord:
    def test_reads_four_column_csv(self, tmp_path):
        data = np.arange(40, dtype=float).reshape(10, 4)
        path = tmp_path / "rec.csv"
        np.savetxt(path, data, delimiter=",")
        rec = load_record(path, fs=256, onset_sample=4, patient_id="p1")
        assert rec.record_id == "rec"
        assert rec.samples.shape == (10, 4)
        np.testing.assert_array_equal(rec.samples, data)

    def test_rejects_unknown_rate(self, tmp_path):
        path = tmp_path / "x.csv"
        np.savetxt(path, np.zeros((5, 4)), delimiter=",")
        with pytest.raises(DataError, match="sampling rate"):
            load_record(path, fs=500, onset_sample=1, patient_id="p")

    def test_rejects_wrong_column_count(self, tmp_path):
        path = tmp_path / "x.csv"
        np.savetxt(path, np.zeros((5, 3)), delimiter=",")
        with pytest.raises(DataError, match="expected 4 columns"):
            load_record(path, fs=256, onset_sample=1, patient_id="p")

    def test_names_the_bad_cell(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2,3,4\n1,oops,3,4\n")
        with pytest.raises(DataError, match="'oops' at row 1, column 1"):
            load_record(path, fs=256, onset_sample=0, patient_id="p")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_samples(self, tmp_path, cell):
        path = tmp_path / "x.csv"
        path.write_text(f"1,2,3,4\n1,2,{cell},4\n1,2,3,4\n")
        with pytest.raises(DataError, match=r"x\.csv: non-finite .* at row 1, column 2"):
            load_record(path, fs=256, onset_sample=0, patient_id="p")

    def test_onset_must_be_inside(self, tmp_path):
        path = tmp_path / "x.csv"
        np.savetxt(path, np.zeros((5, 4)), delimiter=",")
        with pytest.raises(DataError, match="onset sample 5 outside"):
            load_record(path, fs=256, onset_sample=5, patient_id="p")


class TestResample:
    def test_256_passes_through(self):
        rec = make_record(n=1000, onset=10)
        assert resample_to_256(rec) is rec

    def test_halves_length_and_onset(self):
        rec = make_record(n=2000, onset=999, fs=512)
        out = resample_to_256(rec)
        assert out.fs == TARGET_FS
        assert out.n_samples == 1000
        assert out.onset_sample == 499

    def test_preserves_low_frequency_content(self):
        # A 5 Hz tone sampled at 512 Hz must come back as the same tone
        # at 256 Hz, apart from mild filter ripple at the edges.
        t = np.arange(4096) / 512.0
        tone = np.sin(2 * np.pi * 5 * t)
        rec = EegRecord(
            record_id="r", patient_id="p",
            samples=np.tile(tone[:, None], (1, 4)), fs=512, onset_sample=100,
        )
        out = resample_to_256(rec)
        expect = np.sin(2 * np.pi * 5 * np.arange(2048) / 256.0)
        core = slice(128, -128)
        assert np.max(np.abs(out.samples[core, 0] - expect[core])) < 1e-3

    def test_suppresses_beyond_nyquist(self):
        t = np.arange(8192) / 1024.0
        hi = np.sin(2 * np.pi * 300 * t)  # above the 128 Hz output Nyquist
        rec = EegRecord(
            record_id="r", patient_id="p",
            samples=np.tile(hi[:, None], (1, 4)), fs=1024, onset_sample=0,
        )
        out = resample_to_256(rec)
        assert np.sqrt(np.mean(out.samples[:, 0] ** 2)) < 0.02


class TestPartition:
    def test_tiles_three_minutes_before_to_one_after(self):
        rec = make_record()
        parts = partition(rec)
        onset = rec.onset_sample
        spans = [(p.name, p.start, p.stop) for p in parts.parts]
        assert spans == [
            ("extended_interictal", onset - 3 * PART_SAMPLES, onset - 2 * PART_SAMPLES),
            ("interictal", onset - 2 * PART_SAMPLES, onset - PART_SAMPLES),
            ("preictal", onset - PART_SAMPLES, onset),
            ("ictal", onset, onset + PART_SAMPLES),
        ]
        # contiguity: each part starts where the previous one stopped
        for a, b in zip(parts.parts, parts.parts[1:]):
            assert a.stop == b.start

    def test_part_before_record_start_is_unavailable(self):
        rec = make_record(n=3 * PART_SAMPLES + 100, onset=2 * PART_SAMPLES)
        parts = partition(rec)
        assert not parts.get("extended_interictal").available
        assert parts.get("interictal").available
        assert parts.get("preictal").available
        assert parts.get("ictal").available

    def test_exact_onset_keeps_all_parts(self):
        rec = make_record(n=4 * PART_SAMPLES, onset=3 * PART_SAMPLES)
        assert len(partition(rec).available()) == 4

    def test_requires_full_ictal_minute(self):
        rec = make_record(n=3 * PART_SAMPLES + 10, onset=2 * PART_SAMPLES + 11)
        with pytest.raises(DataError, match="samples after onset"):
            partition(rec)

    def test_requires_analysis_rate(self):
        rec = make_record(fs=512)
        with pytest.raises(DataError, match="requires 256 Hz"):
            partition(rec)


class TestWindows:
    def test_full_part_yields_23_windows(self):
        rec = make_record()
        part = partition(rec).get("ictal")
        segs = windows(rec, part)
        assert len(segs) == 23
        starts = [s.start_sample for s in segs]
        assert starts[0] == part.start
        assert all(b - a == 640 for a, b in zip(starts, starts[1:]))
        assert starts[-1] + WINDOW_SAMPLES == part.stop

    def test_windows_are_median_centered(self):
        rec = make_record(seed=3)
        for part in partition(rec).available():
            for seg in windows(rec, part):
                med = np.median(seg.data, axis=0)
                assert np.all(np.abs(med) < 1e-9)

    def test_labels_follow_part(self):
        rec = make_record()
        parts = partition(rec)
        assert all(s.label == 1 for s in windows(rec, parts.get("ictal")))
        assert all(s.label == 0 for s in windows(rec, parts.get("interictal")))
        assert all(s.label is None for s in windows(rec, parts.get("preictal")))
        assert all(
            s.label is None
            for s in windows(rec, parts.get("extended_interictal"))
        )

    def test_unavailable_part_raises(self):
        rec = make_record(n=3 * PART_SAMPLES + 100, onset=2 * PART_SAMPLES)
        bad = partition(rec).get("extended_interictal")
        with pytest.raises(DataError, match="not available"):
            windows(rec, bad)

    def test_centering_does_not_mutate_record(self):
        rec = make_record(seed=5)
        before = rec.samples.copy()
        record_segments(rec)
        np.testing.assert_array_equal(rec.samples, before)


def test_record_segments_time_order_and_label_filter():
    rec = make_record()
    segs = record_segments(rec)
    assert len(segs) == 4 * 23
    starts = [s.start_sample for s in segs]
    assert starts == sorted(starts)
    labeled = record_segments(rec, labeled_only=True)
    assert len(labeled) == 2 * 23
    assert {s.part for s in labeled} == {"interictal", "ictal"}
    assert [s.label for s in labeled] == [0] * 23 + [1] * 23


def test_channel_names_ride_along():
    rec = make_record()
    seg = record_segments(rec)[0]
    assert seg.channels == CHANNELS
