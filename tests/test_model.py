import warnings
import zlib
from collections import Counter

import numpy as np
import pytest

from seiznet.data.records import EegRecord
from seiznet.data.synth import SynthParams, generate_record
from seiznet.errors import DataError, ModelIOError, TrainingDivergedError
from seiznet.model import (
    FULL_TIME_KERNELS,
    WEIGHTS_MAGIC,
    ModelConfig,
    TrainedModel,
    _batch_slices,
    build,
    fit,
    load_model,
    predict_series,
    sample_validation_split,
    save_model,
    segments_to_arrays,
)
from seiznet.nn.layers import (
    BatchNorm,
    Conv,
    Dense,
    Dropout,
    MaxPoolTime,
    ReLU,
    Sigmoid,
)

from conftest import labeled_segments

TINY = ModelConfig.desk(
    time_kernel=9, filters=(2, 2, 2), fc_hidden=4, seed=0
)


class TestConfig:
    def test_block_kernels_and_resolution(self):
        cfg = ModelConfig.full(time_kernel=131)
        assert cfg.block_time_kernels == (131, 31, 3)
        assert abs(cfg.lowest_resolvable_hz - 256 / 131) < 1e-12
        assert ModelConfig.full(time_kernel=5).block_time_kernels == (5, 31, 3)

    def test_full_profile_kernels(self):
        assert FULL_TIME_KERNELS == (5, 91, 131)
        for k in FULL_TIME_KERNELS:
            cfg = ModelConfig.full(time_kernel=k)
            assert cfg.filters == (32, 64, 64)
            assert cfg.patience == 15

    def test_desk_profile(self):
        cfg = ModelConfig.desk()
        assert cfg.time_kernel == 31
        assert cfg.filters == (4, 8, 8)
        assert cfg.max_epochs == 20

    def test_dict_round_trip(self):
        cfg = ModelConfig.desk(seed=5)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_even_kernel_warns(self):
        with pytest.warns(UserWarning, match="even"):
            build(ModelConfig.desk(time_kernel=10, filters=(1, 1, 1)))


class TestBuild:
    def test_layer_census(self):
        model = build(TINY)
        counts = Counter(type(layer).__name__ for layer in model.layers)
        assert counts == {
            "Conv": 6,
            "BatchNorm": 6,
            "ReLU": 7,
            "MaxPoolTime": 3,
            "Dropout": 2,
            "Dense": 2,
            "Sigmoid": 1,
        }

    def test_block_structure(self):
        model = build(TINY)
        types = [type(l) for l in model.layers]
        block = [Conv, BatchNorm, ReLU, Conv, BatchNorm, ReLU, MaxPoolTime]
        head = [Dropout, Dense, ReLU, Dropout, Dense, Sigmoid]
        assert types == block * 3 + head

    def test_conv_kernels_follow_config(self):
        model = build(ModelConfig.desk(time_kernel=21))
        convs = [l for l in model.layers if isinstance(l, Conv)]
        assert [c.kt for c in convs] == [21, 21, 31, 31, 3, 3]
        assert all(c.kc == 3 for c in convs)

    def test_fresh_model_is_uncommitted(self):
        model = build(TINY)
        x = np.zeros((2, 1280, 4, 1))
        probs = model.forward(x, train=False)
        np.testing.assert_allclose(probs, 0.5, atol=1e-12)

    def test_same_seed_same_weights(self):
        a, b = build(TINY), build(TINY)
        for la, lb in zip(a.layers, b.layers):
            for (_, pa), (_, pb) in zip(la.state(), lb.state()):
                np.testing.assert_array_equal(pa, pb)

    def test_time_pooling_reaches_twenty(self):
        model = build(TINY)
        x = np.zeros((1, 1280, 4, 1))
        h = x
        shapes = []
        for layer in model.layers:
            h = layer.forward(h, train=False)
            shapes.append(h.shape)
        pool_shapes = [
            s for s, l in zip(shapes, model.layers) if isinstance(l, MaxPoolTime)
        ]
        assert [s[1] for s in pool_shapes] == [320, 80, 20]


def test_batch_slices_merge_trailing_singleton():
    assert _batch_slices(65, 32) == [slice(0, 32), slice(32, 65)]
    assert _batch_slices(64, 32) == [slice(0, 32), slice(32, 64)]
    assert _batch_slices(33, 32) == [slice(0, 33)]
    assert _batch_slices(5, 32) == [slice(0, 5)]


def test_segments_to_arrays_rejects_unlabeled(small_corpus):
    from seiznet.data.records import record_segments

    segs = record_segments(small_corpus[0])
    unlabeled = [s for s in segs if s.label is None]
    with pytest.raises(DataError, match="no label"):
        segments_to_arrays([unlabeled[0]])


def test_sample_validation_split_partitions():
    rng = np.random.default_rng(0)
    segs = list(range(50))  # any objects will do
    train, val = sample_validation_split(segs, 0.1, seed=1)
    assert len(val) == 5
    assert sorted(train + val) == segs
    again = sample_validation_split(segs, 0.1, seed=1)
    assert (train, val) == again


class TestEarlyStopping:
    def make(self, n=40, l2=0.0, **kw):
        cfg = ModelConfig.desk(
            time_kernel=9, filters=(1, 1, 1), fc_hidden=2,
            l2=l2, seed=1, **kw,
        )
        model = build(cfg)
        rng = np.random.default_rng(2)
        segs_x = rng.normal(0, 20, (n, 1280, 4))
        from seiznet.data.records import Segment

        segs = [
            Segment(
                data=segs_x[i], label=int(i % 2), record_id="r",
                part="ictal" if i % 2 else "interictal", start_sample=0,
            )
            for i in range(n)
        ]
        return model, segs

    def test_worsening_validation_stops_after_patience(self):
        model, segs = self.make(max_epochs=50, patience=3)
        first_epoch_kernel = {}

        calls = {"n": 0}

        def drifting(x):
            # strictly worse every epoch: drift probabilities toward 1
            # while half the labels are 0
            calls["n"] += 1
            if calls["n"] == 1:
                first_epoch_kernel["k"] = model.layers[0].kernel.copy()
            return np.full(x.shape[0], 1.0 - 0.5 / calls["n"])

        model.predict_batch = drifting
        fit(model, segs[:30], segs[30:])
        h = model.history
        assert h.stopped_epoch == 4  # epoch 1 is best, then patience runs out
        assert h.best_epoch == 1
        assert h.val_loss[0] == min(h.val_loss)
        assert all(b > a for a, b in zip(h.val_loss, h.val_loss[1:]))
        np.testing.assert_array_equal(
            model.layers[0].kernel, first_epoch_kernel["k"]
        )

    def test_flat_validation_counts_as_no_improvement(self):
        model, segs = self.make(max_epochs=50, patience=4)
        model.predict_batch = lambda x: np.full(x.shape[0], 0.5)
        fit(model, segs[:30], segs[30:])
        assert model.history.stopped_epoch == 5
        assert model.history.best_epoch == 1

    def test_runs_to_max_epochs_when_improving(self):
        model, segs = self.make(max_epochs=4, patience=10)
        calls = {"n": 0}

        def improving(x):
            calls["n"] += 1
            margin = 0.1 * calls["n"]  # more confident every epoch
            labels = np.array([s.label for s in segs[30:]], dtype=float)
            return np.clip(0.5 + (labels - 0.5) * 2 * margin, 0.01, 0.99)

        model.predict_batch = improving
        fit(model, segs[:30], segs[30:])
        assert model.history.stopped_epoch == 4
        assert model.history.best_epoch == 4
        assert len(model.history.train_loss) == 4

    def test_imbalance_warning(self):
        model, segs = self.make(max_epochs=1, patience=1)
        skew = [s for s in segs if s.label == 1][:20] + [
            s for s in segs if s.label == 0
        ][:4]
        with pytest.warns(UserWarning, match="imbalanced"):
            fit(model, skew, segs[30:])

    def test_diverged_training_raises(self):
        model, segs = self.make(max_epochs=3, patience=5, l2=0.05)
        model.config = model.config.__class__(
            **{**model.config.to_dict(), "lr": np.inf,
               "filters": tuple(model.config.filters),
               "pools": tuple(model.config.pools)}
        )
        with pytest.raises(TrainingDivergedError), np.errstate(invalid="ignore"):
            fit(model, segs[:36], segs[36:])


class TestWeightFile:
    def test_round_trip_is_bit_exact(self, tiny_trained, tmp_path):
        path = tmp_path / "w.bin"
        save_model(tiny_trained, path)
        again = load_model(path)
        assert again.config == tiny_trained.config
        assert again.history.to_dict() == tiny_trained.history.to_dict()
        for la, lb in zip(tiny_trained.layers, again.layers):
            for (na, pa), (nb, pb) in zip(la.state(), lb.state()):
                assert na == nb
                assert pa.tobytes() == pb.tobytes()
        x = np.random.default_rng(0).normal(0, 30, (3, 1280, 4, 1))
        np.testing.assert_array_equal(
            tiny_trained.predict_batch(x), again.predict_batch(x)
        )

    def test_save_is_deterministic(self, tiny_trained, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(tiny_trained, a)
        save_model(tiny_trained, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file_fails_checksum(self, tiny_trained, tmp_path):
        path = tmp_path / "w.bin"
        save_model(tiny_trained, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(ModelIOError, match="checksum"):
            load_model(path)

    def test_flipped_byte_fails_checksum(self, tiny_trained, tmp_path):
        path = tmp_path / "w.bin"
        save_model(tiny_trained, path)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match="checksum"):
            load_model(path)

    def test_unsupported_version(self, tiny_trained, tmp_path):
        path = tmp_path / "w.bin"
        save_model(tiny_trained, path)
        raw = bytearray(path.read_bytes())[:-4]
        raw[4:8] = (99).to_bytes(4, "little")
        raw += (zlib.crc32(bytes(raw)) & 0xFFFFFFFF).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match="version 99"):
            load_model(path)

    def test_not_a_weight_file(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"PK\x03\x04 definitely a zip" + b"\0" * 20)
        with pytest.raises(ModelIOError, match="not a weight file"):
            load_model(path)
        assert WEIGHTS_MAGIC not in path.read_bytes()


class TestPredictSeries:
    def test_series_covers_available_parts(self, tiny_trained, small_corpus):
        series = predict_series(tiny_trained, small_corpus[0])
        assert len(series.probs) == 3 * 23
        assert series.parts[:23] == ("interictal",) * 23
        assert series.parts[-23:] == ("ictal",) * 23
        assert np.all((series.probs >= 0) & (series.probs <= 1))
        assert series.stride_seconds == 2.5
        assert series.start_samples == tuple(sorted(series.start_samples))

    def test_requires_interictal_coverage(self, tiny_trained):
        rng = np.random.default_rng(0)
        rec = EegRecord(
            record_id="short", patient_id="p",
            samples=rng.normal(0, 30, (2 * 15360, 4)),
            fs=256, onset_sample=15360,
        )
        with pytest.raises(DataError, match="interictal"):
            predict_series(tiny_trained, rec)


def test_separates_synthetic_classes(tiny_trained, small_corpus, small_plan):
    """Even the briefly trained model should rank most ictal windows
    above most interictal windows on patients it never saw."""
    segs = labeled_segments(small_corpus, small_plan.test_patients)
    x, y = segments_to_arrays(segs)
    probs = tiny_trained.predict_batch(x)
    assert probs[y == 1].mean() > probs[y == 0].mean() + 0.2
