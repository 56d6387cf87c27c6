"""Network assembly, training loop, prediction, and weight files.

The architecture is three convolutional blocks followed by a small
fully connected head.  Each block is conv, batch norm, ReLU twice and
a time-axis max pool; the head is dropout, dense, ReLU, dropout,
dense, sigmoid.  The first block's time kernel sets the lowest
frequency the network can resolve explicitly (fs / k).
"""

from __future__ import annotations

import json
import logging
import warnings
import zlib
from dataclasses import dataclass, field, asdict

import numpy as np

from seiznet import CHANNELS, TARGET_FS, WINDOW_SAMPLES
from seiznet.data.records import EegRecord, Segment, partition, windows
from seiznet.errors import DataError, ModelIOError, TrainingDivergedError
from seiznet.fsio import atomic_write_bytes
from seiznet.nn.layers import (
    BatchNorm,
    Conv,
    Dense,
    Dropout,
    MaxPoolTime,
    ReLU,
    Sigmoid,
)
from seiznet.nn.loss import add_l2_gradients, bce_loss, l2_penalty, sgd_step

log = logging.getLogger(__name__)

WEIGHTS_MAGIC = b"SZNW"
WEIGHTS_VERSION = 1
FULL_TIME_KERNELS = (5, 91, 131)


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the network and its training loop."""

    time_kernel: int = 131
    filters: tuple[int, int, int] = (32, 64, 64)
    channel_kernel: int = 3
    pools: tuple[int, int, int] = (4, 4, 4)
    fc_hidden: int = 64
    dropout: float = 0.3
    l2: float = 0.05
    lr: float = 0.005
    batch_size: int = 32
    max_epochs: int = 120
    patience: int = 15
    seed: int = 0
    input_samples: int = WINDOW_SAMPLES
    n_channels: int = len(CHANNELS)

    @property
    def block_time_kernels(self) -> tuple[int, int, int]:
        """Time kernel lengths per block: k, then 31, then 3."""
        return (self.time_kernel, 31, 3)

    @property
    def lowest_resolvable_hz(self) -> float:
        """Lowest frequency with a full cycle inside the first kernel."""
        return TARGET_FS / self.time_kernel

    def to_dict(self) -> dict:
        d = asdict(self)
        d["filters"] = list(self.filters)
        d["pools"] = list(self.pools)
        return d

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        payload = dict(payload)
        payload["filters"] = tuple(payload["filters"])
        payload["pools"] = tuple(payload["pools"])
        return cls(**payload)

    @classmethod
    def full(cls, time_kernel: int = 131, **overrides) -> "ModelConfig":
        """Full-size configuration; the time kernel sets the lowest
        frequency the first block can resolve."""
        return cls(time_kernel=time_kernel, **overrides)

    @classmethod
    def desk(cls, **overrides) -> "ModelConfig":
        """Small profile that trains in minutes on one core."""
        defaults = dict(
            time_kernel=31,
            filters=(4, 8, 8),
            fc_hidden=32,
            max_epochs=20,
            patience=5,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class TrainingHistory:
    """Per-epoch losses and the early-stopping outcome."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based; 0 means never trained
    stopped_epoch: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainingHistory":
        return cls(**payload)


@dataclass
class ProbabilitySeries:
    """Window probabilities of one record, in time order.

    Consecutive windows are 2.5 s apart.  parts tags each window with
    the record part it was cut from.
    """

    record_id: str
    probs: np.ndarray
    parts: tuple[str, ...]
    start_samples: tuple[int, ...]
    stride_seconds: float = 2.5


class TrainedModel:
    """A built network: configuration, layers, and training history."""

    def __init__(self, config: ModelConfig, layers: list, rng: np.random.Generator):
        self.config = config
        self.layers = layers
        self.rng = rng
        self.history: TrainingHistory | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            d_out = layer.backward(d_out)
        return d_out

    def receptive_field_report(self) -> dict:
        cfg = self.config
        return {
            "time_kernel": cfg.time_kernel,
            "window_seconds": cfg.input_samples / TARGET_FS,
            "lowest_resolvable_hz": cfg.lowest_resolvable_hz,
        }

    def relu_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if isinstance(l, ReLU)]

    def target_relu_index(self, which: str) -> int:
        """Index of an interpretation target: 'first' or 'last_block'."""
        relus = self.relu_indices()
        if which == "first":
            return relus[0]
        if which == "last_block":
            return relus[5]
        raise ValueError(f"unknown target layer {which!r}")

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """Inference probabilities for (N, T, C, 1) input, batched."""
        out = np.empty(x.shape[0])
        step = self.config.batch_size
        for lo in range(0, x.shape[0], step):
            probs = self.forward(x[lo : lo + step], train=False)
            out[lo : lo + probs.shape[0]] = probs[:, 0]
        return out


def build(config: ModelConfig) -> TrainedModel:
    """Construct a freshly initialized network from its configuration.

    Kernels use He-uniform initialization, batch norm starts at the
    identity, and all biases start at zero, so an all-zero input maps
    to probability 0.5 before any training.
    """
    if config.time_kernel < 2:
        raise ValueError(f"time kernel {config.time_kernel} too short")
    if config.time_kernel % 2 == 0:
        warnings.warn(
            f"time kernel {config.time_kernel} is even; the reference"
            f" configurations use odd lengths {FULL_TIME_KERNELS}",
            stacklevel=2,
        )
    rng = np.random.default_rng(config.seed)
    layers: list = []
    f_in = 1
    t_dim = config.input_samples
    for kt, f_out, pool in zip(
        config.block_time_kernels, config.filters, config.pools
    ):
        for _ in range(2):
            layers.append(Conv(kt, config.channel_kernel, f_in, f_out, rng))
            layers.append(BatchNorm(f_out))
            layers.append(ReLU())
            f_in = f_out
        layers.append(MaxPoolTime(pool))
        t_dim = -(-t_dim // pool)
    flat = t_dim * config.n_channels * config.filters[-1]
    layers.append(Dropout(config.dropout, rng))
    layers.append(Dense(flat, config.fc_hidden, rng))
    layers.append(ReLU())
    layers.append(Dropout(config.dropout, rng))
    layers.append(Dense(config.fc_hidden, 1, rng))
    layers.append(Sigmoid())
    model = TrainedModel(config, layers, rng)
    report = model.receptive_field_report()
    log.info(
        "built model: time kernel %d, lowest resolvable frequency %.1f Hz",
        config.time_kernel,
        report["lowest_resolvable_hz"],
    )
    return model


def segments_to_arrays(segments: list[Segment]) -> tuple[np.ndarray, np.ndarray]:
    """Stack labeled segments into model input and label arrays."""
    for seg in segments:
        if seg.label is None:
            raise DataError(
                f"segment from part {seg.part!r} of {seg.record_id} has no label"
            )
    x = np.stack([seg.data for seg in segments])[:, :, :, None]
    y = np.array([float(seg.label) for seg in segments])
    return x, y


def sample_validation_split(
    segments: list[Segment], fraction: float, seed: int
) -> tuple[list[Segment], list[Segment]]:
    """Seeded segment-level split used when training the final model."""
    if len(segments) < 2:
        raise DataError("need at least two segments to split off validation")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(segments))
    n_val = max(1, round(fraction * len(segments)))
    val_idx = set(order[:n_val].tolist())
    train = [s for i, s in enumerate(segments) if i not in val_idx]
    val = [s for i, s in enumerate(segments) if i in val_idx]
    return train, val


def _snapshot(model: TrainedModel) -> list[np.ndarray]:
    return [arr.copy() for layer in model.layers for _, arr in layer.state()]


def _restore(model: TrainedModel, snap: list[np.ndarray]) -> None:
    i = 0
    for layer in model.layers:
        for _, arr in layer.state():
            arr[:] = snap[i]
            i += 1


def _batch_slices(n: int, size: int) -> list[slice]:
    """Contiguous batch slices; a trailing singleton joins its neighbor."""
    slices = [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]
    if len(slices) > 1 and slices[-1].stop - slices[-1].start < 2:
        last = slices.pop()
        prev = slices.pop()
        slices.append(slice(prev.start, last.stop))
    return slices


def fit(
    model: TrainedModel,
    train_segments: list[Segment],
    val_segments: list[Segment],
) -> TrainedModel:
    """Train with shuffled mini-batch SGD and early stopping.

    The validation loss (data term plus weight penalty) is evaluated
    after every epoch; training stops after `patience` consecutive
    epochs without improvement, or at `max_epochs`, and the weights of
    the best epoch are restored either way.
    """
    cfg = model.config
    x_train, y_train = segments_to_arrays(train_segments)
    x_val, y_val = segments_to_arrays(val_segments)
    if x_train.shape[0] < 2:
        raise DataError("training requires at least two segments")
    pos = float(np.mean(y_train))
    if pos > 0.6 or pos < 0.4:
        warnings.warn(
            f"training labels are imbalanced: {pos:.0%} positive",
            stacklevel=2,
        )

    history = TrainingHistory()
    best_loss = np.inf
    best_snap = _snapshot(model)
    stale = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = model.rng.permutation(x_train.shape[0])
        epoch_loss = 0.0
        for batch_no, sl in enumerate(_batch_slices(order.size, cfg.batch_size)):
            idx = order[sl]
            probs = model.forward(x_train[idx], train=True)
            data_loss, d_probs = bce_loss(probs, y_train[idx])
            total = data_loss + l2_penalty(model.layers, cfg.l2)
            if not np.isfinite(total):
                raise TrainingDivergedError(
                    f"non-finite loss {total} at epoch {epoch}, batch {batch_no}"
                )
            model.backward(d_probs)
            add_l2_gradients(model.layers, cfg.l2)
            sgd_step(
                model.layers,
                cfg.lr,
                context=f"epoch {epoch}, batch {batch_no}",
            )
            epoch_loss += total * idx.size
        history.train_loss.append(epoch_loss / order.size)

        val_probs = model.predict_batch(x_val)
        val_data, _ = bce_loss(val_probs[:, None], y_val)
        val_total = val_data + l2_penalty(model.layers, cfg.l2)
        if not np.isfinite(val_total):
            raise TrainingDivergedError(
                f"non-finite validation loss at epoch {epoch}"
            )
        history.val_loss.append(val_total)
        improved = val_total < best_loss
        if improved:
            best_loss = val_total
            best_snap = _snapshot(model)
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
        log.info(
            "epoch %d: train %.4f, val %.4f%s",
            epoch,
            history.train_loss[-1],
            val_total,
            "" if improved else f" (no improvement x{stale})",
        )
        history.stopped_epoch = epoch
        if stale >= cfg.patience:
            log.info("early stop at epoch %d, restoring epoch %d", epoch, history.best_epoch)
            break
    _restore(model, best_snap)
    model.history = history
    return model


def predict_series(model: TrainedModel, record: EegRecord) -> ProbabilitySeries:
    """Window probabilities over a record's available parts, in time order."""
    parts = partition(record)
    if not parts.get("interictal").available:
        raise DataError(
            f"{record.record_id}: interictal part unavailable,"
            " probability series needs interictal and ictal coverage"
        )
    segs: list[Segment] = []
    for part in parts.available():
        segs.extend(windows(record, part))
    x = np.stack([s.data for s in segs])[:, :, :, None]
    probs = model.predict_batch(x)
    return ProbabilitySeries(
        record_id=record.record_id,
        probs=probs,
        parts=tuple(s.part for s in segs),
        start_samples=tuple(s.start_sample for s in segs),
    )


def save_model(model: TrainedModel, path) -> None:
    """Write a versioned, checksummed binary weight file."""
    manifest = []
    blocks = []
    for i, layer in enumerate(model.layers):
        for name, arr in layer.state():
            manifest.append({"layer": i, "name": name, "shape": list(arr.shape)})
            blocks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    header = {
        "config": model.config.to_dict(),
        "history": model.history.to_dict() if model.history else None,
        "params": manifest,
        "dtype": "<f8",
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = bytearray()
    body += WEIGHTS_MAGIC
    body += WEIGHTS_VERSION.to_bytes(4, "little")
    body += len(header_bytes).to_bytes(4, "little")
    body += header_bytes
    for block in blocks:
        body += block
    body += (zlib.crc32(bytes(body)) & 0xFFFFFFFF).to_bytes(4, "little")
    atomic_write_bytes(path, bytes(body))


def load_model(path) -> TrainedModel:
    """Read a weight file back into an identical model, bit for bit."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != WEIGHTS_MAGIC:
        raise ModelIOError(f"{path}: not a weight file (bad magic)")
    stored_crc = int.from_bytes(raw[-4:], "little")
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored_crc:
        raise ModelIOError(f"{path}: checksum mismatch, file truncated or corrupt")
    version = int.from_bytes(raw[4:8], "little")
    if version != WEIGHTS_VERSION:
        raise ModelIOError(
            f"{path}: unsupported weight file version {version},"
            f" expected {WEIGHTS_VERSION}"
        )
    header_len = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    config = ModelConfig.from_dict(header["config"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = build(config)
    offset = 12 + header_len
    arrays = {
        (i, name): arr
        for i, layer in enumerate(model.layers)
        for name, arr in layer.state()
    }
    for entry in header["params"]:
        key = (entry["layer"], entry["name"])
        if key not in arrays:
            raise ModelIOError(f"{path}: unexpected parameter {key}")
        arr = arrays[key]
        if list(arr.shape) != entry["shape"]:
            raise ModelIOError(
                f"{path}: shape mismatch for {key}:"
                f" {entry['shape']} vs {list(arr.shape)}"
            )
        nbytes = arr.size * 8
        block = raw[offset : offset + nbytes]
        arr[:] = np.frombuffer(block, dtype="<f8").reshape(arr.shape)
        offset += nbytes
    if offset != len(raw) - 4:
        raise ModelIOError(f"{path}: trailing bytes after parameter blocks")
    if header["history"] is not None:
        model.history = TrainingHistory.from_dict(header["history"])
    return model
