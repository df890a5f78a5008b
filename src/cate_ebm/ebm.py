"""Fitted reducers and the partially randomized energy model.

Every reducer (the energy model, the autoencoder, PCA) is an Encoder: a
network whose outputs are standardized with the statistics of its training
rows. A fitted energy model adds the fixed orthogonal matrix B (columns are
the per-subset coefficient vectors) and the covariate partition. The
per-subset score is the inner product of a B column with the network
output; the normalizer of the implied density is never materialized.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import DimensionError, IllConditionedError, ModelFileError, UntrainedModelError
from .numerics import Mlp, standardize_columns
from .partition import PartitionModel

_MAGIC = b"PREB"
_VERSION = 1


class Encoder:
    """A fitted map x -> z: a network, the statistics that standardize its
    outputs, and its training record (empty and None until trained; the
    record is not serialized)."""

    def __init__(self, net: Mlp):
        self.net = net
        self.repr_mean = self.repr_std = None
        self.history = []  # (epoch, train_loss, val_loss) rows
        self.best_epoch = None
        self.best_val_loss = None

    def standardize_on(self, x) -> "Encoder":
        """Take the standardization statistics from the network's outputs on
        the training rows x; returns self."""
        _, self.repr_mean, self.repr_std = standardize_columns(self.net.forward(x))
        return self

    def represent(self, x) -> np.ndarray:
        """Network outputs standardized with the training statistics; an
        output that is not finite raises IllConditionedError (numpy's overflow
        warnings are off for the forward pass: that check decides)."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.net.forward(np.asarray(x, dtype=float))
        if not np.isfinite(out).all():
            raise IllConditionedError("non-finite network output in represent")
        if self.repr_mean is None or self.repr_std is None:
            raise UntrainedModelError("model carries no standardization statistics")
        return (out - self.repr_mean) / self.repr_std


class EbmModel(Encoder):
    def __init__(self, net: Mlp, b_matrix: np.ndarray, partition: PartitionModel,
                 repr_mean=None, repr_std=None):
        k = b_matrix.shape[0]
        if b_matrix.shape != (k, k):
            raise DimensionError("B must be square")
        if net.out_dim != k or partition.k != k:
            raise DimensionError(
                f"net output {net.out_dim}, B dimension {k} and partition size "
                f"{partition.k} must agree"
            )
        if partition.d != net.in_dim:
            raise DimensionError(f"partition width {partition.d} is not net input {net.in_dim}")
        err = np.max(np.abs(b_matrix @ b_matrix.T - np.eye(k)))
        if not err <= 1e-8:  # a NaN deviation fails too
            raise ValueError(f"B is not orthogonal (max deviation {err:.2e})")
        if repr_std is not None and np.any(np.asarray(repr_std) <= 0):
            raise ValueError("repr_std entries must be positive")
        super().__init__(net)
        self.b_matrix = np.asarray(b_matrix, dtype=float)
        self.partition = partition
        self.repr_mean = None if repr_mean is None else np.asarray(repr_mean, dtype=float)
        self.repr_std = None if repr_std is None else np.asarray(repr_std, dtype=float)

    @property
    def k(self) -> int:
        return self.b_matrix.shape[0]

    @property
    def d(self) -> int:
        return self.net.in_dim

    # restated so that EbmModel's own class dict holds it: the benchmark's span
    # tracer wraps EbmModel.__dict__["represent"]
    def represent(self, x) -> np.ndarray:
        return super().represent(x)


def _pack_array(a: np.ndarray) -> bytes:
    a = np.ascontiguousarray(np.asarray(a, dtype="<f8"))
    return struct.pack("<I", a.ndim) + b"".join(
        struct.pack("<I", s) for s in a.shape
    ) + a.tobytes()


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ModelFileError("model file ended mid-section")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def array(self) -> np.ndarray:
        ndim = self.u32()
        if ndim > 2:
            raise ModelFileError(f"an array with {ndim} dimensions; the format stores at most 2")
        shape = tuple(self.u32() for _ in range(ndim))
        count = math.prod(shape)
        raw = self.take(8 * count)
        return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()

    def end(self, what: str) -> None:
        if self.pos != len(self.buf):
            raise ModelFileError(f"{len(self.buf) - self.pos} bytes after the last field of {what}")


def _expect(a: np.ndarray, shape, what: str) -> None:
    if a.shape != tuple(shape):
        raise ModelFileError(f"{what} has shape {a.shape}, the layer widths imply "
                             f"{tuple(shape)}")
    if not np.isfinite(a).all():
        raise ModelFileError(f"{what} holds non-finite values")


def save_model(model: EbmModel, path) -> None:
    """Versioned binary container, little-endian doubles, trailing CRC32."""
    sections = []

    part = struct.pack("<d", model.partition.inertia) + _pack_array(model.partition.centroids)
    sections.append(part)
    sections.append(_pack_array(model.b_matrix))

    net = struct.pack("<I", len(model.net.widths))
    net += b"".join(struct.pack("<I", w) for w in model.net.widths)
    for p in model.net.params:
        net += _pack_array(p)
    sections.append(net)

    has_stats = model.repr_mean is not None and model.repr_std is not None
    stats = struct.pack("<B", 1 if has_stats else 0)
    if has_stats:
        stats += _pack_array(model.repr_mean) + _pack_array(model.repr_std)
    sections.append(stats)

    # d, k, a retired field (0) and a CRC32 of B, which older readers' mcc compares;
    # load_model checks only d and k
    b_crc = zlib.crc32(np.ascontiguousarray(model.b_matrix, dtype="<f8").tobytes())
    sections.append(struct.pack("<IIIQ", model.d, model.k, 0, b_crc))

    body = _MAGIC + struct.pack("<H", _VERSION)
    for sec in sections:
        body += struct.pack("<I", len(sec)) + sec
    body += struct.pack("<I", zlib.crc32(body))
    with open(path, "wb") as fh:
        fh.write(body)


def load_model(path) -> EbmModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 10:
        raise ModelFileError("file shorter than header")
    if raw[:4] != _MAGIC:
        raise ModelFileError("not a model file (bad magic)")
    version = struct.unpack("<H", raw[4:6])[0]
    if version != _VERSION:
        raise ModelFileError(f"format version {version}, expected {_VERSION}")
    stored_crc = struct.unpack("<I", raw[-4:])[0]
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise ModelFileError("CRC32 mismatch")

    rd = _Reader(raw[6:-4])
    secs = [_Reader(rd.take(rd.u32())) for _ in range(5)]
    rd.end("the file")

    net_rd = secs[2]
    widths = [net_rd.u32() for _ in range(net_rd.u32())]
    if len(widths) < 2:
        raise ModelFileError(f"{len(widths)} layer widths stored, need at least 2")
    params = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        for shape in ((fan_in, fan_out), (fan_out,)):
            params.append(net_rd.array())
            _expect(params[-1], shape, f"network parameter {len(params) - 1}")
    net_rd.end("the network section")
    d, k = widths[0], widths[-1]

    part_rd = secs[0]
    inertia = struct.unpack("<d", part_rd.take(8))[0]
    centroids = part_rd.array()
    _expect(centroids, (k, d), "the centroid matrix")
    part_rd.end("the partition section")

    b_matrix = secs[1].array()
    _expect(b_matrix, (k, k), "B")
    secs[1].end("the B section")

    stats_rd = secs[3]
    has_stats = struct.unpack("<B", stats_rd.take(1))[0]
    mean = std = None
    if has_stats:
        mean = stats_rd.array()
        std = stats_rd.array()
        _expect(mean, (k,), "the representation mean")
        _expect(std, (k,), "the representation std")
    stats_rd.end("the statistics section")

    shape_d, shape_k, _, _ = struct.unpack("<IIIQ", secs[4].take(20))
    secs[4].end("the shape section")
    if (shape_d, shape_k) != (d, k):
        raise ModelFileError(f"the shape section says d={shape_d}, k={shape_k}; the "
                             f"layer widths say d={d}, k={k}")

    net = Mlp(widths)  # allocated only once the stored arrays match the widths
    net.flat[:] = np.concatenate([p.ravel() for p in params])
    try:
        return EbmModel(net=net, b_matrix=b_matrix,
                        partition=PartitionModel(centroids=centroids, inertia=inertia),
                        repr_mean=mean, repr_std=std)
    except ValueError as exc:  # e.g. a B that is not orthogonal
        raise ModelFileError(f"inconsistent model file: {exc}") from exc
