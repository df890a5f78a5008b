"""Fitted reducers and the partially randomized energy model.

Every reducer (the energy model, the autoencoder, PCA) is an Encoder: a
network whose outputs are standardized with the statistics of its training
rows. A fitted energy model adds the fixed orthogonal matrix B (columns are
the per-subset coefficient vectors). The per-subset score is the inner
product of a B column with the network output; the normalizer of the
implied density is never materialized.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import (ConfigError, DimensionError, IllConditionedError, ModelFileError,
                     UntrainedModelError)
from .numerics import Mlp, as_vector, standardize_columns

_MAGIC = b"PREB"
_VERSION = 2


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
            out = self.net.forward(x)
        if not np.isfinite(out).all():
            raise IllConditionedError("non-finite network output in represent")
        if self.repr_mean is None or self.repr_std is None:
            raise UntrainedModelError("model carries no standardization statistics")
        return (out - self.repr_mean) / self.repr_std


def _statistic(v, what: str, k: int):
    """A standardization statistic as a finite (k,) vector; None stays None."""
    if v is None:
        return None
    v = as_vector(v, what)
    if v.size != k or not np.isfinite(v).all():
        raise ConfigError(f"{what} must hold {k} finite values, one per network output")
    return v


class EbmModel(Encoder):
    def __init__(self, net: Mlp, b_matrix: np.ndarray, repr_mean=None, repr_std=None):
        k = b_matrix.shape[0]
        if b_matrix.shape != (k, k):
            raise DimensionError("B must be square")
        if net.out_dim != k:
            raise DimensionError(f"net output {net.out_dim} and B dimension {k} must agree")
        err = np.max(np.abs(b_matrix @ b_matrix.T - np.eye(k)))
        if not err <= 1e-8:  # a NaN deviation fails too
            raise ConfigError(f"B is not orthogonal (max deviation {err:.2e})")
        super().__init__(net)
        self.b_matrix = np.asarray(b_matrix, dtype=float)
        self.repr_mean = _statistic(repr_mean, "repr_mean", k)
        self.repr_std = _statistic(repr_std, "repr_std", k)
        if self.repr_std is not None and not (self.repr_std > 0).all():
            raise ConfigError("repr_std entries must be positive")

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
    """Format 2: magic, version, then B, the network and the statistics as
    length-prefixed sections of little-endian doubles, and a trailing CRC32."""
    net = struct.pack("<I", len(model.net.widths))
    net += b"".join(struct.pack("<I", w) for w in model.net.widths)
    for p in model.net.params:
        net += _pack_array(p)

    has_stats = model.repr_mean is not None and model.repr_std is not None
    stats = struct.pack("<B", 1 if has_stats else 0)
    if has_stats:
        stats += _pack_array(model.repr_mean) + _pack_array(model.repr_std)

    body = _MAGIC + struct.pack("<H", _VERSION)
    for sec in (_pack_array(model.b_matrix), net, stats):
        body += struct.pack("<I", len(sec)) + sec
    body += struct.pack("<I", zlib.crc32(body))
    with open(path, "wb") as fh:
        fh.write(body)


def load_model(path) -> EbmModel:
    """An EbmModel from a format-2 file, or from a format-1 file, whose
    partition and shape sections are skipped unread (its CRC32 covers them)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 10:
        raise ModelFileError("file shorter than header")
    if raw[:4] != _MAGIC:
        raise ModelFileError("not a model file (bad magic)")
    version = struct.unpack("<H", raw[4:6])[0]
    if version not in (1, _VERSION):
        raise ModelFileError(f"format version {version}, expected 1 or {_VERSION}")
    stored_crc = struct.unpack("<I", raw[-4:])[0]
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise ModelFileError("CRC32 mismatch")

    # format 1 puts a partition section before the three and a shape section after them
    count, first = (3, 0) if version == _VERSION else (5, 1)
    rd = _Reader(raw[6:-4])
    secs = [_Reader(rd.take(rd.u32())) for _ in range(count)]
    rd.end("the file")
    b_rd, net_rd, stats_rd = secs[first : first + 3]

    widths = [net_rd.u32() for _ in range(net_rd.u32())]
    if len(widths) < 2:
        raise ModelFileError(f"{len(widths)} layer widths stored, need at least 2")
    params = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        for shape in ((fan_in, fan_out), (fan_out,)):
            params.append(net_rd.array())
            _expect(params[-1], shape, f"network parameter {len(params) - 1}")
    net_rd.end("the network section")
    k = widths[-1]

    b_matrix = b_rd.array()
    _expect(b_matrix, (k, k), "B")
    b_rd.end("the B section")

    has_stats = struct.unpack("<B", stats_rd.take(1))[0]
    mean = std = None
    if has_stats:
        mean = stats_rd.array()
        std = stats_rd.array()
    stats_rd.end("the statistics section")

    net = Mlp(widths)  # allocated only once the stored arrays match the widths
    net.flat[:] = np.concatenate([p.ravel() for p in params])
    try:
        return EbmModel(net=net, b_matrix=b_matrix, repr_mean=mean, repr_std=std)
    except ValueError as exc:  # e.g. a B that is not orthogonal, or a std entry of 0
        raise ModelFileError(f"inconsistent model file: {exc}") from exc
