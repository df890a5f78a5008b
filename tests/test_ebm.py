import struct
import zlib

import numpy as np
import pytest

from cate_ebm import (
    EbmModel,
    Mlp,
    PartitionModel,
    TrainConfig,
    kmeans_fit,
    load_model,
    make_rng,
    random_orthogonal,
    save_model,
    train_ebm,
)
from cate_ebm.nce import _scores
from cate_ebm.errors import (
    ChecksumError,
    DimensionError,
    IllConditionedError,
    MalformedModelError,
    TruncatedFileError,
    UntrainedModelError,
    VersionMismatchError,
)


def _untrained_model(seed_net=3, seed_b=42, d=2, k=2, hidden=(3,)):
    x = make_rng(1).standard_normal((30, d))
    part = kmeans_fit(x, k, make_rng(2))
    net = Mlp([d, *hidden, k], rng=make_rng(seed_net))
    b = random_orthogonal(k, make_rng(seed_b))
    return EbmModel(net=net, b_matrix=b, partition=part), x


def _trained_model(seed=21, n=200, d=4, k=2):
    x = make_rng(seed).standard_normal((n, d))
    cfg = TrainConfig(k=k, b=3, epochs=10, hidden=(8, 8), seed=seed)
    return train_ebm(x, cfg), x


def _energy(model, x, j):
    """Per-subset score of one covariate vector: B column j against the net
    output, the score nce_loss softmaxes over each candidate set."""
    return float(model.b_matrix[:, j] @ model.net.forward(x[None, :])[0])


class TestEnergy:
    def test_zero_net_energy_zero(self):
        model, x = _untrained_model()
        model.net = Mlp(model.net.widths)  # zero parameters
        for j in range(model.k):
            assert _energy(model, x[0], j) == 0.0

    def test_constant_net_k1(self):
        x = make_rng(1).standard_normal((10, 2))
        part = kmeans_fit(x, 1, make_rng(2))
        net = Mlp([2, 1])
        net.params[1][...] = 3.5  # constant output via output bias
        model = EbmModel(net=net, b_matrix=np.array([[1.0]]), partition=part)
        assert _energy(model, x[3], 0) == 3.5
        assert _energy(model, x[7], 0) == 3.5

    def test_two_path_evaluation(self):
        # the batched scores nce_loss softmaxes equal the one-vector form
        model, x = _untrained_model(seed_net=3, seed_b=42)
        subset = model.partition.assign(x[:6])
        scores = _scores(model, model.net.forward(x[:6]), subset)  # 6 sets of 1
        for i in range(6):
            assert abs(scores[i, 0] - _energy(model, x[i], subset[i])) < 1e-14

    def test_linear_in_beta_column(self):
        model, x = _untrained_model()
        e = _energy(model, x[0], 1)
        scaled = EbmModel.__new__(EbmModel)
        scaled.__dict__.update(model.__dict__)
        b2 = model.b_matrix.copy()
        b2[:, 1] *= 2.5
        scaled.b_matrix = b2  # bypasses orthogonality check on purpose
        assert abs(_energy(scaled, x[0], 1) - 2.5 * e) < 1e-12


class TestRepresent:
    def test_train_set_columns_centered(self):
        model, x = _trained_model()
        z = model.represent(x)
        assert np.abs(z.mean(axis=0)).max() < 1e-8

    def test_untrained_model_raises(self):
        model, x = _untrained_model()
        with pytest.raises(UntrainedModelError):
            model.represent(x)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the layers
    @pytest.mark.parametrize("trained", [True, False])
    def test_nonfinite_output_raises(self, trained):
        # the output is checked before the statistics are looked up
        model, x = _trained_model() if trained else _untrained_model()
        model.net.params[0][0, 0] = 1e308
        with pytest.raises(IllConditionedError, match="non-finite network output"):
            model.represent(x)

    def test_output_bias_shift_invariant(self):
        model, x = _trained_model()
        shifted_net = model.net.copy()
        shifted_net.params[-1] += np.array([2.0, -7.0])
        raw = shifted_net.forward(x)
        mean = raw.mean(axis=0)
        std = raw.std(axis=0)
        shifted = EbmModel(net=shifted_net, b_matrix=model.b_matrix,
                           partition=model.partition, repr_mean=mean, repr_std=std)
        assert np.abs(model.represent(x) - shifted.represent(x)).max() < 1e-10

    def test_row_permutation_equivariant(self):
        model, x = _trained_model()
        perm = make_rng(99).permutation(x.shape[0])
        assert np.array_equal(model.represent(x)[perm], model.represent(x[perm]))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model, x = _trained_model()
        path = tmp_path / "m.preb"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(model.represent(x), loaded.represent(x))
        assert np.array_equal(model.net.flat, loaded.net.flat)
        for p1, p2 in zip(model.net.params, loaded.net.params):
            assert np.array_equal(p1, p2)
        assert np.array_equal(model.b_matrix, loaded.b_matrix)
        assert np.array_equal(model.partition.centroids, loaded.partition.centroids)
        again = tmp_path / "again.preb"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        # the training record is not serialized
        assert (loaded.history, loaded.best_epoch, loaded.best_val_loss) == ([], None, None)

    def test_version_flip_detected(self, tmp_path):
        model, _ = _trained_model()
        path = tmp_path / "m.preb"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[4] ^= 0xFF
        # keep the CRC consistent so the version check is what fires
        import struct, zlib
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])))
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_truncated_file_detected(self, tmp_path):
        model, _ = _trained_model()
        path = tmp_path / "m.preb"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises((TruncatedFileError, ChecksumError)):
            load_model(path)

    def test_corrupted_payload_detected(self, tmp_path):
        model, _ = _trained_model()
        path = tmp_path / "m.preb"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[50] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_model(path)


def _rewrite(raw: bytes, edit) -> bytes:
    """Split a model file into its sections, let edit(sections) change them
    and return any bytes to append, then reassemble with a fresh CRC."""
    body, pos, secs = raw[6:-4], 0, []
    while pos < len(body):
        (length,) = struct.unpack_from("<I", body, pos)
        secs.append(bytearray(body[pos + 4 : pos + 4 + length]))
        pos += 4 + length
    tail = edit(secs)
    out = raw[:6] + b"".join(struct.pack("<I", len(s)) + bytes(s) for s in secs) + tail
    return out + struct.pack("<I", zlib.crc32(out))


def _swap_u32(sec: bytearray, at: int) -> None:
    sec[at : at + 8] = sec[at + 4 : at + 8] + sec[at : at + 4]


def _swap_first_weight_dims(secs):
    n_widths = struct.unpack_from("<I", secs[2])[0]
    _swap_u32(secs[2], 4 + 4 * n_widths + 4)  # after the widths and ndim of W0
    return b""


def _swap_centroid_dims(secs):
    _swap_u32(secs[0], 8 + 4)  # after the inertia double and ndim
    return b""


def _grow_section(secs):
    secs[4] += b"\x00"
    return b""


def _fingerprint_d99(secs):
    struct.pack_into("<I", secs[4], 0, 99)  # d is the fingerprint's first field
    return b""


def _many_dims(secs):
    secs[1][:] = struct.pack("<I", 65) + bytes(4 * 65)  # B as an empty 65-d array
    return b""


def _nan_first_weight(secs):
    n_widths = struct.unpack_from("<I", secs[2])[0]
    struct.pack_into("<d", secs[2], 4 + 4 * n_widths + 12, np.nan)  # after W0's ndim and shape
    return b""


def _nan_first_b(secs):
    struct.pack_into("<d", secs[1], 12, np.nan)  # after B's ndim and shape
    return b""


@pytest.mark.parametrize("edit", [_swap_first_weight_dims, _swap_centroid_dims,
                                  _grow_section, lambda secs: b"\x00", _fingerprint_d99,
                                  _many_dims, _nan_first_weight, _nan_first_b],
                         ids=["weight_shape", "centroid_shape", "section_tail", "file_tail",
                              "fingerprint_d", "many_dims", "nan_weight", "nan_b"])
def test_malformed_layout_detected(tmp_path, edit):
    model, _ = _trained_model()
    path = tmp_path / "m.preb"
    save_model(model, path)
    raw = path.read_bytes()
    assert _rewrite(raw, lambda secs: b"") == raw
    path.write_bytes(_rewrite(raw, edit))
    with pytest.raises(MalformedModelError):
        load_model(path)


@pytest.mark.parametrize("bad", ["scaled", "nan"])
def test_b_must_be_orthogonal(bad):
    model, _ = _untrained_model()
    b = model.b_matrix.copy()
    b[0, 0] = 2.0 * b[0, 0] if bad == "scaled" else np.nan
    with pytest.raises(ValueError, match="not orthogonal"):
        EbmModel(net=model.net, b_matrix=b, partition=model.partition)


def test_partition_width_must_match_net_input():
    # a 5-wide partition under a 3-input net would be saved as a file load_model rejects
    with pytest.raises(DimensionError, match="partition width 5 is not net input 3"):
        EbmModel(net=Mlp([3, 4, 2]), b_matrix=np.eye(2),
                 partition=PartitionModel(centroids=np.zeros((2, 5))))


def _parent_era_field(secs):
    # files written before the field was retired carry a corruption hash there
    # (83871335 at rho=0.5, b=5, d=20)
    struct.pack_into("<I", secs[4], 8, 83871335)  # after d and k
    return b""


def test_retired_field_ignored(tmp_path):
    model, x = _trained_model()
    path = tmp_path / "m.preb"
    save_model(model, path)
    raw = path.read_bytes()
    assert struct.unpack_from("<I", raw, len(raw) - 16)[0] == 0
    old = _rewrite(raw, _parent_era_field)
    assert old != raw
    path.write_bytes(old)
    loaded = load_model(path)
    assert np.array_equal(loaded.represent(x), model.represent(x))
    assert np.array_equal(loaded.b_matrix, model.b_matrix)
    assert np.array_equal(loaded.net.flat, model.net.flat)
