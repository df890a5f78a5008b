import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from cate_ebm import (
    EbmModel,
    Mlp,
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
    DimensionError,
    IllConditionedError,
    ModelFileError,
    UntrainedModelError,
)


def _untrained_model(seed_net=3, seed_b=42, d=2, k=2, hidden=(3,)):
    x = make_rng(1).standard_normal((30, d))
    net = Mlp([d, *hidden, k], rng=make_rng(seed_net))
    b = random_orthogonal(k, make_rng(seed_b))
    return EbmModel(net=net, b_matrix=b), x


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
        net = Mlp([2, 1])
        net.params[1][...] = 3.5  # constant output via output bias
        model = EbmModel(net=net, b_matrix=np.array([[1.0]]))
        assert _energy(model, x[3], 0) == 3.5
        assert _energy(model, x[7], 0) == 3.5

    def test_two_path_evaluation(self):
        # the batched scores nce_loss softmaxes equal the one-vector form
        model, x = _untrained_model(seed_net=3, seed_b=42)
        subset = kmeans_fit(x, model.k, make_rng(2)).labels[:6]
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
        shifted_net = Mlp(model.net.widths)
        shifted_net.flat[:] = model.net.flat
        shifted_net.params[-1] += np.array([2.0, -7.0])
        raw = shifted_net.forward(x)
        mean = raw.mean(axis=0)
        std = raw.std(axis=0)
        shifted = EbmModel(net=shifted_net, b_matrix=model.b_matrix,
                           repr_mean=mean, repr_std=std)
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
        with pytest.raises(ModelFileError, match="format version 253, expected 1 or 2"):
            load_model(path)

    def test_truncated_file_detected(self, tmp_path):
        model, _ = _trained_model()
        path = tmp_path / "m.preb"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ModelFileError, match="CRC32 mismatch"):
            load_model(path)

    def test_corrupted_payload_detected(self, tmp_path):
        model, _ = _trained_model()
        path = tmp_path / "m.preb"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[50] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match="CRC32 mismatch"):
            load_model(path)


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _sections(raw: bytes) -> list:
    """The length-prefixed sections between a model file's version and CRC32."""
    body, pos, secs = raw[6:-4], 0, []
    while pos < len(body):
        (length,) = struct.unpack_from("<I", body, pos)
        secs.append(bytearray(body[pos + 4 : pos + 4 + length]))
        pos += 4 + length
    return secs


def _rewrite(raw: bytes, edit) -> bytes:
    """Split a model file into its sections, let edit(sections) change them
    and return any bytes to append, then reassemble with a fresh CRC."""
    secs = _sections(raw)
    tail = edit(secs)
    out = raw[:6] + b"".join(struct.pack("<I", len(s)) + bytes(s) for s in secs) + tail
    return _with_crc(out)


def _swap_u32(sec: bytearray, at: int) -> None:
    sec[at : at + 8] = sec[at + 4 : at + 8] + sec[at : at + 4]


# format 2's sections: 0 is B, 1 the network, 2 the statistics

def _swap_first_weight_dims(secs):
    n_widths = struct.unpack_from("<I", secs[1])[0]
    _swap_u32(secs[1], 4 + 4 * n_widths + 4)  # after the widths and ndim of W0
    return b""


def _grow_section(secs):
    secs[2] += b"\x00"
    return b""


def _many_dims(secs):
    secs[0][:] = struct.pack("<I", 65) + bytes(4 * 65)  # B as an empty 65-d array
    return b""


def _nan_first_weight(secs):
    n_widths = struct.unpack_from("<I", secs[1])[0]
    struct.pack_into("<d", secs[1], 4 + 4 * n_widths + 12, np.nan)  # after W0's ndim and shape
    return b""


def _nan_first_b(secs):
    struct.pack_into("<d", secs[0], 12, np.nan)  # after B's ndim and shape
    return b""


def _one_width(secs):
    struct.pack_into("<I", secs[1], 0, 1)  # the stored count of layer widths
    return b""


def _scale_first_b(secs):
    (b00,) = struct.unpack_from("<d", secs[0], 12)
    struct.pack_into("<d", secs[0], 12, 2.0 * b00)  # finite, but B is no longer orthogonal
    return b""


def _set_statistic(at: int, value: float):
    # the statistics section at k = 2: a flag byte, then the mean and the std,
    # each an ndim, a shape and two doubles (25 bytes after the flag's offset 1)
    def edit(secs):
        struct.pack_into("<d", secs[2], at, value)
        return b""
    return edit


@pytest.mark.parametrize("edit, message", [
    (_swap_first_weight_dims, r"network parameter 0 has shape \(\d+, \d+\), the layer widths"),
    (_grow_section, r"1 bytes after the last field of the statistics section"),
    (lambda secs: b"\x00", r"1 bytes after the last field of the file"),
    (_many_dims, r"an array with 65 dimensions"),
    (_nan_first_weight, r"network parameter 0 holds non-finite values"),
    (_nan_first_b, r"B holds non-finite values"),
    (_one_width, r"1 layer widths stored, need at least 2"),
    (_scale_first_b, r"inconsistent model file: B is not orthogonal"),
    (_set_statistic(9, np.inf), r"inconsistent model file: repr_mean must hold 2 finite values"),
    (_set_statistic(33, np.nan), r"inconsistent model file: repr_std must hold 2 finite values"),
    (_set_statistic(33, 0.0), r"inconsistent model file: repr_std entries must be positive"),
], ids=["weight_shape", "section_tail", "file_tail", "many_dims", "nan_weight", "nan_b",
        "one_width", "b_not_orthogonal", "inf_mean", "nan_std", "zero_std"])
def test_malformed_layout_detected(tmp_path, edit, message):
    model, _ = _trained_model()
    path = tmp_path / "m.preb"
    save_model(model, path)
    raw = path.read_bytes()
    assert _rewrite(raw, lambda secs: b"") == raw
    path.write_bytes(_rewrite(raw, edit))
    with pytest.raises(ModelFileError, match=message):
        load_model(path)


@pytest.mark.parametrize("damage, message", [
    (lambda raw: raw[:9], "file shorter than header"),
    (lambda raw: b"PRE?" + raw[4:], r"not a model file \(bad magic\)"),
    (lambda raw: _with_crc(raw[:4] + struct.pack("<H", 3) + raw[6:-4]),
     "format version 3, expected 1 or 2"),
    (lambda raw: raw[:-5] + bytes([raw[-5] ^ 0x01]) + raw[-4:], "CRC32 mismatch"),
    (lambda raw: _with_crc(raw[: len(raw) // 2]), "model file ended mid-section"),
], ids=["short", "magic", "version", "crc", "mid_section"])
def test_each_reader_check_names_itself(tmp_path, damage, message):
    model, _ = _trained_model()
    path = tmp_path / "m.preb"
    save_model(model, path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ModelFileError, match=message):
        load_model(path)


def test_saved_model_holds_three_sections(tmp_path):
    # B, the network and the statistics: nothing of the k-means partition
    model, _ = _trained_model()
    path = tmp_path / "m.preb"
    save_model(model, path)
    raw = path.read_bytes()
    assert struct.unpack_from("<H", raw, 4)[0] == 2
    assert len(_sections(raw)) == 3


@pytest.mark.parametrize("bad", ["scaled", "nan"])
def test_b_must_be_orthogonal(bad):
    model, _ = _untrained_model()
    b = model.b_matrix.copy()
    b[0, 0] = 2.0 * b[0, 0] if bad == "scaled" else np.nan
    with pytest.raises(ValueError, match="not orthogonal"):
        EbmModel(net=model.net, b_matrix=b)


def test_b_as_nested_list():
    model = EbmModel(Mlp([2, 1]), [[1.0]])
    assert isinstance(model.b_matrix, np.ndarray) and model.b_matrix.tolist() == [[1.0]]


@pytest.mark.parametrize("b", [[1.0], [[1.0, 0.0], [1.0]], [["a"]]],
                         ids=["1-D", "ragged", "non-numeric"])
def test_b_not_a_matrix_rejected(b):
    with pytest.raises(DimensionError, match=r"^B "):
        EbmModel(Mlp([2, 1]), b)


# written by the format-1 save_model from _trained_model(): five sections, the
# partition, B, the network, the statistics and the shape section (d, k, a
# retired field and a CRC32 of B)
_V1 = Path(__file__).parent / "data" / "model_v1.preb"


def _same_model(a, b) -> None:
    for got, want in [(a.net.flat, b.net.flat), (a.b_matrix, b.b_matrix),
                      (a.repr_mean, b.repr_mean), (a.repr_std, b.repr_std)]:
        assert np.array_equal(got, want)


def test_v1_file_loads(tmp_path):
    raw = _V1.read_bytes()
    secs = _sections(raw)
    assert struct.unpack_from("<H", raw, 4)[0] == 1 and len(secs) == 5
    old = load_model(_V1)
    path = tmp_path / "m.preb"
    save_model(old, path)
    # the re-save is the old file without its first and last sections
    assert path.read_bytes() == _with_crc(raw[:4] + struct.pack("<H", 2) + b"".join(
        struct.pack("<I", len(s)) + bytes(s) for s in secs[1:4]))
    _same_model(load_model(path), old)


def _parent_era_field(secs):
    # format-1 files written before the field was retired carry a corruption
    # hash there (83871335 at rho=0.5, b=5, d=20)
    struct.pack_into("<I", secs[4], 8, 83871335)  # after d and k
    return b""


def test_retired_field_ignored(tmp_path):
    raw = _V1.read_bytes()
    assert struct.unpack_from("<I", raw, len(raw) - 16)[0] == 0
    old = _rewrite(raw, _parent_era_field)
    assert old != raw
    path = tmp_path / "m.preb"
    path.write_bytes(old)
    _same_model(load_model(path), load_model(_V1))
