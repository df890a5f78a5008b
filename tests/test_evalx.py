import numpy as np
import pytest

from cate_ebm import (
    BaseSpec,
    TrainConfig,
    cate_std_experiment,
    gen_dgp,
    make_rng,
    mcc,
    pehe,
    sample,
    write_table,
)
from cate_ebm.errors import DegenerateColumnError, DimensionError, IllConditionedError


class TestPehe:
    def test_hand_value(self):
        # squared gaps 1, 4 -> mean 2.5
        assert pehe(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 2.5

    def test_root_variant(self):
        v = pehe(np.array([1.0, 0.0]), np.array([0.0, 2.0]), root=True)
        assert abs(v - np.sqrt(2.5)) < 1e-15

    def test_zero_on_exact(self):
        t = make_rng(0).standard_normal(50)
        assert pehe(t, t) == 0.0

    def test_shape_guard(self):
        with pytest.raises(DimensionError):
            pehe(np.zeros(3), np.zeros(4))


class TestMcc:
    def test_identical_is_one(self):
        r = make_rng(1).standard_normal((100, 3))
        assert abs(mcc(r, r) - 1.0) < 1e-12

    def test_negated_is_minus_one(self):
        r = make_rng(2).standard_normal((100, 3))
        assert abs(mcc(r, -r) + 1.0) < 1e-12

    def test_affine_rescale_is_one(self):
        r = make_rng(3).standard_normal((100, 2))
        assert abs(mcc(r, 3.0 * r + 7.0) - 1.0) < 1e-12

    def test_hand_computed_two_columns(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, -1.0], [3.0, -2.0]])
        b = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
        # col 0: identical (r=1); col 1: perfectly anti-aligned (r=-1)
        assert abs(mcc(a, b) - 0.0) < 1e-12

    def test_column_swap_lowers_score(self):
        rng = make_rng(4)
        r = rng.standard_normal((200, 2))
        swapped = r[:, ::-1]
        assert mcc(r, swapped) < mcc(r, r) - 0.1

    def test_independent_columns_near_zero(self):
        rng = make_rng(5)
        a = rng.standard_normal((5000, 3))
        b = rng.standard_normal((5000, 3))
        assert abs(mcc(a, b)) < 0.1

    def test_constant_column_rejected(self):
        a = np.ones((10, 2))
        with pytest.raises(DegenerateColumnError):
            mcc(a, a)

    def test_shape_guard(self):
        with pytest.raises(DimensionError):
            mcc(np.zeros((5, 2)), np.zeros((5, 3)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the std's squares overflow
    @pytest.mark.parametrize("scale", [1e300, 1e200, 1e160])
    def test_overflowing_column_rejected(self, scale):
        r = make_rng(6).standard_normal((50, 2))
        huge = r.copy()
        huge[:, 1] *= scale
        with pytest.raises(IllConditionedError, match="column 1"):
            mcc(huge, r)

    def test_nonfinite_column_rejected(self):
        r = make_rng(7).standard_normal((50, 2))
        bad = r.copy()
        bad[3, 0] = np.nan
        with pytest.raises(IllConditionedError, match="column 0"):
            mcc(r, bad)


class TestWriteTable:
    def test_content_and_determinism(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        header = ["name", "value"]
        rows = [["t", 1.25], ["r", 0.5]]
        write_table(p1, header, rows)
        write_table(p2, header, rows)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text() == "name,value\nt,1.25\nr,0.5\n"
        txt = (tmp_path / "a.txt").read_text()
        assert txt.splitlines()[0].split() == ["name", "value"]

    def test_float_precision(self, tmp_path):
        p = tmp_path / "c.csv"
        write_table(p, ["v"], [[1.0 / 3.0]])
        assert "0.3333333333" in p.read_text()


class TestCateStdExperiment:
    @staticmethod
    def _data():
        dgp = gen_dgp(31, d=8)
        return sample(dgp, 200, 32), sample(dgp, 100, 33)

    def test_identical_seeds_zero_std(self):
        train, test = self._data()
        cfg = TrainConfig(k=2, b=2, epochs=5, hidden=(8,), seed=31)
        std, mean_std = cate_std_experiment(
            train, test, "ebm", "t", runs=2, base_seed=0, config=cfg,
            base_spec=BaseSpec(kind="ridge", cv=False), seeds=[5, 5],
        )
        assert std.shape == (test.n,)
        assert mean_std == 0.0

    def test_different_seeds_positive_std(self):
        train, test = self._data()
        cfg = TrainConfig(k=2, b=2, epochs=5, hidden=(8,), seed=31)
        _, mean_std = cate_std_experiment(
            train, test, "ae", "t", runs=2, base_seed=0, config=cfg,
            base_spec=BaseSpec(kind="ridge", cv=False),
        )
        assert mean_std > 0.0

    def test_validation(self):
        train, test = self._data()
        cfg = TrainConfig(k=2, b=2, epochs=2, hidden=(8,), seed=31)
        with pytest.raises(ValueError):
            cate_std_experiment(train, test, "ebm", "t", runs=1,
                                base_seed=0, config=cfg)
        with pytest.raises(ValueError):
            cate_std_experiment(train, test, "umap", "t", runs=2,
                                base_seed=0, config=cfg)
        with pytest.raises(ValueError):
            cate_std_experiment(train, test, "ebm", "t", runs=3,
                                base_seed=0, config=cfg, seeds=[1, 2])
