import numpy as np
import pytest

from cate_ebm import (
    BaseSpec,
    Dataset,
    TrainConfig,
    ae_fit,
    effect_predictions,
    fit_learner,
    gen_dgp,
    make_rng,
    mcc,
    pca_fit,
    pehe,
    random_orthogonal,
    sample,
    train_ebm,
    train_ebms,
    write_table,
)
from cate_ebm.errors import (DegenerateColumnError, DimensionError, IllConditionedError,
                             TooFewSamplesError)


class TestPehe:
    def test_hand_value(self):
        # squared gaps 1, 4 -> mean 2.5
        assert pehe(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 2.5

    def test_zero_on_exact(self):
        t = make_rng(0).standard_normal(50)
        assert pehe(t, t) == 0.0

    def test_shape_guard(self):
        with pytest.raises(DimensionError):
            pehe(np.zeros(3), np.zeros(4))

    def test_empty_is_too_few(self):
        with pytest.raises(TooFewSamplesError):
            pehe([], [])

    @pytest.mark.parametrize("tau_hat, tau_true, match", [
        ([1, 2], [1, "a"], "not an array of numbers"),
        (np.zeros((3, 2)), np.zeros((3, 2)), r"is not an \(n,\) vector"),
    ], ids=["non-numeric", "matrices"])
    def test_not_effect_vectors_rejected(self, tau_hat, tau_true, match):
        with pytest.raises(DimensionError, match=match):
            pehe(tau_hat, tau_true)


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

    def test_vector_input_rejected(self):
        with pytest.raises(DimensionError, match=r"\(n, d\) matrix"):
            mcc(np.arange(5.0), np.arange(5.0))

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


class TestEffectPredictions:
    def test_matches_fit_learner_per_pair_and_kind(self):
        train = sample(gen_dgp(41, d=4), 60, 42)
        rng = make_rng(43)
        z = [(rng.standard_normal((60, k)), rng.standard_normal((25, k))) for k in (2, 3, 2)]
        features = {"raw": [z[0]], "ebm": z[1:]}
        kinds = ("t", "x", "dr", "r")
        spec = BaseSpec(kind="kernel", cv=True)
        preds = effect_predictions(features, train, kinds, spec, split_seed=5)
        assert list(preds) == ["raw", "ebm"]
        assert [len(runs) for runs in preds.values()] == [1, 2]
        for name, pairs in features.items():
            for (zt, zs), run in zip(pairs, preds[name]):
                assert list(run) == list(kinds)
                for kind in kinds:
                    want = fit_learner(kind, Dataset(x=zt, a=train.a, y=train.y), spec,
                                       split_seed=5)
                    assert np.array_equal(run[kind], want.predict(zs))


def _cross_run_std(train, test, encoders, learner, spec):
    """Criterion 7's spread: the std across runs of each test row's estimate."""
    reps = [(enc.represent(train.x), enc.represent(test.x)) for enc in encoders]
    runs = effect_predictions({"runs": reps}, train, (learner,), spec)["runs"]
    return np.stack([run[learner] for run in runs]).std(axis=0)


def _two_branch_std(train, test, reducer, learner, seeds, config, base_spec, b_matrix=None):
    """The experiment's loop written out per reducer, as a reference."""
    preds = []
    for seed in seeds:
        if reducer == "ebm":
            model = train_ebm(train.x, config, b_matrix=b_matrix, init_seed=seed)
            z_train, z_test = model.represent(train.x), model.represent(test.x)
        else:
            enc = ae_fit(train.x, config, [seed])[0]
            z_train, z_test = enc.represent(train.x), enc.represent(test.x)
        fitted = fit_learner(learner, Dataset(x=z_train, a=train.a, y=train.y), base_spec)
        preds.append(fitted.predict(z_test))
    return np.stack(preds).std(axis=0)


class TestCateStdExperiment:
    """The cross-run spread of criterion 7, reduced from effect_predictions."""

    @staticmethod
    def _data():
        dgp = gen_dgp(31, d=8)
        return sample(dgp, 200, 32), sample(dgp, 100, 33)

    def test_identical_seeds_zero_std(self):
        train, test = self._data()
        cfg = TrainConfig(k=2, b=2, epochs=5, hidden=(8,), seed=31)
        std = _cross_run_std(train, test, train_ebms(train.x, cfg, [5, 5]), "t",
                             BaseSpec(kind="ridge", cv=False))
        assert std.shape == (test.n,)
        assert std.mean() == 0.0

    def test_different_seeds_positive_std(self):
        train, test = self._data()
        cfg = TrainConfig(k=2, b=2, epochs=5, hidden=(8,), seed=31)
        std = _cross_run_std(train, test, ae_fit(train.x, cfg, [0, 1000]), "t",
                             BaseSpec(kind="ridge", cv=False))
        assert std.mean() > 0.0

    @pytest.mark.parametrize("reducer", ["ebm", "ae"])
    def test_matches_two_branch_loop(self, reducer):
        train, test = self._data()
        cfg = TrainConfig(k=2, b=2, epochs=5, hidden=(8,), seed=31)
        spec = BaseSpec(kind="ridge", cv=False)
        b = random_orthogonal(2, make_rng(42)) if reducer == "ebm" else None
        seeds = [0, 1000, 2000]
        encoders = (train_ebms(train.x, cfg, seeds, b_matrix=b) if reducer == "ebm"
                    else ae_fit(train.x, cfg, seeds))
        std = _cross_run_std(train, test, encoders, "r", spec)
        want = _two_branch_std(train, test, reducer, "r", seeds, cfg, spec, b)
        assert np.array_equal(std, want)
        assert std.mean() > 0.0


class TestEncoder:
    """Every reducer fits an Encoder, standardized on its training rows."""

    @staticmethod
    def _fit(reducer, x):
        cfg = TrainConfig(k=2, b=2, epochs=5, hidden=(8,), seed=3)
        if reducer == "ebm":
            return train_ebm(x, cfg)
        if reducer == "ae":
            return ae_fit(x, cfg, [4])[0]
        return pca_fit(x, 2)

    @pytest.mark.parametrize("reducer", ["ebm", "ae", "pca"])
    def test_standardized_on_training_rows(self, reducer):
        x = make_rng(5).standard_normal((120, 4)) * [1.0, 3.0, 0.5, 2.0] + 7.0
        z = self._fit(reducer, x).represent(x)
        assert np.abs(z.mean(axis=0)).max() <= 1e-8
        assert np.abs(z.std(axis=0) - 1.0).max() <= 1e-8

    @pytest.mark.parametrize("reducer", ["ebm", "ae", "pca"])
    def test_nonfinite_output_raises(self, reducer):
        x = make_rng(6).standard_normal((120, 4))
        enc = self._fit(reducer, x)
        enc.net.params[0][0, 0] = np.nan
        with pytest.raises(IllConditionedError):
            enc.represent(x)

    @pytest.mark.parametrize("reducer", ["ebm", "ae", "pca"])
    def test_vector_input_rejected(self, reducer):
        with pytest.raises(DimensionError, match=r"\(n, d\) matrix"):
            self._fit(reducer, make_rng(6).standard_normal(120))
