import dataclasses
import tracemalloc

import numpy as np
import pytest

from cate_ebm import (
    BaseSpec,
    Dataset,
    KernelRidge,
    Ridge,
    TrainConfig,
    ae_fit,
    dr_pseudo_outcome,
    fit_learner,
    fit_learners,
    make_rng,
    median_gamma,
    pca_fit,
    propensity_fit,
)
from cate_ebm import cate, numerics
from cate_ebm.errors import (
    ConfigError,
    DatasetError,
    DegenerateColumnError,
    DimensionError,
    IllConditionedError,
    TooFewSamplesError,
    TrainingDivergedError,
)


def _linear_effect_data(n=400, d=3, seed=0, noise=0.0):
    """Linear potential outcomes with a known effect surface."""
    rng = make_rng(seed)
    x = rng.standard_normal((n, d))
    w0 = np.array([1.0, -2.0, 0.5])[:d]
    w1 = np.array([2.0, -1.0, 1.5])[:d]
    mu0 = x @ w0 + 0.3
    mu1 = x @ w1 - 0.2
    a = (rng.random(n) < 0.5).astype(int)
    y = a * mu1 + (1 - a) * mu0 + noise * rng.standard_normal(n)
    tau = mu1 - mu0
    return Dataset(x=x, a=a, y=y), tau


def _overflowed_gram_data():
    """Covariates whose first column is so large that x^T x overflows to inf."""
    x = make_rng(0).standard_normal((60, 3))
    x[:, 0] *= 1e200
    a = np.arange(60) % 2
    return x, a, x[:, 1] + a


class TestRidge:
    def test_matches_normal_equations(self):
        rng = make_rng(1)
        x = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        lam = 0.3
        model = Ridge(lam).fit(x, y)
        xa = np.hstack([x, np.ones((30, 1))])
        w_ref = np.linalg.solve(xa.T @ xa + lam * np.eye(5), xa.T @ y)
        assert np.abs(model.w - w_ref).max() < 1e-10

    def test_recovers_linear_function(self):
        rng = make_rng(2)
        x = rng.standard_normal((200, 3))
        y = x @ np.array([1.0, 2.0, -1.0]) + 4.0
        pred = Ridge(1e-8).fit(x, y).predict(x)
        assert np.abs(pred - y).max() < 1e-5

    def test_bad_lam(self):
        with pytest.raises(ValueError):
            Ridge(0.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("make", [Ridge, lambda lam: KernelRidge(lam, 1.0)],
                             ids=["Ridge", "KernelRidge"])
    def test_lam_takes_base_spec_rule(self, make, lam):
        # NaN compares false with everything: `lam <= 0` alone lets it reach the solve
        with pytest.raises(ConfigError, match="lam must be finite and > 0"):
            make(lam)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the Gram matrix overflows
    def test_overflowed_gram_is_ill_conditioned(self):
        # the Cholesky factor of the inf Gram matrix used to zero that column's weight
        x, _, y = _overflowed_gram_data()
        with pytest.raises(IllConditionedError, match="non-finite"):
            Ridge(1e-2).fit(x, y)


class TestWeightedFits:
    """Sample weights w: the fit minimizes sum_i w_i (y_i - f(x_i))^2 + lam |f|^2."""

    @staticmethod
    def _data(n=40):
        rng = make_rng(21)
        x, y = rng.standard_normal((n, 3)), rng.standard_normal(n)
        w = rng.uniform(0.0, 2.0, n)
        w[[3, 17]] = 0.0  # rows that do not count at all
        return x, y, w

    def test_ridge_matches_weighted_normal_equations(self):
        x, y, w = self._data()
        xa = np.hstack([x, np.ones((40, 1))])
        ref = np.linalg.solve(xa.T @ np.diag(w) @ xa + 0.3 * np.eye(4), xa.T @ (w * y))
        got = Ridge(0.3).fit(x, y, weights=w).w
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_kernel_matches_weighted_normal_equations(self):
        # the gradient of the objective in alpha vanishes where (W K + lam I) alpha = W y
        x, y, w = self._data()
        k = np.exp(-0.7 * ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        ref = np.linalg.solve(w[:, None] * k + 0.1 * np.eye(40), w * y)
        got = KernelRidge(0.1, 0.7).fit(x, y, weights=w).alpha
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.all(got[[3, 17]] == 0.0)

    def test_unweighted_fits_unchanged(self):
        # weights=None is the unweighted fit's exact arithmetic, bit for bit
        x, y, _ = self._data()
        xa = cate._augment(x)
        ridge = cate._chol_solve(cate._add_diag(xa.T @ xa, 0.3), xa.T @ y)
        kernel = cate._chol_solve(cate._add_diag(cate._rbf_kernel(x, x, 0.7), 0.1), y)
        assert np.array_equal(Ridge(0.3).fit(x, y).w, ridge)
        assert np.array_equal(KernelRidge(0.1, 0.7).fit(x, y).alpha, kernel)

    @pytest.mark.parametrize("model", [Ridge(0.3), KernelRidge(0.1, 0.7)], ids=["ridge", "kernel"])
    def test_unit_weights_are_the_unweighted_fit(self, model):
        x, y, _ = self._data()
        ref = model.fit(x, y).predict(x)
        got = model.fit(x, y, weights=np.ones(40)).predict(x)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestKernelRidge:
    @pytest.mark.parametrize("gamma", [np.nan, -1.0, np.inf])
    def test_gamma_takes_lam_rule(self, gamma):
        # each used to reach the solve and exit 3 as a numeric failure
        with pytest.raises(ConfigError, match="gamma must be finite and > 0") as exc:
            KernelRidge(0.1, gamma)
        assert exc.value.exit_code == 2

    def test_interpolates_with_tiny_lam(self):
        rng = make_rng(3)
        x = rng.standard_normal((40, 2))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2
        model = KernelRidge(1e-10, gamma=1.0).fit(x, y)
        assert np.abs(model.predict(x) - y).max() < 1e-5

    def test_matches_direct_solve(self):
        rng = make_rng(4)
        x = rng.standard_normal((25, 2))
        y = rng.standard_normal(25)
        gamma, lam = 0.7, 0.1
        model = KernelRidge(lam, gamma).fit(x, y)
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        k = np.exp(-gamma * d2)
        alpha_ref = np.linalg.solve(k + lam * np.eye(25), y)
        assert np.abs(model.alpha - alpha_ref).max() < 1e-8


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
def test_chol_solve_matches_general_solve(blocks, extra):
    # sizes on both sides of a substitution block boundary, and several blocks
    n = blocks * cate._SOLVE_BLOCK + extra
    rng = make_rng(19)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)
    ref = np.linalg.solve(a, b)
    assert np.linalg.norm(cate._chol_solve(a, b) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_median_gamma_hand_computed():
    x = np.array([[0.0], [1.0], [3.0]])
    # pairwise squared distances: 1, 9, 4 -> median 4
    assert abs(median_gamma(x) - 0.25) < 1e-12


def _one_line_median_gamma(x):
    """The median heuristic from one-buffer distances and a boolean upper-triangle
    mask, without the subsample."""
    d2 = -2.0 * (x @ x.T) + np.add.outer(np.sum(x * x, axis=1), np.sum(x * x, axis=1))
    return 1.0 / max(np.median(d2[np.triu(np.ones(d2.shape, dtype=bool), k=1)]), 1e-12)


@pytest.mark.parametrize("block", [7, None])
@pytest.mark.parametrize("n", [2, 3, 10, 257])
def test_median_gamma_matches_one_line_form(monkeypatch, block, n):
    if block is not None:
        monkeypatch.setattr(numerics, "_DIST_BLOCK", block)
    x = make_rng(n).standard_normal((n, 4)) * 10.0 ** make_rng(n + 1).uniform(-3, 3, size=4)
    x[n // 2] = x[0]  # one zero distance, as with duplicate rows
    assert median_gamma(x) == _one_line_median_gamma(x)


def test_median_gamma_subsamples_above_the_cap():
    # above 2,000 rows the heuristic reads a fixed subsample of them
    n = 2001
    x = make_rng(n).standard_normal((n, 4))
    kept = x[np.sort(make_rng(0).choice(n, 2000, replace=False))]
    assert median_gamma(x) == _one_line_median_gamma(kept)
    assert median_gamma(x) != _one_line_median_gamma(x)


def test_median_gamma_of_identical_rows_is_floored():
    assert median_gamma(np.ones((5, 3))) == 1e12


@pytest.mark.parametrize("n", [0, 1])
def test_median_gamma_needs_two_rows(n):
    with pytest.raises(TooFewSamplesError, match=">= 2 rows"):
        median_gamma(np.zeros((n, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_median_gamma_of_non_finite_rows_is_ill_conditioned(bad):
    # such a row's distances are NaN, and a NaN median would pass for a kernel width
    with pytest.raises(IllConditionedError, match="non-finite"):
        median_gamma(np.array([[bad], [1.0], [2.0]]))


def test_kernel_arm_of_one_row_raises():
    # one treated row: the arm's median heuristic has no pair of rows
    x = make_rng(11).standard_normal((60, 5))
    a = np.zeros(60, dtype=int)
    a[7] = 1
    with pytest.raises(TooFewSamplesError, match=">= 2 rows, got 1"):
        fit_learner("t", Dataset(x=x, a=a, y=x[:, 0]), BaseSpec())


class TestDirectSolveInPlace:
    def test_kernel_fit_matches_identity_sum(self):
        x = make_rng(5).standard_normal((70, 3))
        y = make_rng(6).standard_normal(70)
        model = KernelRidge(0.1, 0.5).fit(x, y)
        k = cate._rbf_kernel(x, x, 0.5)
        assert np.array_equal(model.alpha, cate._chol_solve(k + 0.1 * np.eye(70), y))

    def test_ridge_fit_matches_identity_sum(self):
        x = make_rng(7).standard_normal((50, 4))
        y = make_rng(8).standard_normal(50)
        xa = np.hstack([x, np.ones((50, 1))])
        w = cate._chol_solve(xa.T @ xa + 0.3 * np.eye(5), xa.T @ y)
        assert np.array_equal(Ridge(0.3).fit(x, y).w, w)

    def test_jitter_matches_identity_sum(self):
        # an indefinite matrix: the factorization first succeeds at jitter 1e-8
        m = make_rng(9).standard_normal((30, 10))
        a = m @ m.T - 1e-9 * np.eye(30)
        b = make_rng(10).standard_normal(30)
        c = np.linalg.cholesky(a + 1e-8 * np.eye(30))
        ref = cate._tri_solve(c.T, cate._tri_solve(c, b, lower=True), lower=False)
        assert np.array_equal(cate._chol_solve(a.copy(), b), ref)


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    """Kernel builds hold the result plus one row block of sq_dists' norm sums
    (at most 512 KB), never a second buffer of the result's size."""

    SLACK = 1 << 20  # one block, the row norms and the interpreter's own churn

    def test_sq_dists_holds_no_second_result_buffer(self):
        rng = make_rng(0)
        xa, xb = rng.standard_normal((2000, 20)), rng.standard_normal((500, 20))
        d2, peak = _traced_peak(numerics.sq_dists, xa, xb)
        assert peak < d2.nbytes + self.SLACK  # 8 MB; a second buffer would make 16

    def test_median_gamma_holds_distances_and_triangle_only(self):
        n = 1000
        x = make_rng(1).standard_normal((n, 5))
        _, peak = _traced_peak(median_gamma, x)
        # 8 MB of distances and the 4 MB triangle; a second n-by-n buffer would make 16
        assert peak < n * n * 8 + n * (n - 1) // 2 * 8 + self.SLACK

    def test_direct_kernel_fit_holds_kernel_and_factor_only(self):
        n = 1000
        x = make_rng(2).standard_normal((n, 5))
        y = make_rng(3).standard_normal(n)
        _, peak = _traced_peak(KernelRidge(0.1, 0.2).fit, x, y)
        # the 8 MB kernel and its 8 MB Cholesky factor; identity sums would add 16 more
        assert peak < 2 * n * n * 8 + self.SLACK


class TestPropensity:
    def test_tracks_true_probabilities(self):
        rng = make_rng(5)
        n = 4000
        x = rng.standard_normal((n, 2))
        z = 1.5 * x[:, 0] - 0.5
        p_true = 1.0 / (1.0 + np.exp(-z))
        a = (rng.random(n) < p_true).astype(int)
        p_hat = propensity_fit(x, a).predict_proba(x)
        mask = (p_true > 0.05) & (p_true < 0.95)
        assert np.abs(p_hat[mask] - p_true[mask]).mean() < 0.03

    def test_predictions_clipped(self):
        rng = make_rng(6)
        x = rng.standard_normal((100, 1)) * 10
        a = (x[:, 0] > 0).astype(int)
        p = propensity_fit(x, a).predict_proba(x)
        assert p.min() >= 0.01 and p.max() <= 0.99

    def test_single_class_rejected(self):
        with pytest.raises(TooFewSamplesError):
            propensity_fit(np.zeros((10, 1)), np.ones(10))

    @pytest.mark.parametrize("a", [np.arange(9) % 2, (np.arange(10) % 2)[:, None]])
    def test_treatment_of_another_shape_rejected(self, a):
        with pytest.raises(DimensionError, match=r"is not an \(n,\) vector with n=10$"):
            propensity_fit(make_rng(0).standard_normal((10, 2)), a)

    @pytest.mark.parametrize("bad", [2.0, 0.5, np.nan])
    def test_treatment_other_than_0_or_1_rejected(self, bad):
        a = (np.arange(10) % 2).astype(float)
        a[3] = bad
        with pytest.raises(DatasetError, match="treatment vector must hold only 0 and 1"):
            propensity_fit(make_rng(0).standard_normal((10, 2)), a)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the Hessian overflows
    def test_overflowed_hessian_is_ill_conditioned(self):
        x, a, _ = _overflowed_gram_data()
        with pytest.raises(IllConditionedError, match="non-finite"):
            propensity_fit(x, a)

    def test_records_convergence(self):
        rng = make_rng(5)
        x = rng.standard_normal((400, 2))
        a = (rng.random(400) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(int)
        model = propensity_fit(x, a)
        assert model.converged and model.n_iter == 4

    def test_records_hitting_max_iter(self):
        # separable arms 1e4 apart: the gradient norm never falls below tol
        x = make_rng(6).standard_normal((100, 2)) * 1e4
        model = propensity_fit(x, (x[:, 0] > 0).astype(int))
        assert not model.converged and model.n_iter == model.max_iter == 100
        assert np.isfinite(model.w).all()


class TestMetaLearners:
    SPEC = BaseSpec(kind="ridge", lam=1e-6, cv=False)

    def test_t_learner_exact_on_linear_noiseless(self):
        ds, tau = _linear_effect_data()
        model = fit_learner("t", ds, self.SPEC)
        assert np.abs(model.predict(ds.x) - tau).max() < 1e-3

    def test_x_learner_exact_on_linear_noiseless(self):
        ds, tau = _linear_effect_data(seed=1)
        model = fit_learner("x", ds, self.SPEC)
        assert np.abs(model.predict(ds.x) - tau).max() < 1e-3

    def test_dr_learner_close_on_linear(self):
        ds, tau = _linear_effect_data(n=1200, seed=2, noise=0.1)
        model = fit_learner("dr", ds, self.SPEC, split_seed=0)
        err = np.sqrt(np.mean((model.predict(ds.x) - tau) ** 2))
        assert err < 0.25

    def test_r_learner_recovers_constant_effect(self):
        rng = make_rng(7)
        n = 800
        x = rng.standard_normal((n, 2))
        e = 1.0 / (1.0 + np.exp(-x[:, 0]))
        a = (rng.random(n) < e).astype(int)
        c = 2.0
        m = np.sin(x[:, 1])
        y = m + (a - e) * c + 0.05 * rng.standard_normal(n)
        ds = Dataset(x=x, a=a, y=y)
        model = fit_learner("r", ds, BaseSpec(kind="kernel", lam=1e-2, cv=False))
        assert abs(model.predict(x).mean() - c) < 0.3

    @pytest.mark.parametrize("kind", ["ridge", "kernel"])
    @pytest.mark.parametrize("cv", [True, False])
    def test_r_learner_matches_reference_closure(self, kind, cv):
        ds, _ = _linear_effect_data(n=150, seed=19, noise=0.1)
        spec = BaseSpec(kind=kind, cv=cv)
        x_new = make_rng(20).standard_normal((40, 3))
        model = fit_learner("r", ds, spec)
        assert isinstance(model._predict.__self__, Ridge if kind == "ridge" else KernelRidge)
        assert np.array_equal(model.predict(x_new), _reference_r_predict(ds, spec, x_new))
        assert np.array_equal(model.predict(ds.x), _reference_r_predict(ds, spec, ds.x))

    @pytest.mark.parametrize("kind", ["ridge", "kernel"])
    @pytest.mark.parametrize("cv", [True, False])
    @pytest.mark.parametrize("n", [150, 300])
    def test_r_learner_matches_lu_closure(self, kind, cv, n):
        # the unscaled system diag(a_res^2) K + lam I, solved by LU, has the same solution
        ds, _ = _linear_effect_data(n=n, seed=19, noise=0.1)
        spec = BaseSpec(kind=kind, cv=cv)
        model = fit_learner("r", ds, spec)
        for x in (make_rng(20).standard_normal((40, 3)), ds.x):
            ref = _lu_reference_r_predict(ds, spec, x)
            assert np.linalg.norm(model.predict(x) - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_dr_pseudo_outcome_hand_formula(self):
        ds, _ = _linear_effect_data(n=10, seed=3)
        mu0 = np.full(10, 0.5)
        mu1 = np.full(10, 1.5)
        pi = np.full(10, 0.4)
        phi = dr_pseudo_outcome(ds.a, ds.y, mu0, mu1, pi)
        a = ds.a.astype(float)
        expected = (a / 0.4 * (ds.y - 1.5) + 1.5
                    - (1 - a) / 0.6 * (ds.y - 0.5) - 0.5)
        assert np.abs(phi - expected).max() < 1e-12

    def test_dr_pseudo_outcome_unbiased_with_oracle_nuisances(self):
        from cate_ebm import gen_dgp, sample
        dgp = gen_dgp(2, d=6)
        ds = sample(dgp, 50_000, 3)
        phi = dr_pseudo_outcome(ds.a, ds.y, ds.mu0, ds.mu1, ds.pi)
        # with true nuisances, phi is centered at the true effect
        se = (phi - ds.tau).std() / np.sqrt(ds.n)
        assert abs((phi - ds.tau).mean()) < 4 * se + 0.01

    def test_dr_small_n_rejected(self):
        ds, _ = _linear_effect_data(n=20)
        with pytest.raises(TooFewSamplesError):
            fit_learner("dr", ds, self.SPEC)

    def test_fit_learner_dispatch_and_unknown(self):
        ds, _ = _linear_effect_data(seed=4)
        assert fit_learner("t", ds, self.SPEC).kind == "t"
        with pytest.raises(ValueError):
            fit_learner("s", ds, self.SPEC)

    def test_predict_dimension_guard(self):
        ds, _ = _linear_effect_data(seed=5)
        model = fit_learner("t", ds, self.SPEC)
        with pytest.raises(DimensionError):
            model.predict(np.zeros((4, ds.d + 1)))

    def test_single_arm_rejected(self):
        ds, _ = _linear_effect_data(seed=6)
        ds.a[:] = 1
        with pytest.raises(TooFewSamplesError):
            fit_learner("t", ds, self.SPEC)


def _r_stage_one(ds, spec):
    """m_hat and the R-learner's outcome and treatment residuals."""
    m_hat = cate.fit_base(ds.x, ds.y, spec)
    prop = propensity_fit(ds.x, ds.a)
    return m_hat, ds.y - m_hat.predict(ds.x), ds.a.astype(float) - prop.predict_proba(ds.x)


def _reference_r_predict(ds, spec, x_new):
    """The R-learner's effect stage written out: targets y_res / a_res with
    weights w = a_res^2 at m_hat's lam (and gamma), each solved as an SPD
    system; the kernel's is (S K S + lam I) beta = S y with S = diag(sqrt(w))."""
    m_hat, y_res, a_res = _r_stage_one(ds, spec)
    t, w = y_res / a_res, a_res**2
    x_new = np.asarray(x_new, dtype=float)
    if spec.kind == "ridge":
        xa = cate._augment(ds.x)
        xw = xa * w[:, None]
        coef = cate._chol_solve(xw.T @ xa + m_hat.lam * np.eye(xa.shape[1]), xw.T @ t)
        return cate._augment(x_new) @ coef
    s = np.sqrt(w)
    sks = cate._rbf_kernel(ds.x, ds.x, m_hat.gamma) * s[:, None] * s
    beta = cate._chol_solve(sks + m_hat.lam * np.eye(ds.n), s * t)
    return cate._rbf_kernel(x_new, ds.x, m_hat.gamma) @ (s * beta)


def _lu_reference_r_predict(ds, spec, x_new):
    """The R-learner's effect stage as first written: ridge normal equations
    with a_res * y_res on the right, and the kernel's non-symmetric
    diag(a_res^2) K + lam I solved by LU."""
    m_hat, y_res, a_res = _r_stage_one(ds, spec)
    x_new = np.asarray(x_new, dtype=float)
    if spec.kind == "ridge":
        xa = cate._augment(ds.x)
        a2 = a_res * a_res
        lhs = (xa * a2[:, None]).T @ xa + m_hat.lam * np.eye(xa.shape[1])
        w = cate._chol_solve(lhs, xa.T @ (a_res * y_res))
        return cate._augment(x_new) @ w
    lhs = cate._rbf_kernel(ds.x, ds.x, m_hat.gamma)
    lhs *= (a_res * a_res)[:, None]
    lhs.flat[:: ds.n + 1] += m_hat.lam
    alpha = np.linalg.solve(lhs, a_res * y_res)
    return cate._rbf_kernel(x_new, ds.x, m_hat.gamma) @ alpha


class TestBaseSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(kind="lasso"), dict(lam=0.0), dict(lam=-1.0), dict(lam=np.nan), dict(lam=np.inf),
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            BaseSpec(**kwargs)


class TestCvSelection:
    def test_cv_picks_reasonable_lam_under_noise(self, monkeypatch):
        from cate_ebm.cate import fit_base
        rng = make_rng(8)
        x = rng.standard_normal((150, 2))
        y = x @ np.array([1.0, -1.0]) + rng.standard_normal(150)
        monkeypatch.setattr(cate, "LAM_GRID", (1e-8, 1e-2, 1.0))
        model = fit_base(x, y, BaseSpec(kind="ridge", cv=True))
        assert model.lam > 1e-8  # the interpolating choice loses under noise

    def test_cv_deterministic(self):
        from cate_ebm.cate import fit_base
        x, y = _sine_data()
        spec = BaseSpec(kind="kernel", cv=True)
        m1 = fit_base(x, y, spec)
        m2 = fit_base(x, y, spec)
        assert m1.lam == m2.lam and m1.gamma == m2.gamma
        assert np.array_equal(m1.alpha, m2.alpha)

    @pytest.mark.parametrize("cv", [True, False])
    def test_ridge_skips_median_gamma(self, monkeypatch, cv):

        def forbidden(x):
            raise AssertionError("median_gamma called for a ridge base")

        monkeypatch.setattr(cate, "median_gamma", forbidden)
        rng = make_rng(10)
        x = rng.standard_normal((60, 2))
        model = cate.fit_base(x, x @ np.array([1.0, 2.0]), BaseSpec(kind="ridge", cv=cv))
        assert isinstance(model, Ridge)

    @pytest.mark.parametrize("kind, cv_step, calls_at_ten", [
        ("ridge", "_ridge_cv_sse", len(cate.LAM_GRID)), ("kernel", "_kernel_cv", 1)])
    def test_cv_below_two_rows_per_fold_is_the_direct_fit(self, monkeypatch, kind, cv_step,
                                                          calls_at_ten):
        calls = _count_calls(monkeypatch, cate, cv_step)
        x, y = _sine_data(n=2 * cate.CV_FOLDS - 1)
        direct = cate.fit_base(x, y, BaseSpec(kind=kind, cv=False))
        model = cate.fit_base(x, y, BaseSpec(kind=kind, cv=True))
        assert calls == [] and model.lam == 0.01
        if kind == "ridge":
            assert np.array_equal(model.w, direct.w)
        else:
            assert model.gamma == direct.gamma == median_gamma(x)
            assert np.array_equal(model.alpha, direct.alpha)
        x, y = _sine_data(n=2 * cate.CV_FOLDS)
        cate.fit_base(x, y, BaseSpec(kind=kind, cv=True))
        assert len(calls) == calls_at_ten

    @pytest.mark.parametrize("kind", ["ridge", "kernel"])
    def test_no_finite_cv_score_is_ill_conditioned(self, kind):
        from cate_ebm.cate import fit_base
        x = make_rng(11).standard_normal((60, 2))
        y = x @ np.array([1.0, 2.0])
        y[7] = np.nan
        with pytest.raises(IllConditionedError):
            fit_base(x, y, BaseSpec(kind=kind, cv=True))

    @pytest.mark.parametrize("kind", ["ridge", "kernel"])
    @pytest.mark.parametrize("cv, n", [(False, 60), (True, 6)])
    @pytest.mark.parametrize("where", ["x", "y"])
    def test_non_finite_input_without_cv_is_ill_conditioned(self, kind, cv, n, where):
        # CV off, or too few rows for CV: the fit runs once and used to
        # return all-NaN predictions without an error
        from cate_ebm.cate import fit_base
        x = make_rng(11).standard_normal((n, 2))
        y = x @ np.array([1.0, 2.0])
        if where == "x":
            x[3, 0] = np.nan
        else:
            y[3] = np.nan
        with pytest.raises(IllConditionedError):
            fit_base(x, y, BaseSpec(kind=kind, cv=cv))


def _sine_data(n=80, seed=9):
    rng = make_rng(seed)
    x = rng.standard_normal((n, 2))
    return x, np.sin(x[:, 0]) + 0.3 * rng.standard_normal(n)


def _cv_problems():
    ds, _ = _linear_effect_data(n=200, seed=0, noise=0.1)
    treated = ds.a == 1
    wide = make_rng(15).standard_normal((150, 6))
    return {
        "linear_all_rows": (ds.x, ds.y),
        "linear_treated_arm": (ds.x[treated], ds.y[treated]),
        "sine": _sine_data(),
        "wide": (wide, np.tanh(wide[:, 0] * wide[:, 1]) + 0.1 * wide[:, 2]),
    }


class TestClosedFormKernelCv:
    @pytest.mark.parametrize("name", sorted(_cv_problems()))
    def test_matches_per_fold_refits(self, name):
        x, y = _cv_problems()[name]
        spec = BaseSpec(kind="kernel", cv=True)
        g0 = median_gamma(x)
        gammas = [g0 * m for m in cate.GAMMA_MULTS]
        members = cate._cv_folds(x.shape[0])
        sse, _ = cate._kernel_cv(cate.KernelRows(x), y)

        refit = np.zeros_like(sse)
        for i, lam in enumerate(cate.LAM_GRID):
            for j, gamma in enumerate(gammas):
                for idx in members:
                    tr = np.ones(x.shape[0], dtype=bool)
                    tr[idx] = False
                    resid = KernelRidge(lam, gamma).fit(x[tr], y[tr]).predict(x[idx]) - y[idx]
                    refit[i, j] += resid @ resid
        assert np.all(np.abs(sse - refit) <= 1e-8 * refit)

        i, j = np.unravel_index(np.argmin(refit), refit.shape)
        model = cate.fit_base(x, y, spec)
        assert (model.lam, model.gamma) == (cate.LAM_GRID[i], gammas[j])
        direct = KernelRidge(model.lam, model.gamma).fit(x, y).predict(x)
        assert np.abs(model.predict(x) - direct).max() <= 1e-8 * np.abs(direct).max()

    @pytest.mark.parametrize("lam", [1e-12, 1e-15])
    def test_singular_kernel_stays_finite(self, monkeypatch, lam):
        # a duplicated row with different targets makes K singular; its
        # computed eigenvalues reach -3e-15, below -lam at lam=1e-15
        x, y = _sine_data(n=40, seed=16)
        x[1] = x[0]
        monkeypatch.setattr(cate, "LAM_GRID", (lam,))
        sse, _ = cate._kernel_cv(cate.KernelRows(x), y)
        assert np.isfinite(sse).all()
        spec = BaseSpec(kind="kernel", cv=True)
        assert np.isfinite(cate.fit_base(x, y, spec).predict(x)).all()


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestSharedKernelRows:
    def test_x_learner_factors_each_arm_once(self, monkeypatch):
        ds, _ = _linear_effect_data(n=160, seed=17, noise=0.1)
        spec = BaseSpec(kind="kernel", cv=True)
        fit_base = cate.fit_base
        fits = []

        def recorded(x, y, spec_, rows=None):
            fits.append((x, y, fit_base(x, y, spec_, rows)))
            return fits[-1][2]

        monkeypatch.setattr(cate, "fit_base", recorded)
        eighs = _count_calls(monkeypatch, np.linalg, "eigh")
        gammas = _count_calls(monkeypatch, cate, "median_gamma")
        fit_learner("x", ds, spec)
        assert (len(eighs), len(gammas), len(fits)) == (6, 2, 4)

        # mu1, mu0, tau1, tau0 equal independent fits on the same inputs
        for x, y, model in fits:
            alone = fit_base(x, y, spec)
            assert (model.lam, model.gamma) == (alone.lam, alone.gamma)
            assert np.array_equal(model.alpha, alone.alpha)

    def test_r_learner_still_streams(self, monkeypatch):
        ds, _ = _linear_effect_data(n=120, seed=18, noise=0.1)
        eighs = _count_calls(monkeypatch, np.linalg, "eigh")
        fit_learner("r", ds, BaseSpec(kind="kernel", cv=True))
        assert len(eighs) == 3

    def test_rows_from_other_inputs_rejected(self):
        x, y = _sine_data()
        with pytest.raises(ValueError):
            cate.fit_base(x.copy(), y, BaseSpec(kind="kernel", cv=True), cate.KernelRows(x))


class TestFitLearners:
    SPEC = BaseSpec(kind="kernel", cv=True)

    @pytest.mark.parametrize("kinds", [("t",), ("x", "t"), ("dr", "r"), ("t", "x", "dr", "r"),
                                       ("x",), ("dr", "t"), ("t", "r"), ("x", "r")])
    def test_matches_fit_learner_per_kind(self, kinds):
        ds, _ = _linear_effect_data(n=160, seed=19, noise=0.1)
        x_new = make_rng(20).standard_normal((30, 3))
        models = fit_learners(kinds, ds, self.SPEC, split_seed=3)
        assert list(models) == list(kinds)
        for kind, model in models.items():
            want = fit_learner(kind, ds, self.SPEC, split_seed=3)
            assert model.kind == kind
            assert np.array_equal(model.predict(x_new), want.predict(x_new))

    @pytest.mark.parametrize("kinds, n_fits", [
        (("x", "r"), 1), (("t", "x", "dr", "r"), 2), (("t",), 0), (("dr",), 1)])
    def test_x_and_r_share_one_propensity_fit(self, monkeypatch, kinds, n_fits):
        # X and R read one model fitted on all rows; DR fits its own on its split
        fits = _count_calls(monkeypatch, cate, "propensity_fit")
        ds, _ = _linear_effect_data(n=160, seed=19, noise=0.1)
        fit_learners(kinds, ds, self.SPEC)
        assert len(fits) == n_fits
        shared = [x for x, _ in fits if x.shape[0] == ds.n]
        assert len(shared) == int(bool({"x", "r"} & set(kinds)))
        assert all(x is ds.x for x in shared)

    def test_arms_checked_before_any_fit(self, monkeypatch):
        fits = _count_calls(monkeypatch, cate, "fit_base")
        props = _count_calls(monkeypatch, cate, "propensity_fit")
        ds, _ = _linear_effect_data(seed=6)
        ds.a[:] = 0
        with pytest.raises(TooFewSamplesError, match="both treatment arms"):
            fit_learners(("r", "dr"), ds, self.SPEC)
        assert (fits, props) == ([], [])

    @pytest.mark.parametrize("kinds, keep, n_eigh", [
        (("t",), [False, False], 6), (("t", "x"), [True, True], 6), (("x",), [True, True], 6)])
    def test_t_shares_the_x_arms(self, monkeypatch, kinds, keep, n_eigh):
        # alone, T frees each basis once scored; beside X it costs no eigh
        made = []

        class Recorded(cate.KernelRows):
            def __init__(self, x, keep_bases=True):
                made.append(keep_bases)
                super().__init__(x, keep_bases)

        monkeypatch.setattr(cate, "KernelRows", Recorded)
        eighs = _count_calls(monkeypatch, np.linalg, "eigh")
        ds, _ = _linear_effect_data(n=160, seed=19, noise=0.1)
        fit_learners(kinds, ds, self.SPEC)
        assert (made, len(eighs)) == (keep, n_eigh)

    def test_unknown_kind_raises_before_any_fit(self, monkeypatch):
        fits = _count_calls(monkeypatch, cate, "fit_base")
        ds, _ = _linear_effect_data(seed=4)
        with pytest.raises(ValueError, match="unknown learner 's'"):
            fit_learners(("t", "x", "s"), ds, self.SPEC)
        assert fits == []

    def test_repeated_kind_raises(self):
        ds, _ = _linear_effect_data(seed=4)
        with pytest.raises(ConfigError, match="repeat a kind: t,t"):
            fit_learners(("t", "t"), ds, self.SPEC)


class TestReductionBaselines:
    def test_pca_recovers_dominant_axis(self):
        rng = make_rng(10)
        t = rng.standard_normal(500)
        direction = np.array([3.0, 4.0]) / 5.0
        x = t[:, None] * direction * 10.0 + 0.01 * rng.standard_normal((500, 2))
        proj = pca_fit(x, 1)
        axis = proj.net.params[0][:, 0]
        assert abs(abs(axis @ direction) - 1.0) < 1e-3

    def test_pca_transform_centered(self):
        x = make_rng(11).standard_normal((100, 4))
        z = pca_fit(x, 2).represent(x)
        assert z.shape == (100, 2)
        assert np.abs(z.mean(axis=0)).max() < 1e-10

    def test_pca_k_above_rank(self):
        # x = [t, 2t, -t] has rank 1: a second column would be round-off scaled to std 1
        t = make_rng(13).standard_normal(100)
        x = np.column_stack([t, 2.0 * t, -t])
        assert np.abs(pca_fit(x, 1).represent(x).std(axis=0) - 1.0).max() <= 1e-12
        with pytest.raises(DegenerateColumnError) as exc:
            pca_fit(x, 2)
        assert exc.value.column == 1

    def test_pca_k_too_large(self):
        with pytest.raises(DimensionError):
            pca_fit(np.zeros((10, 2)), 3)

    def test_ae_reduces_reconstruction_error(self):
        rng = make_rng(12)
        t = rng.standard_normal((300, 2))
        mix = rng.standard_normal((2, 6))
        x = t @ mix + 0.1 * rng.standard_normal((300, 6))
        enc = ae_fit(x, TrainConfig(k=2, hidden=(16,), epochs=60, seed=12), [12])[0]
        z = enc.net.forward(x)
        # encoder output must carry signal: correlate with the latent factors
        corr = np.corrcoef(np.hstack([z, t]).T)[:2, 2:]
        assert np.abs(corr).max() > 0.5

    def test_ae_standardized_output(self):
        x = make_rng(13).standard_normal((200, 5))
        enc = ae_fit(x, TrainConfig(k=2, hidden=(8,), epochs=20, seed=13), [13])[0]
        z = enc.represent(x)
        assert np.abs(z.mean(axis=0)).max() < 1e-8
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-8

    def test_ae_deterministic(self):
        x = make_rng(14).standard_normal((100, 4))
        cfg = TrainConfig(k=2, hidden=(20, 20), epochs=5, seed=7)
        z1 = ae_fit(x, cfg, [7])[0].represent(x)
        z2 = ae_fit(x, cfg, [7])[0].represent(x)
        assert np.array_equal(z1, z2)

    def test_ae_runs_match_separate_trainings(self):
        x = make_rng(15).standard_normal((120, 4))
        cfg = TrainConfig(k=2, hidden=(8,), epochs=30, patience=4, seed=15)
        together = ae_fit(x, cfg, [7, 8])[1]
        alone = ae_fit(x, cfg, [8])[0]
        assert np.array_equal(together.net.flat, alone.net.flat)
        assert np.array_equal(np.array(together.history), np.array(alone.history))
        assert np.array_equal(together.represent(x), alone.represent(x))

    def test_ae_early_stops_on_best_snapshot(self):
        """Patience stops the AE before the epoch cap, and retraining for
        exactly best_epoch + 1 epochs ends on the same encoder."""
        x = make_rng(16).standard_normal((120, 4))
        cfg = TrainConfig(k=2, hidden=(8,), epochs=200, patience=3, lr=3e-2, seed=16)
        stopped = ae_fit(x, cfg, [5])[0]
        assert len(stopped.history) == stopped.best_epoch + 1 + cfg.patience < cfg.epochs
        val = [row[2] for row in stopped.history]
        assert val[stopped.best_epoch] == min(val)
        again = ae_fit(x, dataclasses.replace(cfg, epochs=stopped.best_epoch + 1), [5])[0]
        assert again.best_epoch == stopped.best_epoch
        assert np.array_equal(stopped.net.flat, again.net.flat)
        assert np.array_equal(stopped.represent(x), again.represent(x))

    def test_ae_divergence_names_the_run(self):
        x = make_rng(17).standard_normal((100, 4))
        cfg = TrainConfig(k=2, hidden=(8,), epochs=5, lr=1e300, seed=17)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDivergedError, match=r"^run with init seed 3 diverged at epoch 0"):
            ae_fit(x, cfg, [3])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ae_overflow_is_divergence_not_a_warning(self):
        # the loss's finiteness check decides, also when warnings are errors
        x = make_rng(17).standard_normal((100, 4))
        with pytest.raises(TrainingDivergedError, match="diverged at epoch 0"):
            ae_fit(x, TrainConfig(k=3, lr=1e300, epochs=3), [1])
