"""Base regressors, a logistic propensity model and the four meta-learners.

Learners take a Dataset whose covariate matrix may be raw covariates or a
standardized representation; nothing here depends on which. Hyperparameters
of the base family can be chosen by 5-fold cross-validation on observed
outcomes only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dgp import Dataset, as_treatment
from .errors import (ConfigError, DimensionError, IllConditionedError, TooFewSamplesError,
                     UntrainedModelError)
from .numerics import as_matrix, as_vector, make_rng, sq_dists


# ---------------------------------------------------------------------------
# base regressors

# rows per substitution block; a system with at most this many unknowns (ridge
# and propensity at d < 64) is one block, i.e. a single np.linalg.solve
_SOLVE_BLOCK = 64


def _tri_solve(t, b, lower: bool):
    """Solve t z = b for triangular t by blocked substitution.

    Each diagonal block is solved with np.linalg.solve, after subtracting one
    matmul with the blocks already solved: O(n^2) per right-hand side, where
    one general solve on all of t costs an O(n^3) LU.
    """
    n = t.shape[0]
    z = np.empty(np.shape(b))
    blocks = [(s, min(s + _SOLVE_BLOCK, n)) for s in range(0, n, _SOLVE_BLOCK)]
    for s, e in blocks if lower else reversed(blocks):
        done = slice(0, s) if lower else slice(e, n)
        z[s:e] = np.linalg.solve(t[s:e, s:e], b[s:e] - t[s:e, done] @ z[done])
    return z


def _add_diag(a, v):
    """a += v * I in place, without building the n-by-n identity; returns a."""
    a.flat[:: a.shape[0] + 1] += v
    return a


def _chol_solve(a, b):
    """Solve a z = b for symmetric positive definite a through its Cholesky
    factor. While the factorization fails, it retries with a jitter of 1e-10,
    1e-8, ... on a's diagonal, written in place, so a may be left changed.
    A non-finite entry in a, b or the solution (an overflowed Gram matrix, say)
    raises IllConditionedError."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise IllConditionedError("non-finite value in a linear system")
    diag = a.diagonal().copy()
    jitter = 0.0
    for _ in range(6):
        try:
            c = np.linalg.cholesky(a)
            z = _tri_solve(c.T, _tri_solve(c, b, lower=True), lower=False)
            if not np.isfinite(z).all():
                raise IllConditionedError("non-finite solution of a linear system")
            return z
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 100.0
            a.flat[:: a.shape[0] + 1] = diag + jitter
    raise IllConditionedError("system stayed non-SPD after jitter")


def _augment(x):
    return np.hstack([x, np.ones((x.shape[0], 1))])


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_positive(value, name: str) -> float:
    """The one check of a ridge penalty (BaseSpec, Ridge, KernelRidge) and a
    kernel width (KernelRidge): value itself if finite and > 0, else ConfigError."""
    if not 0.0 < value < np.inf:
        raise ConfigError(f"{name} must be finite and > 0, got {value}")
    return value


class Ridge:
    """Linear ridge with an intercept column, solved by Cholesky. With sample
    weights w it minimizes sum_i w_i (y_i - f(x_i))^2 + lam |coef|^2."""

    def __init__(self, lam: float):
        self.lam = _check_positive(lam, "lam")
        self.w = None

    def fit(self, x, y, weights=None):
        xa = _augment(as_matrix(x))
        y = as_vector(y, "y", xa.shape[0])
        xw = xa if weights is None else xa * as_vector(weights, "weights", xa.shape[0])[:, None]
        self.w = _chol_solve(_add_diag(xw.T @ xa, self.lam), xw.T @ y)
        return self

    def predict(self, x):
        if self.w is None:
            raise UntrainedModelError("Ridge is not fitted")
        return _augment(as_matrix(x, d=self.w.size - 1)) @ self.w


def _rbf_kernel(xa, xb, gamma):
    k = sq_dists(xa, xb)
    k *= -gamma
    np.exp(k, out=k)
    return k


def median_gamma(x):
    """1 / median squared pairwise distance, on a subsample for large n; a
    non-finite entry in x raises IllConditionedError."""
    x = as_matrix(x)
    if x.shape[0] < 2:
        raise TooFewSamplesError(f"median heuristic needs >= 2 rows, got {x.shape[0]}")
    if not np.isfinite(x).all():
        raise IllConditionedError("non-finite value in the median heuristic's rows")
    cap = 2000  # rows kept: the distances take 32 MB
    if x.shape[0] > cap:
        idx = make_rng(0).choice(x.shape[0], size=cap, replace=False)
        x = x[np.sort(idx)]
    d2 = sq_dists(x, x)
    # the strict upper triangle, copied row by row; d2 is freed before the median
    upper = np.concatenate([row[i + 1 :] for i, row in enumerate(d2[:-1])])
    del d2
    return 1.0 / max(np.median(upper, overwrite_input=True), 1e-12)


class KernelRidge:
    """RBF kernel ridge; stores its training inputs for prediction. With
    sample weights w it minimizes sum_i w_i (y_i - f(x_i))^2 + lam |f|^2 by
    the SPD system (S K S + lam I) beta = S y, S = diag(sqrt(w)); alpha = S beta."""

    def __init__(self, lam: float, gamma: float):
        self.lam = _check_positive(lam, "lam")
        self.gamma = _check_positive(gamma, "gamma")
        self.x_train = None
        self.alpha = None

    def fit(self, x, y, weights=None):
        x = as_matrix(x)
        y = as_vector(y, "y", x.shape[0])
        k = _rbf_kernel(x, x, self.gamma)
        if weights is None:
            self.alpha = _chol_solve(_add_diag(k, self.lam), y)
        else:
            s = np.sqrt(as_vector(weights, "weights", x.shape[0]))
            k *= s[:, None]
            k *= s
            self.alpha = s * _chol_solve(_add_diag(k, self.lam), s * y)
        self.x_train = x
        return self

    def predict(self, x):
        if self.alpha is None:
            raise UntrainedModelError("KernelRidge is not fitted")
        k = _rbf_kernel(as_matrix(x, d=self.x_train.shape[1]), self.x_train, self.gamma)
        return k @ self.alpha


# the CV grid: lam values, multipliers of the median-heuristic gamma (kernel
# case), the number of folds and the seed of the rows' permutation into them
LAM_GRID = (1e-3, 1e-2, 1e-1, 1.0)
GAMMA_MULTS = (0.25, 1.0, 4.0)
CV_FOLDS = 5
CV_SEED = 1234


@dataclass
class BaseSpec:
    """Base regression family and its hyperparameters.

    The kernel width is the median heuristic; cv=True selects lam (and the
    gamma multiplier, kernel case) on the grid above by CV on the targets.
    """

    kind: str = "kernel"  # "ridge" | "kernel"
    lam: float = 1e-2
    cv: bool = True

    def __post_init__(self):
        if self.kind not in ("ridge", "kernel"):
            raise ConfigError(f"unknown base regressor kind {self.kind!r}")
        _check_positive(self.lam, "lam")


def _cv_folds(n: int) -> list:
    """Each fold's held-out rows, ascending; rows permuted by CV_SEED."""
    folds = np.arange(n) % CV_FOLDS
    folds = folds[make_rng(CV_SEED).permutation(n)]
    return [np.flatnonzero(folds == f) for f in range(CV_FOLDS)]


def _ridge_cv_sse(x, y, lam, members) -> float:
    sse = 0.0
    for idx in members:
        fit = Ridge(lam).fit(np.delete(x, idx, axis=0), np.delete(y, idx))
        resid = fit.predict(x[idx]) - y[idx]
        sse += float(resid @ resid)
    return sse


def _kernel_basis(x, gamma):
    """Eigendecomposition K = V diag(s) V^T of the RBF kernel on x's rows."""
    s, v = np.linalg.eigh(_rbf_kernel(x, x, gamma))
    np.maximum(s, 0.0, out=s)  # K is PSD; the clip drops round-off negatives
    return s, v


def _score_basis(s, v, y, lams, members):
    """Held-out SSE of every lam on one gamma's basis, and the full-data fits.

    With H = (K + lam I)^-1 = V diag(1/(s + lam)) V^T and alpha = H y, fold
    f's held-out residual is exactly H_ff^-1 alpha_f, the residual of a refit
    on the other folds (An, Liu & Venkatesh 2007, Pattern Recognition 40(8)).
    Returns sse of shape (len(lams),), NaN where a fold block was singular,
    and each lam's dual coefficients alpha.
    """
    sse = np.full(len(lams), np.nan)
    alphas = []
    vty = v.T @ y
    for i, lam in enumerate(lams):
        w = 1.0 / (s + lam)
        alphas.append(v @ (vty * w))
        root_w = np.sqrt(w)
        total = 0.0
        try:
            for idx in members:
                u = v[idx]
                u *= root_w  # H_ff = u u^T
                resid = np.linalg.solve(u @ u.T, alphas[i][idx])
                total += float(resid @ resid)
        except np.linalg.LinAlgError:
            continue
        sse[i] = total
    return sse, alphas


class KernelRows:
    """Kernel-CV state of one set of training rows.

    Holds what fit_base derives from the rows alone: the median-heuristic
    width, the gamma grid, the fold members and, with keep_bases, each
    gamma's eigendecomposition once built. A caller that fits several targets
    on the same rows creates one and passes it to every fit_base call on
    them, so the later targets cost no median_gamma and no eigh. Without
    keep_bases each gamma's eigenvectors are freed once scored, before the
    next kernel is built. Everything is computed on first use, so a ridge
    base never pays for the kernel width.
    """

    def __init__(self, x, keep_bases: bool = True):
        self.x = as_matrix(x)
        self._bases = {} if keep_bases else None

    @cached_property
    def g0(self) -> float:
        """The median heuristic on the rows."""
        return median_gamma(self.x)

    @cached_property
    def gammas(self) -> list:
        return [self.g0 * gm for gm in GAMMA_MULTS]

    @cached_property
    def members(self) -> list:
        return _cv_folds(self.x.shape[0])

    def basis(self, j: int):
        """(s, V) of the kernel at gammas[j]."""
        if self._bases is None:
            return _kernel_basis(self.x, self.gammas[j])
        if j not in self._bases:
            self._bases[j] = _kernel_basis(self.x, self.gammas[j])
        return self._bases[j]


def _kernel_cv(rows: KernelRows, y):
    """Held-out SSE of every (lam, gamma) and the full-data dual coefficients.

    One eigendecomposition per gamma serves every lam and fold (see
    _score_basis). Returns sse of shape (len(LAM_GRID), len(gammas)) and
    alphas keyed by (lam index, gamma index).
    """
    sse = np.full((len(LAM_GRID), len(rows.gammas)), np.nan)
    alphas = {}
    for j in range(len(rows.gammas)):
        s, v = rows.basis(j)
        sse[:, j], fits = _score_basis(s, v, y, LAM_GRID, rows.members)
        alphas.update(((i, j), alpha) for i, alpha in enumerate(fits))
        del s, v  # unless rows keeps it, this gamma's basis is freed here
    return sse, alphas


def fit_base(x, y, spec: BaseSpec, rows: KernelRows | None = None):
    """Fit one base regressor, cross-validating hyperparameters if asked.

    Kernel CV reads every fold's held-out error off one eigendecomposition
    per gamma (see _kernel_cv) and returns the winner's full-data fit; ridge
    CV refits per fold; both read rows' folds. rows, when given, must have
    been built from this x; its kernel width, folds and eigendecompositions
    are reused. Non-finite inputs raise IllConditionedError.
    """
    x = as_matrix(x)
    y = as_vector(y, "y", x.shape[0])
    if rows is None:
        rows = KernelRows(x, keep_bases=False)
    elif rows.x is not x:
        raise DimensionError("rows were built from another x")
    if x.shape[0] < 1:
        raise TooFewSamplesError("empty training set")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise IllConditionedError("non-finite value in the regression inputs")
    if not spec.cv or x.shape[0] < 2 * CV_FOLDS:
        model = Ridge(spec.lam) if spec.kind == "ridge" else KernelRidge(spec.lam, rows.g0)
        return model.fit(x, y)

    if spec.kind == "ridge":
        sse = np.array([[_ridge_cv_sse(x, y, lam, rows.members)] for lam in LAM_GRID])
    else:
        sse, alphas = _kernel_cv(rows, y)
    if not np.isfinite(sse).any():
        raise IllConditionedError("no cross-validation grid point gave a finite score")
    # the first minimum in lam-major, gamma-minor order; NaN scores never win
    i, j = np.unravel_index(np.nanargmin(sse), sse.shape)
    if spec.kind == "ridge":
        return Ridge(LAM_GRID[i]).fit(x, y)
    model = KernelRidge(LAM_GRID[i], rows.gammas[j])
    model.x_train, model.alpha = x, alphas[i, j]
    return model


# ---------------------------------------------------------------------------
# propensity

class PropensityModel:
    """L2 logistic regression by Newton iterations, predictions clipped."""

    # ridge penalty, clip of the predicted propensities, Newton iteration limits
    l2, clip, max_iter, tol = 1e-3, 0.01, 100, 1e-8
    w = n_iter = converged = None  # set by fit; converged: the gradient norm fell below tol

    def fit(self, x, a):
        x = as_matrix(x)
        a = as_treatment(a, x.shape[0])
        if a.min() == a.max():
            raise TooFewSamplesError("both treatment classes must be present")
        xa = _augment(x)
        w = np.zeros(xa.shape[1])
        self.n_iter, self.converged = self.max_iter, False
        for i in range(self.max_iter):
            z = xa @ w
            p = _sigmoid(z)
            grad = xa.T @ (p - a) + self.l2 * w
            if np.linalg.norm(grad) < self.tol:
                self.n_iter, self.converged = i, True
                break
            s = np.maximum(p * (1.0 - p), 1e-10)
            w = w - _chol_solve(_add_diag((xa * s[:, None]).T @ xa, self.l2), grad)
        self.w = w
        return self

    def predict_proba(self, x):
        if self.w is None:
            raise UntrainedModelError("PropensityModel is not fitted")
        z = _augment(as_matrix(x, d=self.w.size - 1)) @ self.w
        return np.clip(_sigmoid(z), self.clip, 1.0 - self.clip)


def propensity_fit(x, a) -> PropensityModel:
    return PropensityModel().fit(x, a)


# ---------------------------------------------------------------------------
# meta-learners

class CateModel:
    """Fitted effect estimator: kind tag plus a prediction closure."""

    def __init__(self, kind: str, predict_fn, input_dim: int):
        self.kind = kind
        self._predict = predict_fn
        self.input_dim = input_dim

    def predict(self, x):
        return self._predict(as_matrix(x, d=self.input_dim))


def _fit_arms(x, a, y, spec: BaseSpec, keep_bases: bool):
    """Each arm's KernelRows(x, keep_bases) and outcome model:
    ((rows1, mu1), (rows0, mu0)). Both arms must be non-empty."""
    arms = []
    for arm in (a == 1, a == 0):
        rows = KernelRows(x[arm], keep_bases)
        arms.append((rows, fit_base(rows.x, y[arm], spec, rows)))
    return tuple(arms)


def _fit_t_x(kinds, ds: Dataset, spec: BaseSpec, prop) -> dict:
    """The T-learner, the difference of the arms' outcome models, and the
    X-learner, whose first stage they are, from one fit of each arm and the
    propensity model prop. Each arm keeps its kernel bases only for X's effect
    targets on the same rows."""
    (rows1, mu1), (rows0, mu0) = _fit_arms(ds.x, ds.a, ds.y, spec, keep_bases="x" in kinds)
    models = {"t": CateModel("t", lambda x: mu1.predict(x) - mu0.predict(x), ds.d)}
    if "x" in kinds:
        t = ds.a == 1
        d1 = ds.y[t] - mu0.predict(rows1.x)
        d0 = mu1.predict(rows0.x) - ds.y[~t]
        tau1 = fit_base(rows1.x, d1, spec, rows1)
        tau0 = fit_base(rows0.x, d0, spec, rows0)

        def predict(x):
            g = prop.predict_proba(x)
            return g * tau0.predict(x) + (1.0 - g) * tau1.predict(x)

        models["x"] = CateModel("x", predict, ds.d)
    return models  # the arms' rows, and with them their bases, are freed here


def _fit_dr(ds: Dataset, spec: BaseSpec, split_seed: int) -> CateModel:
    """Three-way split: outcome models, propensity, then the pseudo-outcome
    regression on the third split."""
    if ds.n < 30:
        raise TooFewSamplesError("DR-learner needs n >= 30")
    for attempt in range(5):
        perm = make_rng(split_seed + attempt).permutation(ds.n)
        d1, d2, d3 = (np.sort(part) for part in np.array_split(perm, 3))
        if np.ptp(ds.a[d1]) and np.ptp(ds.a[d2]):  # both arms in each nuisance split
            break
    else:
        raise TooFewSamplesError("could not find a split with both arms present")

    (_, mu1), (_, mu0) = _fit_arms(ds.x[d1], ds.a[d1], ds.y[d1], spec, keep_bases=False)
    prop = propensity_fit(ds.x[d2], ds.a[d2])

    x3 = ds.x[d3]
    phi = dr_pseudo_outcome(ds.a[d3], ds.y[d3], mu0.predict(x3), mu1.predict(x3),
                            prop.predict_proba(x3))
    final = fit_base(x3, phi, spec)
    return CateModel("dr", final.predict, ds.d)


def dr_pseudo_outcome(a, y, mu0, mu1, pi) -> np.ndarray:
    """The DR pseudo-outcome of treatments a and outcomes y from supplied
    nuisance values (oracle injection path), pi clipped as PropensityModel clips."""
    a = as_vector(a, "a")
    y, mu0, mu1, pi = (as_vector(v, name, a.size)
                       for v, name in ((y, "y"), (mu0, "mu0"), (mu1, "mu1"), (pi, "pi")))
    p = np.clip(pi, PropensityModel.clip, 1.0 - PropensityModel.clip)
    return a / p * (y - mu1) + mu1 - (1.0 - a) / (1.0 - p) * (y - mu0) - mu0


def _fit_r(ds: Dataset, spec: BaseSpec, prop) -> CateModel:
    """Residual-on-residual (Nie & Wager), a_res from prop: m_hat's family at
    m_hat's hyperparameters, fitted to y_res / a_res with weights a_res^2."""
    m_hat = fit_base(ds.x, ds.y, spec)
    y_res = ds.y - m_hat.predict(ds.x)
    a_res = ds.a.astype(float) - prop.predict_proba(ds.x)  # |a_res| >= the clip, 0.01
    tau = Ridge(m_hat.lam) if spec.kind == "ridge" else KernelRidge(m_hat.lam, m_hat.gamma)
    tau.fit(ds.x, y_res / a_res, weights=a_res**2)
    return CateModel("r", tau.predict, ds.d)


LEARNERS = ("t", "x", "dr", "r")


def check_kinds(kinds) -> tuple:
    """kinds as a tuple, once it names at least one kind, each of LEARNERS
    and none twice; ConfigError otherwise."""
    kinds = tuple(kinds)
    if not kinds:
        raise ConfigError("learners must name at least one kind")
    bad = [kind for kind in kinds if kind not in LEARNERS]
    if bad:
        raise ConfigError(f"unknown learner {bad[0]!r}; valid kinds: {', '.join(LEARNERS)}")
    if len(set(kinds)) < len(kinds):
        raise ConfigError(f"learners repeat a kind: {','.join(kinds)}")
    return kinds


def fit_learners(kinds, ds: Dataset, spec: BaseSpec, split_seed: int = 0) -> dict:
    """{kind: fitted CateModel} for every kind, in kinds order. The kinds
    (check_kinds) and both treatment arms are checked before any fit. Shared
    nuisances are fitted once: T and X share the arms (one _fit_t_x call,
    freed before DR and R are fitted), X and R one propensity model on all
    rows; DR fits its own on its split (split_seed)."""
    kinds = check_kinds(kinds)
    if not (ds.a == 1).any() or not (ds.a == 0).any():
        raise TooFewSamplesError("both treatment arms must be non-empty")
    # an overflow is reported by the finiteness checks (_chol_solve, fit_base), not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        prop = propensity_fit(ds.x, ds.a) if {"x", "r"} & set(kinds) else None
        models = _fit_t_x(kinds, ds, spec, prop) if {"t", "x"} & set(kinds) else {}
        if "dr" in kinds:
            models["dr"] = _fit_dr(ds, spec, split_seed)
        if "r" in kinds:
            models["r"] = _fit_r(ds, spec, prop)
    return {kind: models[kind] for kind in kinds}


def fit_learner(kind: str, ds: Dataset, spec: BaseSpec, split_seed: int = 0) -> CateModel:
    """One meta-learner: the one-kind case of fit_learners."""
    return fit_learners([kind], ds, spec, split_seed)[kind]
