"""Base regressors, a logistic propensity model, the four meta-learners,
and the PCA / autoencoder reduction baselines.

Learners take a Dataset whose covariate matrix may be raw covariates or a
standardized representation; nothing here depends on which. Hyperparameters
of the base family can be chosen by 5-fold cross-validation on observed
outcomes only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .dgp import Dataset
from .errors import ConfigError, DimensionError, IllConditionedError, TooFewSamplesError
from .nce import TrainConfig, train_runs
from .numerics import Mlp, make_rng, sq_dists, standardize_columns


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
    1e-8, ... on a's diagonal, written in place, so a may be left changed."""
    diag = a.diagonal().copy()
    jitter = 0.0
    for _ in range(6):
        try:
            c = np.linalg.cholesky(a)
            return _tri_solve(c.T, _tri_solve(c, b, lower=True), lower=False)
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


class Ridge:
    """Linear ridge with an intercept column, solved by Cholesky."""

    def __init__(self, lam: float):
        if lam <= 0:
            raise ValueError("lam must be > 0")
        self.lam = lam
        self.w = None

    def fit(self, x, y):
        xa = _augment(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        self.w = _chol_solve(_add_diag(xa.T @ xa, self.lam), xa.T @ y)
        return self

    def predict(self, x):
        return _augment(np.asarray(x, dtype=float)) @ self.w


def _rbf_kernel(xa, xb, gamma):
    k = sq_dists(xa, xb)
    np.maximum(k, 0.0, out=k)
    k *= -gamma
    np.exp(k, out=k)
    return k


def median_gamma(x):
    """1 / median squared pairwise distance, on a subsample for large n."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] < 2:
        raise TooFewSamplesError(f"median heuristic needs >= 2 rows, got {x.shape[0]}")
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
    """RBF kernel ridge; stores its training inputs for prediction."""

    def __init__(self, lam: float, gamma: float):
        if lam <= 0:
            raise ValueError("lam must be > 0")
        self.lam = lam
        self.gamma = gamma
        self.x_train = None
        self.alpha = None

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self.alpha = _chol_solve(_add_diag(_rbf_kernel(x, x, self.gamma), self.lam), y)
        self.x_train = x
        return self

    def predict(self, x):
        k = _rbf_kernel(np.asarray(x, dtype=float), self.x_train, self.gamma)
        return k @ self.alpha


@dataclass
class BaseSpec:
    """Base regression family and its hyperparameters.

    gamma=None means the median heuristic; cv=True selects lam (and the
    gamma multiplier, kernel case) by 5-fold CV on the fitted targets.
    """

    kind: str = "kernel"  # "ridge" | "kernel"
    lam: float = 1e-2
    gamma: float | None = None
    cv: bool = True
    lam_grid: tuple = (1e-3, 1e-2, 1e-1, 1.0)
    gamma_mults: tuple = (0.25, 1.0, 4.0)
    cv_folds: int = 5
    cv_seed: int = 1234

    def __post_init__(self):
        if self.kind not in ("ridge", "kernel"):
            raise ConfigError(f"unknown base regressor kind {self.kind!r}")
        if not 0.0 < self.lam < np.inf:
            raise ConfigError(f"lam must be finite and > 0, got {self.lam}")
        if self.gamma is not None and not 0.0 < self.gamma < np.inf:
            raise ConfigError(f"gamma must be None or finite and > 0, got {self.gamma}")


def _cv_folds(n: int, spec: BaseSpec) -> np.ndarray:
    """Fold index of each row: balanced fold sizes, rows permuted by cv_seed."""
    folds = np.arange(n) % spec.cv_folds
    return folds[make_rng(spec.cv_seed).permutation(n)]


def _ridge_cv_sse(x, y, lam, folds, n_folds) -> float:
    sse = 0.0
    for f in range(n_folds):
        tr = folds != f
        resid = Ridge(lam).fit(x[tr], y[tr]).predict(x[~tr]) - y[~tr]
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

    def __init__(self, x, spec: BaseSpec, keep_bases: bool = True):
        self.x = np.asarray(x, dtype=float)
        self.spec = spec
        self._bases = {} if keep_bases else None

    @cached_property
    def g0(self) -> float:
        """spec.gamma, or the median heuristic on the rows when it is None."""
        return median_gamma(self.x) if self.spec.gamma is None else self.spec.gamma

    @cached_property
    def gammas(self) -> list:
        return [self.g0 * gm for gm in self.spec.gamma_mults]

    @cached_property
    def members(self) -> list:
        folds = _cv_folds(self.x.shape[0], self.spec)
        return [np.flatnonzero(folds == f) for f in range(self.spec.cv_folds)]

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
    _score_basis). Returns sse of shape (len(lam_grid), len(gammas)) and
    alphas keyed by (lam index, gamma index).
    """
    lams = rows.spec.lam_grid
    sse = np.full((len(lams), len(rows.gammas)), np.nan)
    alphas = {}
    for j in range(len(rows.gammas)):
        s, v = rows.basis(j)
        sse[:, j], fits = _score_basis(s, v, y, lams, rows.members)
        alphas.update(((i, j), alpha) for i, alpha in enumerate(fits))
        del s, v  # unless rows keeps it, this gamma's basis is freed here
    return sse, alphas


def fit_base(x, y, spec: BaseSpec, rows: KernelRows | None = None):
    """Fit one base regressor, cross-validating hyperparameters if asked.

    Kernel CV reads every fold's held-out error off one eigendecomposition
    per gamma (see _kernel_cv) and returns the winner's full-data fit; ridge
    CV refits per fold. rows, when given, must have been built from this x
    and spec; its kernel width and eigendecompositions are reused. Non-finite
    inputs raise IllConditionedError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if rows is None:
        rows = KernelRows(x, spec, keep_bases=False)
    elif rows.x is not x or rows.spec != spec:
        raise ValueError("rows were built from another x or spec")
    if x.shape[0] < 1:
        raise TooFewSamplesError("empty training set")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise IllConditionedError("non-finite value in the regression inputs")
    if not spec.cv or x.shape[0] < 2 * spec.cv_folds:
        model = Ridge(spec.lam) if spec.kind == "ridge" else KernelRidge(spec.lam, rows.g0)
        return model.fit(x, y)

    if spec.kind == "ridge":
        folds = _cv_folds(x.shape[0], spec)
        sse = np.array([[_ridge_cv_sse(x, y, lam, folds, spec.cv_folds)]
                        for lam in spec.lam_grid])
    else:
        sse, alphas = _kernel_cv(rows, y)
    if not np.isfinite(sse).any():
        raise IllConditionedError("no cross-validation grid point gave a finite score")
    # the first minimum in lam-major, gamma-minor order; NaN scores never win
    i, j = np.unravel_index(np.nanargmin(sse), sse.shape)
    if spec.kind == "ridge":
        return Ridge(spec.lam_grid[i]).fit(x, y)
    model = KernelRidge(spec.lam_grid[i], rows.gammas[j])
    model.x_train, model.alpha = x, alphas[i, j]
    return model


# ---------------------------------------------------------------------------
# propensity

class PropensityModel:
    """L2 logistic regression by Newton iterations, predictions clipped."""

    # ridge penalty, clip of the predicted propensities, Newton iteration limits
    l2, clip, max_iter, tol = 1e-3, 0.01, 100, 1e-8
    w = None  # set by fit

    def fit(self, x, a):
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        if a.min() == a.max():
            raise TooFewSamplesError("both treatment classes must be present")
        xa = _augment(x)
        w = np.zeros(xa.shape[1])
        for _ in range(self.max_iter):
            z = xa @ w
            p = _sigmoid(z)
            grad = xa.T @ (p - a) + self.l2 * w
            if np.linalg.norm(grad) < self.tol:
                break
            s = np.maximum(p * (1.0 - p), 1e-10)
            step = _chol_solve(_add_diag((xa * s[:, None]).T @ xa, self.l2), grad)
            if not np.all(np.isfinite(step)):
                warnings.warn("propensity Newton step not finite; stopping early")
                break
            w = w - step
        self.w = w
        return self

    def predict_proba(self, x):
        z = _augment(np.asarray(x, dtype=float)) @ self.w
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
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(
                f"expected n-by-{self.input_dim} input, got shape {x.shape}"
            )
        return self._predict(x)


def _check_arms(ds: Dataset):
    if not (ds.a == 1).any() or not (ds.a == 0).any():
        raise TooFewSamplesError("both treatment arms must be non-empty")


def _fit_arms(ds: Dataset, spec: BaseSpec, keep_bases: bool):
    """Each arm's KernelRows and outcome model: ((rows1, mu1), (rows0, mu0)).

    With keep_bases the rows keep their kernel bases for more targets on the
    same arm; without, each basis is freed once scored.
    """
    _check_arms(ds)
    t = ds.a == 1
    arms = []
    for arm in (t, ~t):
        rows = KernelRows(ds.x[arm], spec, keep_bases)
        arms.append((rows, fit_base(rows.x, ds.y[arm], spec, rows)))
    return tuple(arms)


def _t_from_arms(ds: Dataset, arms) -> CateModel:
    (_, mu1), (_, mu0) = arms
    return CateModel("t", lambda x: mu1.predict(x) - mu0.predict(x), ds.d)


def _x_from_arms(ds: Dataset, spec: BaseSpec, arms) -> CateModel:
    (rows1, mu1), (rows0, mu0) = arms
    t = ds.a == 1
    # each arm's outcome and effect targets share one set of kernel bases
    d1 = ds.y[t] - mu0.predict(rows1.x)
    d0 = mu1.predict(rows0.x) - ds.y[~t]
    tau1 = fit_base(rows1.x, d1, spec, rows1)
    tau0 = fit_base(rows0.x, d0, spec, rows0)
    prop = propensity_fit(ds.x, ds.a)

    def predict(x):
        g = prop.predict_proba(x)
        return g * tau0.predict(x) + (1.0 - g) * tau1.predict(x)

    return CateModel("x", predict, ds.d)


def t_learner(ds: Dataset, spec: BaseSpec) -> CateModel:
    """Separate outcome regressions per arm; effect is their difference."""
    return _t_from_arms(ds, _fit_arms(ds, spec, keep_bases=False))


def x_learner(ds: Dataset, spec: BaseSpec) -> CateModel:
    """Imputed-effect regressions per arm, combined with propensity weights;
    its first stage is the T-learner's pair of outcome models."""
    return _x_from_arms(ds, spec, _fit_arms(ds, spec, keep_bases=True))


def dr_learner(ds: Dataset, spec: BaseSpec, split_seed: int = 0) -> CateModel:
    """Three-way split: outcome models, propensity, then the pseudo-outcome
    regression on the third split."""
    if ds.n < 30:
        raise TooFewSamplesError("DR-learner needs n >= 30")
    for attempt in range(5):
        perm = make_rng(split_seed + attempt).permutation(ds.n)
        thirds = np.array_split(perm, 3)
        d1, d2, d3 = (np.sort(part) for part in thirds)
        a1 = ds.a[d1]
        a2 = ds.a[d2]
        if a1.min() == a1.max() or a2.min() == a2.max():
            continue
        break
    else:
        raise TooFewSamplesError("could not find a split with both arms present")

    (_, mu1), (_, mu0) = _fit_arms(Dataset(x=ds.x[d1], a=ds.a[d1], y=ds.y[d1]), spec,
                                   keep_bases=False)
    prop = propensity_fit(ds.x[d2], ds.a[d2])

    x3 = ds.x[d3]
    phi = dr_pseudo_outcome(Dataset(x=x3, a=ds.a[d3], y=ds.y[d3]), mu0.predict(x3),
                            mu1.predict(x3), prop.predict_proba(x3))
    final = fit_base(x3, phi, spec)
    return CateModel("dr", final.predict, ds.d)


def dr_pseudo_outcome(ds: Dataset, mu0_vals, mu1_vals, pi_vals) -> np.ndarray:
    """Pseudo-outcome with supplied nuisance values (oracle injection path)."""
    a = ds.a.astype(float)
    p = np.clip(np.asarray(pi_vals, dtype=float), 0.01, 0.99)
    return (a / p * (ds.y - mu1_vals) + mu1_vals
            - (1.0 - a) / (1.0 - p) * (ds.y - mu0_vals) - mu0_vals)


def r_learner(ds: Dataset, spec: BaseSpec) -> CateModel:
    """Residual-on-residual: weighted closed-form fit in the base family."""
    _check_arms(ds)
    m_hat = fit_base(ds.x, ds.y, spec)
    prop = propensity_fit(ds.x, ds.a)
    y_res = ds.y - m_hat.predict(ds.x)
    a_res = ds.a.astype(float) - prop.predict_proba(ds.x)

    # the effect model takes m_hat's family and hyperparameters
    if spec.kind == "ridge":
        xa = _augment(ds.x)
        lhs = _add_diag((xa * (a_res * a_res)[:, None]).T @ xa, m_hat.lam)
        tau = Ridge(m_hat.lam)
        tau.w = _chol_solve(lhs, xa.T @ (a_res * y_res))
    else:
        lhs = _rbf_kernel(ds.x, ds.x, m_hat.gamma)
        lhs *= (a_res * a_res)[:, None]
        _add_diag(lhs, m_hat.lam)
        tau = KernelRidge(m_hat.lam, m_hat.gamma)
        tau.x_train, tau.alpha = ds.x.copy(), np.linalg.solve(lhs, a_res * y_res)
    return CateModel("r", tau.predict, ds.d)


LEARNERS = {"t": t_learner, "x": x_learner, "dr": dr_learner, "r": r_learner}


def fit_learner(kind: str, ds: Dataset, spec: BaseSpec, split_seed: int = 0) -> CateModel:
    if kind not in LEARNERS:
        raise ValueError(f"unknown learner {kind!r}; valid kinds: {sorted(LEARNERS)}")
    if kind == "dr":
        return dr_learner(ds, spec, split_seed=split_seed)
    return LEARNERS[kind](ds, spec)


def fit_learners(kinds, ds: Dataset, spec: BaseSpec, split_seed: int = 0) -> dict:
    """{kind: fit_learner(kind, ...)} for every kind, in kinds order, each model
    the same.

    With both 't' and 'x' asked for, the T-learner is the X-learner's first
    stage: each arm's outcome model is fitted once, on one KernelRows, and
    shared; the arms are freed before the other kinds are fitted. Every kind
    is checked before any fit.
    """
    kinds = list(kinds)
    bad = [kind for kind in kinds if kind not in LEARNERS]
    if bad:
        raise ValueError(f"unknown learner {bad[0]!r}; valid kinds: {sorted(LEARNERS)}")
    models = {}
    if {"t", "x"} <= set(kinds):
        arms = _fit_arms(ds, spec, keep_bases=True)
        models["t"] = _t_from_arms(ds, arms)
        models["x"] = _x_from_arms(ds, spec, arms)
        del arms  # frees both arms' kernel bases
    for kind in kinds:
        if kind not in models:
            models[kind] = fit_learner(kind, ds, spec, split_seed=split_seed)
    return {kind: models[kind] for kind in kinds}


# ---------------------------------------------------------------------------
# reduction baselines

class PcaProjector:
    """Centred, unscaled projection onto the top-k principal directions: the
    x -> z call shape of the other reducers, but not standardized like them,
    and not offered by fit_reducers yet."""

    def __init__(self, mean, components):
        self.mean = mean
        self.components = components  # (d, k)

    def transform(self, x):
        return (np.asarray(x, dtype=float) - self.mean) @ self.components


def pca_fit(x, k: int) -> PcaProjector:
    x = np.asarray(x, dtype=float)
    d = x.shape[1]
    if k > d:
        raise DimensionError(f"k={k} > d={d}")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / x.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1][:k]
    return PcaProjector(mean=mean, components=vecs[:, order])


class AeEncoder:
    """Trained encoder half with the same standardization contract as the
    energy-model representations, and its training record."""

    def __init__(self, encoder: Mlp, x, history, best_epoch):
        self.encoder = encoder
        _, self.repr_mean, self.repr_std = standardize_columns(encoder.forward(x))
        self.history = history  # (epoch, train_loss, val_loss) rows
        self.best_epoch = best_epoch

    def transform(self, x):
        """Encoder outputs standardized with the training statistics."""
        z = self.encoder.forward(np.asarray(x, dtype=float))
        return (z - self.repr_mean) / self.repr_std


def _ae_loss(encoder: Mlp, decoder: Mlp, xb, with_grads):
    """Squared reconstruction error per row, averaged over the batch; with
    grads, then its gradients over encoder.flat and decoder.flat."""
    z, enc_cache = encoder.forward_cache(xb)
    recon, dec_cache = decoder.forward_cache(z)
    resid = recon - xb
    loss = float(np.sum(resid * resid)) / len(xb)
    if not with_grads:
        return loss
    dec_grad, gz = decoder.backward(dec_cache, 2.0 * resid / len(xb))
    enc_grad, _ = encoder.backward(enc_cache, gz, input_grad=False)
    return loss, enc_grad, dec_grad


def ae_fit(x, config: TrainConfig, seeds) -> list:
    """Denoising-free autoencoders of config's k and widths, one AeEncoder per
    init seed in seeds, trained together on squared reconstruction error by
    the EBM's loop, nce.train_runs: one split and batch order from
    config.seed, early stopping on the held-out rows, best snapshot kept."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if config.k > d:
        raise DimensionError(f"k={config.k} > d={d}")

    def make_run(seed):
        rng = make_rng(seed)
        nets = [Mlp([d, *config.hidden, config.k], rng=rng),
                Mlp([config.k, *reversed(config.hidden), d], rng=rng)]
        return nets, partial(_ae_loss, *nets)

    master = make_rng(config.seed)
    runs = train_runs(config, seeds, make_run, np.zeros(n), lambda rows, _: x[rows],
                      make_rng(master.integers(2**63)), int(master.integers(2**63)))
    return [AeEncoder(run.nets[0], x, run.history, run.best_epoch) for run in runs]
