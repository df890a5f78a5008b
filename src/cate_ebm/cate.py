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
from functools import cached_property

import numpy as np

from .dgp import Dataset
from .errors import ConfigError, DimensionError, IllConditionedError, TooFewSamplesError
from .numerics import Adam, Mlp, make_rng, sq_dists, standardize_columns


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


def _chol_solve(a, b):
    jitter = 0.0
    for _ in range(6):
        try:
            c = np.linalg.cholesky(a + jitter * np.eye(a.shape[0]))
            return _tri_solve(c.T, _tri_solve(c, b, lower=True), lower=False)
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 100.0
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
        a = xa.T @ xa + self.lam * np.eye(xa.shape[1])
        self.w = _chol_solve(a, xa.T @ y)
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
    cap = 2000  # rows kept: the distances take 32 MB
    if x.shape[0] > cap:
        idx = make_rng(0).choice(x.shape[0], size=cap, replace=False)
        x = x[np.sort(idx)]
    d2 = sq_dists(x, x)
    upper = d2[np.triu(np.ones(d2.shape, dtype=bool), k=1)]
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
        k = _rbf_kernel(x, x, self.gamma)
        self.alpha = _chol_solve(k + self.lam * np.eye(x.shape[0]), y)
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

    def __init__(self, l2: float = 1e-3, clip: float = 0.01,
                 max_iter: int = 100, tol: float = 1e-8):
        self.l2 = l2
        self.clip = clip
        self.max_iter = max_iter
        self.tol = tol
        self.w = None

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
            h = (xa * s[:, None]).T @ xa + self.l2 * np.eye(xa.shape[1])
            step = _chol_solve(h, grad)
            if not np.all(np.isfinite(step)):
                warnings.warn("propensity Newton step not finite; stopping early")
                break
            w = w - step
        self.w = w
        return self

    def predict_proba(self, x):
        z = _augment(np.asarray(x, dtype=float)) @ self.w
        return np.clip(_sigmoid(z), self.clip, 1.0 - self.clip)


def propensity_fit(x, a, **kwargs) -> PropensityModel:
    return PropensityModel(**kwargs).fit(x, a)


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


def t_learner(ds: Dataset, spec: BaseSpec) -> CateModel:
    """Separate outcome regressions per arm; effect is their difference."""
    _check_arms(ds)
    t = ds.a == 1
    mu1 = fit_base(ds.x[t], ds.y[t], spec)
    mu0 = fit_base(ds.x[~t], ds.y[~t], spec)
    return CateModel("t", lambda x: mu1.predict(x) - mu0.predict(x), ds.d)


def x_learner(ds: Dataset, spec: BaseSpec) -> CateModel:
    """Imputed-effect regressions per arm, combined with propensity weights."""
    _check_arms(ds)
    t = ds.a == 1
    # each arm's outcome and effect targets share one set of kernel bases
    rows1, rows0 = KernelRows(ds.x[t], spec), KernelRows(ds.x[~t], spec)
    mu1 = fit_base(rows1.x, ds.y[t], spec, rows1)
    mu0 = fit_base(rows0.x, ds.y[~t], spec, rows0)
    d1 = ds.y[t] - mu0.predict(rows1.x)
    d0 = mu1.predict(rows0.x) - ds.y[~t]
    tau1 = fit_base(rows1.x, d1, spec, rows1)
    tau0 = fit_base(rows0.x, d0, spec, rows0)
    prop = propensity_fit(ds.x, ds.a)

    def predict(x):
        g = prop.predict_proba(x)
        return g * tau0.predict(x) + (1.0 - g) * tau1.predict(x)

    return CateModel("x", predict, ds.d)


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

    t1 = ds.a[d1] == 1
    mu1 = fit_base(ds.x[d1][t1], ds.y[d1][t1], spec)
    mu0 = fit_base(ds.x[d1][~t1], ds.y[d1][~t1], spec)
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
        lhs = (xa * (a_res * a_res)[:, None]).T @ xa + m_hat.lam * np.eye(xa.shape[1])
        tau = Ridge(m_hat.lam)
        tau.w = _chol_solve(lhs, xa.T @ (a_res * y_res))
    else:
        lhs = _rbf_kernel(ds.x, ds.x, m_hat.gamma)
        lhs *= (a_res * a_res)[:, None]
        lhs.flat[:: ds.n + 1] += m_hat.lam
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


# ---------------------------------------------------------------------------
# reduction baselines

class PcaProjector:
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
    energy-model representations."""

    def __init__(self, encoder: Mlp, repr_mean, repr_std):
        self.encoder = encoder
        self.repr_mean = repr_mean
        self.repr_std = repr_std

    def transform(self, x, use_train_stats: bool = True):
        z = self.encoder.forward(np.asarray(x, dtype=float))
        if not use_train_stats:
            return z
        return (z - self.repr_mean) / self.repr_std


def ae_fit(x, k: int, hidden=(20, 20), epochs=200, batch_size=64,
           lr=1e-3, seed=0) -> AeEncoder:
    """Denoising-free autoencoder trained on squared reconstruction error."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if k > d:
        raise DimensionError(f"k={k} > d={d}")
    rng = make_rng(seed)
    encoder = Mlp([d, *hidden, k], rng=rng)
    decoder = Mlp([k, *reversed(hidden), d], rng=rng)
    # Adam is elementwise, so one optimizer per net steps exactly like one over both
    enc_opt = Adam(encoder.flat, lr=lr)
    dec_opt = Adam(decoder.flat, lr=lr)
    order_rng = make_rng(seed + 1)
    for _ in range(epochs):
        order = order_rng.permutation(n)
        for start in range(0, n, batch_size):
            ids = np.sort(order[start : start + batch_size])
            xb = x[ids]
            z, enc_cache = encoder.forward_cache(xb)
            recon, dec_cache = decoder.forward_cache(z)
            g = 2.0 * (recon - xb) / xb.shape[0]
            dec_grad, gz = decoder.backward(dec_cache, g)
            enc_grad, _ = encoder.backward(enc_cache, gz, input_grad=False)
            enc_opt.step(encoder.flat, enc_grad)
            dec_opt.step(decoder.flat, dec_grad)
    z = encoder.forward(x)
    _, mean, std = standardize_columns(z)
    return AeEncoder(encoder=encoder, repr_mean=mean, repr_std=std)
