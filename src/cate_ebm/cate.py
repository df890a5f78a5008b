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

import numpy as np

from .dgp import Dataset
from .errors import DimensionError, IllConditionedError, TooFewSamplesError
from .numerics import Adam, Mlp, make_rng, standardize_columns


# ---------------------------------------------------------------------------
# base regressors

def _chol_solve(a, b):
    jitter = 0.0
    for _ in range(6):
        try:
            c = np.linalg.cholesky(a + jitter * np.eye(a.shape[0]))
            y = np.linalg.solve(c, b)
            return np.linalg.solve(c.T, y)
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


def _sq_dists(xa, xb):
    """Squared distances aa_i + bb_j - 2 xa_i . xb_j, rounded as written,
    built in two len(xa)-by-len(xb) buffers."""
    d2 = xa @ xb.T
    d2 *= -2.0
    d2 += np.add.outer(np.sum(xa * xa, axis=1), np.sum(xb * xb, axis=1))
    return d2


def _rbf_kernel(xa, xb, gamma):
    k = _sq_dists(xa, xb)
    np.maximum(k, 0.0, out=k)
    k *= -gamma
    np.exp(k, out=k)
    return k


def median_gamma(x, cap=2000):
    """1 / median squared pairwise distance, on a subsample for large n."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] > cap:
        idx = make_rng(0).choice(x.shape[0], size=cap, replace=False)
        x = x[np.sort(idx)]
    d2 = _sq_dists(x, x)
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
            raise ValueError(f"unknown base regressor kind {self.kind!r}")


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


def _kernel_cv(x, y, lams, gammas, folds, n_folds):
    """Held-out SSE of every (lam, gamma) and the full-data dual coefficients.

    One eigendecomposition K = V diag(s) V^T per gamma serves every lam and
    fold. With H = (K + lam I)^-1 = V diag(1/(s + lam)) V^T and alpha = H y,
    fold f's held-out residual is exactly H_ff^-1 alpha_f, the residual of a
    refit on the other folds (An, Liu & Venkatesh 2007, Pattern Recognition
    40(8)). Returns sse of shape (len(lams), len(gammas)), NaN where a fold
    block was singular, and alphas keyed by (lam index, gamma index).
    """
    sse = np.full((len(lams), len(gammas)), np.nan)
    alphas = {}
    members = [np.flatnonzero(folds == f) for f in range(n_folds)]
    for j, gamma in enumerate(gammas):
        s, v = np.linalg.eigh(_rbf_kernel(x, x, gamma))
        np.maximum(s, 0.0, out=s)  # K is PSD; the clip drops round-off negatives
        vty = v.T @ y
        for i, lam in enumerate(lams):
            w = 1.0 / (s + lam)
            alpha = alphas[i, j] = v @ (vty * w)
            root_w = np.sqrt(w)
            total = 0.0
            try:
                for idx in members:
                    u = v[idx]
                    u *= root_w  # H_ff = u u^T
                    resid = np.linalg.solve(u @ u.T, alpha[idx])
                    total += float(resid @ resid)
            except np.linalg.LinAlgError:
                continue
            sse[i, j] = total
        del v  # free this gamma's eigenvectors before the next kernel is built
    return sse, alphas


def fit_base(x, y, spec: BaseSpec):
    """Fit one base regressor, cross-validating hyperparameters if asked.

    Kernel CV reads every fold's held-out error off one eigendecomposition
    per gamma (see _kernel_cv) and returns the winner's full-data fit; ridge
    CV refits per fold. Non-finite inputs raise IllConditionedError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] < 1:
        raise TooFewSamplesError("empty training set")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise IllConditionedError("non-finite value in the regression inputs")
    # ridge has no kernel width, so it skips the n-by-n median heuristic
    g0 = median_gamma(x) if spec.gamma is None and spec.kind == "kernel" else spec.gamma
    if not spec.cv or x.shape[0] < 2 * spec.cv_folds:
        model = Ridge(spec.lam) if spec.kind == "ridge" else KernelRidge(spec.lam, g0)
        return model.fit(x, y)

    folds = _cv_folds(x.shape[0], spec)
    if spec.kind == "ridge":
        sse = np.array([[_ridge_cv_sse(x, y, lam, folds, spec.cv_folds)]
                        for lam in spec.lam_grid])
    else:
        gammas = [g0 * gm for gm in spec.gamma_mults]
        sse, alphas = _kernel_cv(x, y, spec.lam_grid, gammas, folds, spec.cv_folds)
    if not np.isfinite(sse).any():
        raise IllConditionedError("no cross-validation grid point gave a finite score")
    # the first minimum in lam-major, gamma-minor order; NaN scores never win
    i, j = np.unravel_index(np.nanargmin(sse), sse.shape)
    if spec.kind == "ridge":
        return Ridge(spec.lam_grid[i]).fit(x, y)
    model = KernelRidge(spec.lam_grid[i], gammas[j])
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
    mu1 = fit_base(ds.x[t], ds.y[t], spec)
    mu0 = fit_base(ds.x[~t], ds.y[~t], spec)
    d1 = ds.y[t] - mu0.predict(ds.x[t])
    d0 = mu1.predict(ds.x[~t]) - ds.y[~t]
    tau1 = fit_base(ds.x[t], d1, spec)
    tau0 = fit_base(ds.x[~t], d0, spec)
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

    lam = getattr(m_hat, "lam", spec.lam)
    if spec.kind == "ridge":
        xa = _augment(ds.x)
        a2 = a_res * a_res
        lhs = (xa * a2[:, None]).T @ xa + lam * np.eye(xa.shape[1])
        w = _chol_solve(lhs, xa.T @ (a_res * y_res))
        return CateModel("r", lambda x: _augment(np.asarray(x, dtype=float)) @ w, ds.d)

    gamma = getattr(m_hat, "gamma", None) or median_gamma(ds.x)
    lhs = _rbf_kernel(ds.x, ds.x, gamma)
    lhs *= (a_res * a_res)[:, None]
    lhs.flat[:: ds.n + 1] += lam
    alpha = np.linalg.solve(lhs, a_res * y_res)
    x_train = ds.x.copy()

    def predict(x):
        return _rbf_kernel(np.asarray(x, dtype=float), x_train, gamma) @ alpha

    return CateModel("r", predict, ds.d)


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
    params = encoder.params + decoder.params
    opt = Adam(params, lr=lr)
    order_rng = make_rng(seed + 1)
    for _ in range(epochs):
        order = order_rng.permutation(n)
        for start in range(0, n, batch_size):
            ids = np.sort(order[start : start + batch_size])
            xb = x[ids]
            z, enc_cache = encoder.forward_cache(xb)
            recon, dec_cache = decoder.forward_cache(z)
            g = 2.0 * (recon - xb) / xb.shape[0]
            dec_grads, gz = decoder.backward(dec_cache, g)
            enc_grads, _ = encoder.backward(enc_cache, gz)
            opt.step(params, enc_grads + dec_grads)
    z = encoder.forward(x)
    _, mean, std = standardize_columns(z)
    return AeEncoder(encoder=encoder, repr_mean=mean, repr_std=std)
