"""Lloyd's k-means with k-means++ seeding.

The subset count equals the representation dimension of the downstream
model, so a fitted partition is the index structure for the per-subset
energies. Deterministic for a fixed rng; ties in assignment break toward
the lowest centroid index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IllConditionedError, TooFewSamplesError
from .numerics import as_matrix, sq_dists


@dataclass
class PartitionModel:
    centroids: np.ndarray  # (k, d)
    inertia: float = 0.0
    history: list = field(default_factory=list, repr=False)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Nearest-centroid index of each row of the (n, d) matrix x."""
        d2 = sq_dists(as_matrix(x, d=self.d), self.centroids)
        return np.argmin(d2, axis=1)  # argmin takes the lowest index on ties


def _finite_total(d2) -> float:
    total = float(d2.sum())
    if not np.isfinite(total):
        raise IllConditionedError("k-means distances are not finite: a covariate is "
                                  "not finite or too large to square")
    return total


def _kmeanspp_init(x, k, rng):
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = sq_dists(x, centroids[:1]).ravel()
    for j in range(1, k):
        total = _finite_total(d2)
        if total <= 0.0:
            # all remaining points coincide with chosen centroids
            idx = rng.integers(n)
        else:
            probs = d2 / total
            idx = rng.choice(n, p=probs)
        centroids[j] = x[idx]
        d2 = np.minimum(d2, sq_dists(x, centroids[j : j + 1]).ravel())
    return centroids


# an overflow is reported by _finite_total, not warned of
@np.errstate(over="ignore", invalid="ignore")
def kmeans_fit(x, k, rng) -> PartitionModel:
    """Lloyd iterations from a k-means++ start.

    Stops at an assignment fixpoint, when inertia improves by less than tol,
    or after max_iter. An emptied cluster is re-seeded at the point farthest
    from its current centroid. Distances whose sum is not finite (squares of
    huge covariates overflow) raise IllConditionedError.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if n < k:
        raise TooFewSamplesError(f"n={n} < k={k}")
    max_iter, tol = 100, 1e-8

    centroids = _kmeanspp_init(x, k, rng)
    prev_labels = None
    prev_inertia = np.inf
    history = []
    for _ in range(max_iter):
        d2 = sq_dists(x, centroids)
        labels = np.argmin(d2, axis=1)
        inertia = _finite_total(d2[np.arange(n), labels])
        history.append(inertia)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        for j in range(k):
            members = labels == j
            if members.any():
                centroids[j] = x[members].mean(axis=0)
            else:
                far = int(np.argmax(d2[:, j]))
                centroids[j] = x[far]
        if prev_inertia - inertia < tol:  # inf - inertia never is
            break
        prev_labels = labels
        prev_inertia = inertia

    d2 = sq_dists(x, centroids)
    labels = np.argmin(d2, axis=1)
    inertia = _finite_total(d2[np.arange(n), labels])
    return PartitionModel(centroids=centroids, inertia=inertia, history=history)
