import itertools

import numpy as np
import pytest

from cate_ebm import kmeans_fit, make_rng
from cate_ebm.partition import _sq_dists
from cate_ebm.errors import DimensionError, TooFewSamplesError


FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])


def brute_force_best_2_partition(x):
    """Exhaustive search over all assignments of 4 points to 2 clusters."""
    best = None
    best_cost = np.inf
    for labels in itertools.product([0, 1], repeat=len(x)):
        labels = np.array(labels)
        if labels.min() == labels.max():
            continue
        cost = 0.0
        for j in (0, 1):
            pts = x[labels == j]
            cost += ((pts - pts.mean(axis=0)) ** 2).sum()
        if cost < best_cost:
            best_cost = cost
            best = labels
    return best, best_cost


def test_k1_centroid_is_column_means():
    x = make_rng(0).standard_normal((20, 3))
    model = kmeans_fit(x, 1, make_rng(1))
    assert np.allclose(model.centroids[0], x.mean(axis=0), atol=1e-12)


def test_four_point_fixture_matches_exhaustive_optimum():
    model = kmeans_fit(FOUR_POINTS, 2, make_rng(3))
    labels = model.assign(FOUR_POINTS)
    best_labels, best_cost = brute_force_best_2_partition(FOUR_POINTS)
    same = np.array_equal(labels, best_labels) or np.array_equal(labels, 1 - best_labels)
    assert same
    assert abs(model.inertia - best_cost) < 1e-10
    sorted_cents = model.centroids[np.argsort(model.centroids[:, 0])]
    assert np.allclose(sorted_cents, [[0.0, 0.5], [10.0, 0.5]], atol=1e-12)


def test_separated_mixture_recovers_modes():
    rng = make_rng(5)
    n = 150
    a = rng.standard_normal((n, 2)) + np.array([0.0, 0.0])
    b = rng.standard_normal((n, 2)) + np.array([20.0, 0.0])
    x = np.vstack([a, b])
    truth = np.array([0] * n + [1] * n)
    model = kmeans_fit(x, 2, make_rng(6))
    labels = model.assign(x)
    agree = max(np.mean(labels == truth), np.mean(labels == 1 - truth))
    assert agree >= 0.99


def test_assign_centroid_maps_to_itself():
    x = make_rng(7).standard_normal((60, 4))
    model = kmeans_fit(x, 3, make_rng(8))
    for j in range(3):
        assert model.assign(model.centroids[j : j + 1]).tolist() == [j]


def test_assign_k1_always_zero():
    x = make_rng(9).standard_normal((10, 2))
    model = kmeans_fit(x, 1, make_rng(0))
    assert model.assign(np.array([[100.0, -3.0], [-2.0, 7.0]])).tolist() == [0, 0]


def test_tie_breaks_to_lowest_index():
    model = kmeans_fit(np.array([[0.0], [2.0], [4.0], [0.1], [2.1], [4.1]]),
                       3, make_rng(11))
    cents = np.sort(model.centroids.ravel())
    midpoint = np.array([[(cents[0] + cents[2]) / 2.0]])
    j = model.assign(midpoint)
    # equidistant to the extreme centroids only when the middle one is farther;
    # here the middle centroid is closest, so construct an explicit tie instead
    model.centroids = np.array([[0.0], [100.0], [2.0]])
    assert model.assign(np.array([[1.0]])).tolist() == [0]


@pytest.mark.parametrize("shape", [(2,), (1, 3), (1, 1, 2)])
def test_assign_takes_matrices_only(shape):
    # one point is a (1, d) matrix; a bare vector is not promoted
    model = kmeans_fit(make_rng(9).standard_normal((10, 2)), 2, make_rng(0))
    with pytest.raises(DimensionError):
        model.assign(np.zeros(shape))


def test_inertia_monotone_non_increasing():
    for seed in range(8):
        x = make_rng(seed).standard_normal((120, 5))
        model = kmeans_fit(x, 4, make_rng(seed + 100))
        hist = model.history
        for prev, cur in zip(hist, hist[1:]):
            assert cur <= prev + 1e-9


def test_refit_same_seed_bit_identical():
    x = make_rng(13).standard_normal((80, 3))
    m1 = kmeans_fit(x, 3, make_rng(14))
    m2 = kmeans_fit(x, 3, make_rng(14))
    assert np.array_equal(m1.centroids, m2.centroids)
    assert m1.inertia == m2.inertia


def test_too_few_samples():
    with pytest.raises(TooFewSamplesError):
        kmeans_fit(np.zeros((2, 2)), 3, make_rng(0))


def _reference_sq_dists(x, c):
    xx = np.sum(x * x, axis=1)[:, None]
    cc = np.sum(c * c, axis=1)[None, :]
    d2 = xx + cc - 2.0 * (x @ c.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


@pytest.mark.parametrize("seed", range(20))
def test_sq_dists_match_reference(seed):
    rng = make_rng(seed)
    n, k, d = rng.integers(1, 60), rng.integers(1, 8), rng.integers(1, 30)
    x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-5, 5)
    c = x[rng.choice(n, size=min(k, n), replace=False)]  # centroids on data rows
    c = np.vstack([c, rng.standard_normal((k, d))])
    assert np.array_equal(_sq_dists(x, c), _reference_sq_dists(x, c))
