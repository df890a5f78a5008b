"""Numeric substrate: seeded RNG, the input checks, random orthogonal
matrices, squared distances, a small MLP with manual backpropagation, Adam
and a finite-difference gradient checker.

Everything here is deterministic for a fixed seed: the RNG is PCG64, and
reductions keep a fixed summation order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError, TrainingDivergedError


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; identical seed gives an identical stream."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def _floats(v, what: str) -> np.ndarray:
    """v as a float array; input numpy cannot read as one raises DimensionError."""
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{what} is not an array of numbers: {exc}") from None


def as_matrix(x, what: str = "x", d: int | None = None) -> np.ndarray:
    """x as a float (n, d) matrix, one row per sample, with exactly d columns
    when d is given and d >= 1 otherwise; any other shape, or input that is
    not numeric, raises DimensionError."""
    x = _floats(x, what)
    if x.ndim != 2 or x.shape[1] < 1 or d not in (None, x.shape[1]):
        rule = "(n, d) matrix, d >= 1" if d is None else f"(n, {d}) matrix"
        raise DimensionError(f"{what} of shape {x.shape} is not an {rule}")
    return x


def as_vector(v, what: str, n: int | None = None) -> np.ndarray:
    """v as a float (n,) vector, one entry per row of x, of any length when n
    is None; any other shape, or input that is not numeric, raises DimensionError."""
    v = _floats(v, what)
    if v.ndim != 1 or n not in (None, v.size):
        rule = "" if n is None else f" with one entry per row of x (n={n})"
        raise DimensionError(f"{what} of shape {v.shape} is not an (n,) vector{rule}")
    return v


def random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    """Random k-by-k orthogonal matrix.

    Draws a Gaussian matrix, symmetrizes it, and returns the eigenvector
    matrix of the symmetric part. Eigenvectors of a real symmetric matrix
    are real and orthonormal, so B @ B.T == I up to round-off.
    """
    if k < 1:
        raise DimensionError(f"orthogonal matrix dimension must be >= 1, got {k}")
    b0 = rng.standard_normal((k, k))
    sym = (b0 + b0.T) / 2.0
    _, vecs = np.linalg.eigh(sym)
    return vecs


# elements in one row block of sq_dists' norm sums (512 KB): a narrow result,
# such as k-means' (n, k) distances at n * k <= this, is a single block
_DIST_BLOCK = 1 << 16


def sq_dists(xa, xb):
    """Squared distances -2 xa_i . xb_j + (aa_i + bb_j), rounded as written and
    clipped at 0: round-off can take that sum below 0, a distance never.

    Besides the len(xa)-by-len(xb) result it holds one row block of the norm
    sums aa_i + bb_j, at most _DIST_BLOCK elements (or one row when a row is
    longer), never a second full-size buffer.
    """
    d2 = xa @ xb.T
    d2 *= -2.0
    aa, bb = np.sum(xa * xa, axis=1), np.sum(xb * xb, axis=1)
    rows = max(1, _DIST_BLOCK // max(1, bb.size))
    block = np.empty((min(rows, aa.size), bb.size))
    for s in range(0, aa.size, rows):
        part = block[: min(rows, aa.size - s)]
        np.add(aa[s : s + rows, None], bb, out=part)
        d2[s : s + rows] += part
        np.maximum(d2[s : s + rows], 0.0, out=d2[s : s + rows])
    return d2


class Mlp:
    """Fully connected net: ReLU hidden layers, identity output.

    One float64 vector, flat, holds [W0, b0, W1, b1, ...] (W of shape
    (fan_in, fan_out), row-major); params are reshaped views into it, so
    parameters change in place. Inputs are (n, d) matrices, one row per sample.
    """

    def __init__(self, widths, rng=None):
        if len(widths) < 2:
            raise DimensionError("need at least input and output widths")
        self.widths = [int(w) for w in widths]
        self.flat = np.zeros(sum((a + 1) * b for a, b in zip(self.widths[:-1], self.widths[1:])))
        self.params = self._views(self.flat)
        if rng is not None:
            for w in self.params[::2]:
                w[...] = rng.standard_normal(w.shape) * (1.0 / np.sqrt(w.shape[0]))

    def _views(self, buf):
        """[W0, b0, W1, b1, ...] as views into the flat vector buf."""
        views, start = [], 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            mid, end = start + fan_in * fan_out, start + (fan_in + 1) * fan_out
            views += [buf[start:mid].reshape(fan_in, fan_out), buf[mid:end]]
            start = end
        return views

    @property
    def in_dim(self):
        return self.widths[0]

    @property
    def out_dim(self):
        return self.widths[-1]

    def _layers(self, h, cache=None, out_bias=True):
        """Run the layers on h; appends every activation to cache if given.
        out_bias=False leaves the output layer's bias out."""
        last = len(self.widths) - 2
        for layer, (w, b) in enumerate(zip(self.params[::2], self.params[1::2])):
            # one fresh array per layer; the bias and the ReLU act on it in place
            h = h @ w
            if layer < last:
                h += b
                np.maximum(h, 0.0, out=h)
            elif out_bias:
                h += b
            if cache is not None:
                cache.append(h)
        return h

    def forward(self, x):
        return self._layers(as_matrix(x, "input", self.in_dim))

    def forward_cache(self, x, out_bias=True):
        """Forward pass keeping every layer's activation for backward.

        With out_bias=False the output, and the cache's last entry, leave the
        output bias out; backward's gradients are the same either way.
        """
        x = as_matrix(x, "input", self.in_dim)
        cache = [x]
        return self._layers(x, cache, out_bias), cache

    def backward(self, cache, upstream, input_grad=True):
        """Reverse-mode gradients of the forward map.

        upstream has the output shape (n, k); it is read, never written.
        Returns (grad, input_grad) where grad is one vector laid out like
        flat. With input_grad=False the first layer's input gradient is not
        formed and None is returned in its place.
        """
        upstream = np.asarray(upstream, dtype=float)
        if upstream.shape != cache[-1].shape:
            raise DimensionError(
                f"upstream shape {upstream.shape} != output shape {cache[-1].shape}"
            )
        n_layers = len(self.widths) - 1
        grad = np.empty_like(self.flat)
        views = self._views(grad)
        g = upstream
        for layer in range(n_layers - 1, -1, -1):
            if layer < n_layers - 1:
                # cache[layer + 1] holds relu(z); its sign pattern gates the
                # gradient. g is the fresh product of the layer above, so the
                # gate can act on it in place.
                g *= cache[layer + 1] > 0.0
            np.matmul(cache[layer].T, g, out=views[2 * layer])
            g.sum(axis=0, out=views[2 * layer + 1])
            if layer > 0 or input_grad:
                g = g @ self.params[2 * layer].T
            else:
                g = None
        return grad, g


class Adam:
    """Adam with bias correction over one parameter vector, at the usual
    beta1 = 0.9, beta2 = 0.999 and eps = 1e-8."""

    def __init__(self, theta, lr):
        self.lr = lr
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.t = 0

    def step(self, theta, grad):
        """One update of theta in place from its gradient grad."""
        if not np.all(np.isfinite(grad)):
            raise TrainingDivergedError("non-finite gradient in Adam step")
        self.t += 1
        b1, b2 = 0.9, 0.999
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        self.m *= b1
        self.m += (1.0 - b1) * grad
        self.v *= b2
        self.v += (1.0 - b2) * grad * grad
        theta -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + 1e-8)


def grad_check(loss_fn, theta, h=1e-5, max_entries=10_000, seed=0):
    """Max relative error between analytic and central-difference gradients.

    theta is a 1-d parameter vector, perturbed in place one entry at a time;
    loss_fn(theta) must return (loss, grad) with grad shaped like theta.
    Above max_entries parameters a seeded subsample of entries is checked.
    """
    if h <= 0:
        raise ConfigError(f"finite-difference step must be > 0, got h={h}")
    _, grad = loss_fn(theta)
    entries = range(theta.size)
    if theta.size > max_entries:
        entries = sorted(make_rng(seed).choice(theta.size, size=max_entries, replace=False))
    worst = 0.0
    for j in entries:
        orig = theta[j]
        theta[j] = orig + h
        lo_plus, _ = loss_fn(theta)
        theta[j] = orig - h
        lo_minus, _ = loss_fn(theta)
        theta[j] = orig
        numeric = (lo_plus - lo_minus) / (2.0 * h)
        scale = max(abs(numeric), abs(grad[j]), 1e-8)
        worst = max(worst, abs(numeric - grad[j]) / scale)
    return worst
