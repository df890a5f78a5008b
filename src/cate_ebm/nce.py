"""Noise-contrastive ranking training of the energy model.

Each training sample is packed into a candidate set: the clean covariate
vector plus b corrupted copies, randomly permuted. The model scores every
candidate and a softmax over the scores gives the posterior probability of
each candidate being the clean one; training maximizes the log posterior
of the true position, averaged within each partition subset and then over
subsets.

The corruption kernel (additive standard Gaussian on continuous features,
uniform resampling on categorical ones, each feature flipped independently
with probability rho) is symmetric, so the noise-density terms in the
posterior cancel between candidates and the softmax runs over the raw
scores alone. This cancellation is the one reconstruction this module
makes; it is exact for symmetric kernels.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .ebm import EbmModel, ModelFingerprint
from .errors import DimensionError, TooFewSamplesError, TrainingDivergedError
from .numerics import Adam, Mlp, make_rng, random_orthogonal, standardize_columns
from .partition import kmeans_fit


@dataclass
class CorruptionSpec:
    """Per-feature corruption policy.

    kinds[f] is None for a continuous feature or an array of admissible
    values for a categorical one.
    """

    rho: float
    kinds: list
    b: int

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")
        if self.b < 1:
            raise ValueError("candidate count b must be >= 1")
        for f, kind in enumerate(self.kinds):
            if kind is not None and len(kind) == 0:
                raise ValueError(f"categorical feature {f} has an empty value set")

    @property
    def d(self) -> int:
        return len(self.kinds)

    def fingerprint_hash(self) -> int:
        parts = [f"rho={self.rho!r}", f"b={self.b}"]
        for kind in self.kinds:
            if kind is None:
                parts.append("c")
            else:
                parts.append("g:" + ",".join(repr(float(v)) for v in kind))
        return zlib.crc32(";".join(parts).encode())


@dataclass
class CandidateSet:
    values: np.ndarray  # (b + 1, d), rows are candidates
    true_index: int
    subset: int


@dataclass
class TrainConfig:
    k: int
    b: int = 5
    rho: float = 0.5
    hidden: tuple = (20, 20, 20)
    epochs: int = 200
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    init_seed: int | None = None
    patience: int = 30
    val_fraction: float = 0.2
    kinds: list | None = None  # None means all-continuous

    def __post_init__(self):
        if self.k < 1 or self.b < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("k, b, epochs and batch_size must all be >= 1")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")


def corrupt(x, spec: CorruptionSpec, rng) -> np.ndarray:
    """One corrupted copy of x under the spec's kernel."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != spec.d:
        raise DimensionError(f"vector length {x.shape[0]} != spec dimension {spec.d}")
    selected = rng.random(spec.d) < spec.rho
    noise = rng.standard_normal(spec.d)
    out = x.copy()
    for f, kind in enumerate(spec.kinds):
        if kind is not None:
            draw = kind[rng.integers(len(kind))]
            if selected[f]:
                out[f] = draw
        elif selected[f]:
            out[f] = x[f] + noise[f]
    return out


def _corrupt_block(x_rows, spec: CorruptionSpec, rng) -> np.ndarray:
    """Vectorized corruption of a stack of rows (all-continuous fast path)."""
    m, d = x_rows.shape
    if any(kind is not None for kind in spec.kinds):
        return np.stack([corrupt(row, spec, rng) for row in x_rows])
    selected = rng.random((m, d)) < spec.rho
    noise = rng.standard_normal((m, d))
    return x_rows + selected * noise


def build_candidates(x, j, spec: CorruptionSpec, rng) -> CandidateSet:
    """Clean sample plus b corrupted copies in a uniformly random order."""
    x = np.asarray(x, dtype=float)
    corrupted = _corrupt_block(np.tile(x, (spec.b, 1)), spec, rng)
    stacked = np.vstack([x[None, :], corrupted])
    perm = rng.permutation(spec.b + 1)
    values = stacked[perm]
    true_index = int(np.nonzero(perm == 0)[0][0])
    return CandidateSet(values=values, true_index=true_index, subset=int(j))


def _scores(model: EbmModel, values: np.ndarray, j: int) -> np.ndarray:
    return model.net.forward(values) @ model.b_matrix[:, j]


def posterior(model: EbmModel, cs: CandidateSet) -> np.ndarray:
    """Softmax over candidate scores, max-subtracted for overflow safety."""
    s = _scores(model, cs.values, cs.subset)
    if not np.all(np.isfinite(s)):
        raise TrainingDivergedError("non-finite network output in posterior")
    s = s - s.max()
    e = np.exp(s)
    return e / e.sum()


def nce_loss(model: EbmModel, batch, with_grads: bool = True):
    """Negative ranking objective over a batch of candidate sets.

    Log posterior probabilities of the true candidates are averaged within
    each subset present in the batch, then averaged over those subsets; the
    returned scalar is the negation, so minimizing it maximizes the ranking
    objective. Returns (loss, grads) or just the loss.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    by_subset = {}
    for cs in batch:
        by_subset.setdefault(cs.subset, []).append(cs)
    subsets = sorted(by_subset)
    n_present = len(subsets)
    total = 0.0
    grads = model.net.zero_like_params() if with_grads else None
    for j in subsets:
        sets = by_subset[j]
        m = len(sets)
        b1 = sets[0].values.shape[0]
        stacked = np.concatenate([cs.values for cs in sets], axis=0)
        out, cache = model.net.forward_cache(stacked)
        scores = (out @ model.b_matrix[:, j]).reshape(m, b1)
        if not np.all(np.isfinite(scores)):
            raise TrainingDivergedError("non-finite scores in nce_loss")
        shifted = scores - scores.max(axis=1, keepdims=True)
        exps = np.exp(shifted)
        probs = exps / exps.sum(axis=1, keepdims=True)
        true_idx = np.array([cs.true_index for cs in sets])
        logp = shifted[np.arange(m), true_idx] - np.log(exps.sum(axis=1))
        total += -logp.mean() / n_present
        if with_grads:
            dscores = probs.copy()
            dscores[np.arange(m), true_idx] -= 1.0
            dscores /= m * n_present
            upstream = dscores.reshape(m * b1, 1) * model.b_matrix[:, j][None, :]
            g, _ = model.net.backward(cache, upstream)
            for acc, gi in zip(grads, g):
                acc += gi
    return (total, grads) if with_grads else total


def _epoch_candidates(x, labels, indices, spec, rng):
    """Fresh candidate sets for the given rows, in ascending row order."""
    sets = []
    for i in indices:
        sets.append(build_candidates(x[i], labels[i], spec, rng))
    return sets


def _stratified_batches(labels, indices, batch_size, rng):
    """Batches drawn proportionally from each subset, shuffled within subsets."""
    by_subset = {}
    for i in indices:
        by_subset.setdefault(int(labels[i]), []).append(i)
    n = len(indices)
    n_batches = max(1, -(-n // batch_size))
    shuffled = {}
    for j, members in sorted(by_subset.items()):
        members = np.array(members)
        shuffled[j] = members[rng.permutation(len(members))]
    batches = [[] for _ in range(n_batches)]
    for j, members in sorted(shuffled.items()):
        per = -(-len(members) // n_batches)
        for t in range(n_batches):
            batches[t].extend(members[t * per : (t + 1) * per].tolist())
    return [b for b in batches if b]


def train_ebm(x, config: TrainConfig, b_matrix=None) -> EbmModel:
    """Fit partition, freeze B, then optimize the network on the ranking loss.

    20% of the rows (config.val_fraction) are held out; the parameters with
    the best validation loss are kept. Candidate sets are re-drawn every
    epoch. Standardization statistics come from the full training matrix.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    k = config.k
    if n < 2 * k:
        raise TooFewSamplesError(f"n={n} < 2k={2 * k}")

    master = make_rng(config.seed)
    kmeans_rng = make_rng(master.integers(2**63))
    split_rng = make_rng(master.integers(2**63))
    b_seed = int(master.integers(2**63))
    corrupt_base = int(master.integers(2**63))

    partition = kmeans_fit(x, k, kmeans_rng)
    labels = partition.assign(x)

    if b_matrix is None:
        b_matrix = random_orthogonal(k, make_rng(b_seed))
    else:
        b_matrix = np.asarray(b_matrix, dtype=float)
        if b_matrix.shape != (k, k):
            raise DimensionError("provided B has the wrong shape")

    kinds = config.kinds if config.kinds is not None else [None] * d
    spec = CorruptionSpec(rho=config.rho, kinds=list(kinds), b=config.b)

    init_seed = config.init_seed if config.init_seed is not None else config.seed + 1
    net = Mlp([d, *config.hidden, k], rng=make_rng(init_seed))
    opt = Adam(net.params, lr=config.lr)

    n_val = max(1, int(round(n * config.val_fraction)))
    perm = split_rng.permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])

    model = EbmModel(net=net, b_matrix=b_matrix, partition=partition)
    best_val = np.inf
    best_params = [p.copy() for p in net.params]
    best_epoch = -1
    since_best = 0
    history = []
    for epoch in range(config.epochs):
        rng_e = make_rng(corrupt_base + epoch)
        train_sets = _epoch_candidates(x, labels, train_idx, spec, rng_e)
        by_row = dict(zip(train_idx.tolist(), train_sets))
        batch_ids = _stratified_batches(labels, train_idx, config.batch_size, rng_e)
        epoch_loss = 0.0
        for ids in batch_ids:
            batch = [by_row[i] for i in sorted(ids)]
            loss, grads = nce_loss(model, batch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"training loss became non-finite at epoch {epoch}"
                )
            opt.step(net.params, grads)
            epoch_loss += loss * len(batch)
        epoch_loss /= len(train_idx)

        val_sets = _epoch_candidates(x, labels, val_idx, spec, rng_e)
        val_loss = nce_loss(model, val_sets, with_grads=False)
        history.append((epoch, epoch_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_params = [p.copy() for p in net.params]
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    net.params = best_params
    raw = net.forward(x)
    _, mean, std = standardize_columns(raw)
    # b_crc identifies the fixed B, so models sharing B compare equal
    b_crc = zlib.crc32(np.ascontiguousarray(b_matrix, dtype="<f8").tobytes())
    fp = ModelFingerprint(d=d, k=k, corruption_hash=spec.fingerprint_hash(), b_crc=b_crc)
    final = EbmModel(net=net, b_matrix=b_matrix, partition=partition,
                     repr_mean=mean, repr_std=std, fingerprint=fp)
    final.history = history
    final.best_epoch = best_epoch
    final.best_val_loss = best_val
    return final
