"""Noise-contrastive ranking training of the energy model.

Each training sample is packed into a candidate set: the clean covariate
vector plus b corrupted copies, randomly permuted. The model scores every
candidate and a softmax over the scores gives the posterior probability of
each candidate being the clean one; training maximizes the log posterior
of the true position, averaged within each partition subset and then over
subsets.

Candidate sets are struct-of-arrays batches: a CandidateSet holds m sets as
values (m, b + 1, d), true_index (m,) and subset (m,). Each epoch draws the
candidates of all training rows in one call, minibatches are row slices of
it, and the loss of a minibatch is one forward and one backward pass with a
per-row weight that reproduces the per-subset averaging.

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
from .errors import ConfigError, DimensionError, TooFewSamplesError, TrainingDivergedError
from .numerics import Adam, Mlp, make_rng, random_orthogonal, standardize_columns
from .partition import kmeans_fit


def _check_corruption(rho, b) -> None:
    """The one check of rho and b, made by CorruptionSpec and TrainConfig."""
    if not (0.0 < rho <= 1.0 and b >= 1):
        raise ConfigError(f"need rho in (0, 1] and b >= 1, got rho={rho}, b={b}")


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
        _check_corruption(self.rho, self.b)
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
    """A batch of m candidate sets, one row of each array per set."""

    values: np.ndarray  # (m, b + 1, d): row i holds set i's candidates
    true_index: np.ndarray  # (m,): slot of the clean sample in each set
    subset: np.ndarray  # (m,): partition subset of each clean sample

    def __len__(self) -> int:
        return len(self.true_index)

    def __getitem__(self, rows) -> "CandidateSet":
        return CandidateSet(self.values[rows], self.true_index[rows], self.subset[rows])


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
        _check_corruption(self.rho, self.b)
        for name in ("k", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.seed < 0 or (self.init_seed or 0) < 0:
            raise ConfigError(f"seed and init_seed must be >= 0, got {self.seed}, {self.init_seed}")


def corrupt(x, spec: CorruptionSpec, rng) -> np.ndarray:
    """One corrupted copy of every row of x, an array of shape (..., d).

    Every feature of every row is selected independently with probability
    rho; a selected continuous feature gets standard Gaussian noise added, a
    selected categorical one is replaced by a uniform draw from its values.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != spec.d:
        raise DimensionError(f"vector length {x.shape[-1]} != spec dimension {spec.d}")
    selected = rng.random(x.shape) < spec.rho
    out = rng.standard_normal(x.shape)
    out *= selected
    out += x
    for f, kind in enumerate(spec.kinds):
        if kind is not None:
            draw = np.asarray(kind, dtype=float)[rng.integers(len(kind), size=x.shape[:-1])]
            out[..., f] = np.where(selected[..., f], draw, x[..., f])
    return out


def build_candidates(rows, labels, spec: CorruptionSpec, rng) -> CandidateSet:
    """For each row, the clean sample plus b corrupted copies in a uniformly
    random order; labels gives each row's partition subset and must hold one
    integral value per row."""
    rows = np.asarray(rows, dtype=float)
    m, d = rows.shape
    labels = np.asarray(labels)
    if labels.shape != (m,) or not np.all(labels % 1 == 0):
        raise DimensionError(f"labels must be {m} integers, one per row")
    corrupted = corrupt(np.broadcast_to(rows[:, None, :], (m, spec.b, d)), spec, rng)
    # argsort of i.i.d. uniform keys is a uniform permutation of each set:
    # slot s receives candidate perm[:, s], the clean row being candidate 0
    perm = np.argsort(rng.random((m, spec.b + 1)), axis=1)
    slot = np.argsort(perm, axis=1)  # the inverse: slot[:, c] holds candidate c
    values = np.empty((m, spec.b + 1, d))
    sets = np.arange(m)
    values[sets, slot[:, 0]] = rows
    values[sets[:, None], slot[:, 1:]] = corrupted
    return CandidateSet(values=values, true_index=slot[:, 0], subset=labels.astype(int))


def _scores(model: EbmModel, out: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """(m, b + 1) scores of a batch from the net output of its flattened values.

    Every subset label must index a column of B: DimensionError otherwise.
    """
    m = len(subset)
    if m and not (subset.dtype.kind in "iu" and 0 <= subset.min() and subset.max() < model.k):
        raise DimensionError(f"subset labels must be integers in [0, {model.k})")
    return np.einsum("mck,km->mc", out.reshape(m, -1, model.k), model.b_matrix[:, subset])


def posterior(model: EbmModel, batch: CandidateSet) -> np.ndarray:
    """Softmax over each set's candidate scores, max-subtracted for overflow
    safety; one row of probabilities per set."""
    s = _scores(model, model.net.forward(batch.values.reshape(-1, model.d)), batch.subset)
    if not np.all(np.isfinite(s)):
        raise TrainingDivergedError("non-finite network output in posterior")
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def nce_loss(model: EbmModel, batch: CandidateSet, with_grads: bool = True):
    """Negative ranking objective over a batch of candidate sets.

    Log posterior probabilities of the true candidates are averaged within
    each subset present in the batch, then averaged over those subsets; the
    returned scalar is the negation, so minimizing it maximizes the ranking
    objective. The whole batch takes one forward and one backward pass, with
    set i weighted by 1 / (m_j * n_present), m_j the size of its subset.
    Returns (loss, gradient over net.flat) or just the loss.
    """
    m = len(batch)
    if m == 0:
        raise ValueError("batch must be non-empty")
    _, cache = model.net.forward_cache(batch.values.reshape(-1, model.d))
    # the output bias adds one constant to all candidates of a set and cancels
    # from its softmax; scoring from the last hidden layer leaves it out, so the
    # loss does not move with the bias even by round-off
    scores = _scores(model, cache[-2] @ model.net.params[-2], batch.subset)
    counts = np.bincount(batch.subset)  # the labels are checked by _scores
    weight = 1.0 / (counts[batch.subset] * np.count_nonzero(counts))
    if not np.all(np.isfinite(scores)):
        raise TrainingDivergedError("non-finite scores in nce_loss")
    shifted = scores - scores.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1)
    rows = np.arange(m)
    logp = shifted[rows, batch.true_index] - np.log(sums)
    total = -float(weight @ logp)
    if not with_grads:
        return total
    dscores = exps / sums[:, None]
    dscores[rows, batch.true_index] -= 1.0
    dscores *= weight[:, None]
    upstream = dscores[:, :, None] * model.b_matrix[:, batch.subset].T[:, None, :]
    grad, _ = model.net.backward(cache, upstream.reshape(-1, model.k), input_grad=False)
    return total, grad


def _stratified_batches(labels, batch_size, rng):
    """Batches of positions into labels, drawn proportionally from each
    subset and shuffled within subsets; each batch in ascending order."""
    n_batches = max(1, -(-len(labels) // batch_size))
    parts = [[] for _ in range(n_batches)]
    for j in np.unique(labels):
        members = np.flatnonzero(labels == j)
        members = members[rng.permutation(len(members))]
        per = -(-len(members) // n_batches)
        for t in range(n_batches):
            parts[t].append(members[t * per : (t + 1) * per])
    batches = (np.sort(np.concatenate(p)) for p in parts)
    return [b for b in batches if len(b)]


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
    opt = Adam(net.flat, lr=config.lr)

    n_val = max(1, int(round(n * config.val_fraction)))
    perm = split_rng.permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])

    model = EbmModel(net=net, b_matrix=b_matrix, partition=partition)
    best_val = np.inf
    best = net.flat.copy()
    best_epoch = -1
    since_best = 0
    history = []
    for epoch in range(config.epochs):
        rng_e = make_rng(corrupt_base + epoch)
        train_sets = build_candidates(x[train_idx], labels[train_idx], spec, rng_e)
        epoch_loss = 0.0
        for ids in _stratified_batches(train_sets.subset, config.batch_size, rng_e):
            batch = train_sets[ids]
            loss, grad = nce_loss(model, batch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"training loss became non-finite at epoch {epoch}"
                )
            opt.step(net.flat, grad)
            epoch_loss += loss * len(batch)
        epoch_loss /= len(train_idx)

        val_sets = build_candidates(x[val_idx], labels[val_idx], spec, rng_e)
        val_loss = nce_loss(model, val_sets, with_grads=False)
        history.append((epoch, epoch_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best = net.flat.copy()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    net.flat[:] = best
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
