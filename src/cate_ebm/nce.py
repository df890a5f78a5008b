"""Noise-contrastive ranking training of the energy model.

Each training sample is packed into a candidate set: the clean covariate
vector in slot 0, then b corrupted copies. The model scores every candidate
and a softmax over the scores stands for the posterior probability of each
candidate being the clean one (see below for when it is exact); training
maximizes the log softmax of slot 0, averaged within each partition subset
and then over subsets. The net and the softmax treat all slots alike, so any
fixed slot would give the same loss.

Candidate sets are struct-of-arrays batches: a CandidateSet holds m sets as
values (m, b + 1, d) and subset (m,). Each epoch draws the
candidates of all training rows in one call, minibatches are row slices of
it, and the loss of a minibatch is one forward and one backward pass with a
per-row weight that reproduces the per-subset averaging.

The corruption kernel (additive standard Gaussian noise on each feature,
selected independently with probability rho) is symmetric, and the softmax
runs over the raw scores alone, dropping the noise-density terms of the
posterior. That is the one reconstruction this module makes. It is exact
only at b = 1, where symmetry cancels those terms between the two
candidates. At b >= 2 the terms between the corrupted copies of a row
remain: in a Gaussian probe the loss's optimal energy was 6-42% flatter than
log p at b = 2-10, and the presets use b = 3, 5 and 10. At every b, equal
scores give the chance loss ln(b + 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ebm import EbmModel
from .errors import (ConfigError, DimensionError, IllConditionedError, TooFewSamplesError,
                     TrainingDivergedError)
from .numerics import Adam, Mlp, as_matrix, as_vector, make_rng, random_orthogonal
from .partition import kmeans_fit


def _check_corruption(rho=1.0, b=1) -> None:
    """The one check of rho and b: TrainConfig checks both, corrupt rho, build_candidates b."""
    if not 0.0 < rho <= 1.0:
        raise ConfigError(f"need rho in (0, 1], got rho={rho}")
    if not b >= 1:
        raise ConfigError(f"need b >= 1, got b={b}")


@dataclass
class CandidateSet:
    """A batch of m candidate sets, one row of each array per set."""

    values: np.ndarray  # (m, b + 1, d): row i holds set i's candidates, the clean one first
    subset: np.ndarray  # (m,): partition subset of each clean sample

    def __len__(self) -> int:
        return len(self.subset)

    def __getitem__(self, rows) -> "CandidateSet":
        return CandidateSet(self.values[rows], self.subset[rows])


@dataclass
class TrainConfig:
    k: int
    b: int = 5
    rho: float = 0.5
    hidden: tuple = (20, 20)
    epochs: int = 100
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    patience: int = 30
    val_fraction = 0.2  # not a field: no file or caller sets it

    def __post_init__(self):
        _check_corruption(self.rho, self.b)
        for name in ("k", "epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(w < 1 for w in self.hidden):
            raise ConfigError(f"hidden widths must each be >= 1, got {self.hidden}")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def corrupt(x, rho, rng) -> np.ndarray:
    """One corrupted copy of every row of x, an array of shape (..., d).

    Every feature of every row is selected independently with probability
    rho; a selected feature gets standard Gaussian noise added. rho outside
    (0, 1] raises ConfigError.
    """
    _check_corruption(rho)
    x = np.asarray(x, dtype=float)
    selected = rng.random(x.shape) < rho
    out = rng.standard_normal(x.shape)
    out *= selected
    out += x
    return out


def build_candidates(rows, labels, rho, b, rng) -> CandidateSet:
    """For each row, the clean sample in slot 0 and then b corrupted copies;
    labels gives each row's partition subset and must hold one integral value
    per row."""
    _check_corruption(b=b)
    rows = as_matrix(rows, "rows")
    m, d = rows.shape
    labels = as_vector(labels, "labels", m)
    if not np.all(labels % 1 == 0):
        raise DimensionError("labels must be integers")
    if m * (int(b) + 1) * d > np.iinfo(np.intp).max:  # numpy cannot index it
        raise ConfigError(f"{m} candidate sets of {b} + 1 rows of {d} features "
                          "exceed numpy's index range; lower b")
    corrupted = corrupt(np.broadcast_to(rows[:, None, :], (m, b, d)), rho, rng)
    return CandidateSet(values=np.concatenate([rows[:, None, :], corrupted], axis=1),
                        subset=labels.astype(int))


def _scores(model: EbmModel, out: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """(m, b + 1) scores of a batch from the net output of its flattened values.

    Every subset label must index a column of B: DimensionError otherwise.
    """
    m = len(subset)
    if m and not (subset.dtype.kind in "iu" and 0 <= subset.min() and subset.max() < model.k):
        raise DimensionError(f"subset labels must be integers in [0, {model.k})")
    return np.einsum("mck,km->mc", out.reshape(m, -1, model.k), model.b_matrix[:, subset])


def nce_loss(model: EbmModel, batch: CandidateSet, with_grads: bool = True):
    """Negative ranking objective over a batch of candidate sets.

    Log posterior probabilities of the clean candidates (slot 0) are averaged
    within each subset present in the batch, then averaged over those subsets;
    the returned scalar is the negation, so minimizing it maximizes the ranking
    objective. The whole batch takes one forward and one backward pass, with
    set i weighted by 1 / (m_j * n_present), m_j the size of its subset.
    Returns (loss, gradient over net.flat) or just the loss.
    """
    m = len(batch)
    if m == 0:
        raise TooFewSamplesError("batch must be non-empty")
    # the output bias adds one constant to all candidates of a set and cancels
    # from its softmax; scoring without it keeps the loss from moving with the
    # bias even by round-off
    out, cache = model.net.forward_cache(batch.values.reshape(-1, model.d), out_bias=False)
    scores = _scores(model, out, batch.subset)
    counts = np.bincount(batch.subset)  # the labels are checked by _scores
    weight = 1.0 / (counts[batch.subset] * np.count_nonzero(counts))
    if not np.all(np.isfinite(scores)):
        raise TrainingDivergedError("non-finite scores in nce_loss")
    shifted = scores - scores.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1)
    logp = shifted[:, 0] - np.log(sums)
    total = -float(weight @ logp)
    if not with_grads:
        return total
    dscores = exps / sums[:, None]
    dscores[:, 0] -= 1.0
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


class _Run:
    """One init seed's encoder, its nets, their optimizers and its
    early-stopping state."""

    def __init__(self, seed, encoder, nets, loss, lr):
        self.seed = seed
        self.encoder = encoder
        self.nets = nets
        self.loss = loss
        self.opts = [Adam(net.flat, lr=lr) for net in nets]
        self.best = [net.flat.copy() for net in nets]
        self.best_val = np.inf
        self.best_epoch = -1
        self.history = []
        self.epoch_loss = 0.0

    def step(self, batch) -> None:
        loss, *grads = self.loss(batch, True)
        if not np.isfinite(loss):
            raise TrainingDivergedError("training loss became non-finite")
        for net, opt, grad in zip(self.nets, self.opts, grads):
            opt.step(net.flat, grad)
        self.epoch_loss += loss * len(batch)

    def end_epoch(self, epoch, val_batch, n_train, patience) -> bool:
        """Score val_batch and keep the best snapshot; False once patience runs out."""
        val_loss = self.loss(val_batch, False)
        self.history.append((epoch, self.epoch_loss / n_train, val_loss))
        self.epoch_loss = 0.0
        if val_loss < self.best_val:
            self.best_val = val_loss
            self.best = [net.flat.copy() for net in self.nets]
            self.best_epoch = epoch
        return epoch - self.best_epoch < patience


# an overflow is reported by the finiteness checks of the losses, not warned of
@np.errstate(over="ignore", invalid="ignore")
def train_runs(config: TrainConfig, seeds, make_run, x, labels, draw, split_rng, epoch_base):
    """Train one run per init seed on the rows of x. make_run(seed) gives its
    Encoder, the nets it trains (the encoder's among them) and its
    loss(batch, with_grads): the loss or, with grads, the loss and then one
    gradient per net. The runs share one split of the rows, held out by
    split_rng, and epoch e's draws from make_rng(epoch_base + e): draw(train
    rows, rng), batch positions stratified by labels, then draw(val rows,
    rng). Returns the encoders in the order of seeds, each at its best
    snapshot, with its training record and standardized on all of x."""
    seeds = list(seeds)
    if not seeds or min(seeds) < 0:
        raise ConfigError(f"init seeds must be one or more seeds >= 0, got {seeds}")
    n = len(x)
    n_val = max(1, int(round(n * config.val_fraction)))
    if n_val >= n:
        raise TooFewSamplesError(f"holding out {n_val} of n={n} rows leaves none to train on")
    perm = split_rng.permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])

    runs = [_Run(s, *make_run(s), config.lr) for s in seeds]
    live = runs
    for epoch in range(config.epochs):
        if not live:
            break
        rng_e = make_rng(epoch_base + epoch)
        train = draw(train_idx, rng_e)
        try:
            for ids in _stratified_batches(labels[train_idx], config.batch_size, rng_e):
                batch = train[ids]
                for run in live:
                    run.step(batch)
            val = draw(val_idx, rng_e)
            still = []
            for run in live:
                if run.end_epoch(epoch, val, len(train_idx), config.patience):
                    still.append(run)
        except TrainingDivergedError as exc:
            # the message gains the run; the type, and with it the exit code, stays
            exc.args = (f"run with init seed {run.seed} diverged at epoch {epoch}: {exc}",)
            raise
        live = still
    for run in runs:
        for net, best in zip(run.nets, run.best):
            net.flat[:] = best
        enc = run.encoder
        enc.history, enc.best_epoch, enc.best_val_loss = run.history, run.best_epoch, run.best_val
        enc.standardize_on(x)
    return [run.encoder for run in runs]


def train_ebms(x, config: TrainConfig, init_seeds, b_matrix=None) -> list:
    """Fit the k-means partition of x, freeze B, then optimize one network per
    init seed on the ranking loss; one EbmModel per seed, in the order of
    init_seeds. The partition only labels the training rows; no model keeps it.

    Everything but the network init comes from config.seed and is shared by
    the runs: the partition, B, the split and every epoch's candidates and
    batches, each drawn once. 20% of the rows (config.val_fraction) are held
    out; each run keeps its parameters with the best validation loss and
    freezes after config.patience epochs without improvement, so every model
    equals the one a separate training with that init seed gives.
    Standardization statistics come from the full training matrix. A run
    whose training turns non-finite raises TrainingDivergedError naming its
    init seed and epoch. A supplied b_matrix is checked by EbmModel.
    """
    x = as_matrix(x)
    n, d = x.shape
    k = config.k
    if n < 2 * k:
        raise TooFewSamplesError(f"n={n} < 2k={2 * k}")
    if k > d:
        raise DimensionError(f"k={k} > d={d}")

    master = make_rng(config.seed)
    kmeans_rng = make_rng(master.integers(2**63))
    split_rng = make_rng(master.integers(2**63))
    b_seed = int(master.integers(2**63))
    corrupt_base = int(master.integers(2**63))

    labels = kmeans_fit(x, k, kmeans_rng).labels
    if np.spacing(np.abs(x).max()) >= 1.0:  # |x| >= 2**52: N(0, 1) noise cannot move it
        raise IllConditionedError("a covariate of magnitude 2**52 or more is not moved by the "
                                  "unit corruption noise; scale the covariates")

    if b_matrix is None:
        b_matrix = random_orthogonal(k, make_rng(b_seed))

    def make_run(seed):
        model = EbmModel(net=Mlp([d, *config.hidden, k], rng=make_rng(seed)), b_matrix=b_matrix)
        return model, [model.net], functools.partial(nce_loss, model)

    def draw(rows, rng):
        return build_candidates(x[rows], labels[rows], config.rho, config.b, rng)

    return train_runs(config, init_seeds, make_run, x, labels, draw, split_rng, corrupt_base)


def train_ebm(x, config: TrainConfig, b_matrix=None, init_seed=None) -> EbmModel:
    """train_ebms with the one init seed init_seed (config.seed + 1 when it
    is None)."""
    init_seed = config.seed + 1 if init_seed is None else init_seed
    return train_ebms(x, config, [init_seed], b_matrix=b_matrix)[0]
