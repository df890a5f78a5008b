"""Evaluation: squared-error effect risk, the per-dimension correlation
metric between representations from independent runs, the PCA and
autoencoder baselines (each fitted to an Encoder, as the energy model is),
the effect predictions of learners on feature sets, which every
comparison (PEHE per feature set, cross-run spread of the estimates)
reduces, and run_experiment, the computation behind the pipeline command.
Report files are byte-deterministic.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from functools import partial

import numpy as np

from .cate import BaseSpec, fit_learners
from .dgp import Dataset
from .ebm import Encoder
from .errors import CateEbmError, DegenerateColumnError, DimensionError, IllConditionedError
from .nce import TrainConfig, train_ebms, train_runs
from .numerics import Mlp, as_matrix, make_rng

_FMT = "%.10g"


def pehe(tau_hat, tau_true) -> float:
    """Mean squared difference between estimated and true effects."""
    tau_hat = np.asarray(tau_hat, dtype=float)
    tau_true = np.asarray(tau_true, dtype=float)
    if tau_hat.shape != tau_true.shape:
        raise DimensionError("effect vectors must have equal length")
    return float(np.mean((tau_hat - tau_true) ** 2))


# an overflow is reported by the finiteness check, not warned of
@np.errstate(over="ignore", invalid="ignore")
def mcc(r1, r2) -> float:
    """Per-dimension Pearson correlation, averaged over the k dimensions.

    Deliberately strict: no sign or permutation alignment, so any flip or
    dimension swap lowers the score. A std or correlation that is not finite
    (huge values overflow the squares) raises IllConditionedError.
    """
    r1 = as_matrix(r1, "a representation")
    r2 = as_matrix(r2, "a representation")
    if r1.shape != r2.shape:
        raise DimensionError("representation matrices must have equal shapes")
    total = 0.0
    for j in range(r1.shape[1]):
        a = r1[:, j]
        b = r2[:, j]
        sa = a.std()
        sb = b.std()
        if sa == 0.0 or sb == 0.0:
            raise DegenerateColumnError(j)
        corr = float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))
        if not np.isfinite([sa, sb, corr]).all():
            raise IllConditionedError(f"column {j}: std or correlation is not finite")
        total += corr
    return total / r1.shape[1]


def mcc_pairs(reps) -> list:
    """(i, j, mcc(reps[i], reps[j])) for every pair of representations, i < j."""
    return [(i, j, mcc(reps[i], reps[j]))
            for i, j in itertools.combinations(range(len(reps)), 2)]


def pca_fit(x, k: int) -> Encoder:
    """Projection onto the top-k principal directions of x, standardized on
    x: a one-layer net whose W holds the directions and b = -mean W.

    A kept direction whose variance is round-off (at most the largest times
    d * eps, numpy's matrix_rank tolerance) raises DegenerateColumnError."""
    x = as_matrix(x)
    d = x.shape[1]
    if k > d:
        raise DimensionError(f"k={k} > d={d}")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / x.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    top = np.argsort(vals)[::-1][:k]
    flat = np.flatnonzero(vals[top] <= vals.max() * d * np.finfo(float).eps)
    if flat.size:
        raise DegenerateColumnError(int(flat[0]))
    net = Mlp([d, k])
    w, b = net.params
    w[...] = vecs[:, top]
    b[...] = -mean @ w
    return Encoder(net).standardize_on(x)


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
    """Denoising-free autoencoders of config's k and widths, one Encoder (the
    encoder half) per init seed in seeds, trained together on squared
    reconstruction error by the EBM's loop, nce.train_runs: one split and
    batch order from config.seed, early stopping on the held-out rows, best
    snapshot kept."""
    x = as_matrix(x)
    n, d = x.shape
    if config.k > d:
        raise DimensionError(f"k={config.k} > d={d}")

    def make_run(seed):
        rng = make_rng(seed)
        nets = [Mlp([d, *config.hidden, config.k], rng=rng),
                Mlp([config.k, *reversed(config.hidden), d], rng=rng)]
        return Encoder(nets[0]), nets, partial(_ae_loss, *nets)

    master = make_rng(config.seed)
    return train_runs(config, seeds, make_run, x, np.zeros(n), lambda rows, _: x[rows],
                      make_rng(master.integers(2**63)), int(master.integers(2**63)))


def effect_predictions(features: dict, train: Dataset, kinds, spec: BaseSpec,
                       split_seed: int = 0) -> dict:
    """{name: [{kind: tau_hat on z_test}, ...]} for features {name: [(z_train,
    z_test), ...]}: the kinds fitted together by cate.fit_learners on each
    z_train with train's treatment and outcome. Each pair's models are
    dropped before the next pair is fitted."""
    kinds = list(kinds)
    # every prediction's buffer exists before the first fit: predictions kept
    # across later fits would split the heap's free space and raise peak memory
    out = {name: [np.empty((len(kinds), len(zs))) for _, zs in pairs]
           for name, pairs in features.items()}
    for name, pairs in features.items():
        for buf, (zt, zs) in zip(out[name], pairs):
            models = fit_learners(kinds, Dataset(x=zt, a=train.a, y=train.y), spec, split_seed)
            for row, kind in zip(buf, kinds):
                row[:] = models[kind].predict(zs)
            del models
    return {name: [dict(zip(kinds, buf)) for buf in bufs] for name, bufs in out.items()}


@contextmanager
def stage(name: str, seed: int):
    """Prefix a CateEbmError raised inside with the pipeline stage and the
    experiment seed; its type, and with it the exit code, stays."""
    try:
        yield
    except CateEbmError as exc:
        exc.args = (f"pipeline stage {name!r} failed (seed {seed}): {exc}",)
        raise


PEHE_COLUMNS = ["learner", "features", "pehe_sq_mean", "pehe_sq_std", "pehe_root_mean"]


def run_experiment(cfg, train: Dataset, test: Dataset) -> tuple:
    """(models, reps, rows) of one config.ExperimentConfig; writes no files.
    models: cfg.runs EbmModels sharing cfg.b_matrix(), run r from init seed
    cfg.init_seeds()[r]; reps: each model's (z_train, z_test); rows: per
    learner and feature set (raw, ebm), PEHE_COLUMNS: PEHE's mean and std over
    the feature set's runs, and the mean of its square root."""
    with stage("fit-ebm", cfg.seed):
        models = train_ebms(train.x, cfg.train_config(), cfg.init_seeds(),
                            b_matrix=cfg.b_matrix())
    with stage("transform", cfg.seed):
        reps = [(m.represent(train.x), m.represent(test.x)) for m in models]
    with stage("fit-cate", cfg.seed):
        preds = effect_predictions({"raw": [(train.x, test.x)], "ebm": reps}, train,
                                   cfg.learners, cfg.base_spec(), split_seed=cfg.seed)
        rows = []
        for kind in cfg.learners:
            for name, runs in preds.items():
                vals = np.array([pehe(run[kind], test.tau) for run in runs])
                rows.append([kind, name, float(vals.mean()), float(vals.std()),
                             float(np.mean(np.sqrt(vals)))])
    return models, reps, rows


def write_table(path, header, rows) -> None:
    """CSV plus an aligned-column text twin; identical inputs give
    byte-identical files."""
    def fmt(v):
        if isinstance(v, float):
            return _FMT % v
        return str(v)

    str_rows = [[fmt(v) for v in row] for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in str_rows:
            fh.write(",".join(row) + "\n")
    txt_path = os.path.splitext(str(path))[0] + ".txt"
    widths = [max(len(header[i]), *(len(r[i]) for r in str_rows)) if str_rows
              else len(header[i]) for i in range(len(header))]
    with open(txt_path, "w") as fh:
        fh.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for row in str_rows:
            fh.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
