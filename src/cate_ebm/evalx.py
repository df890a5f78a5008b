"""Evaluation: squared-error effect risk, the per-dimension correlation
metric between representations from independent runs, and the CATE
standard-deviation experiment. Report files are byte-deterministic.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from .cate import BaseSpec, ae_fit, fit_learner
from .dgp import Dataset
from .errors import DegenerateColumnError, DimensionError, IllConditionedError
from .nce import TrainConfig, train_ebm

_FMT = "%.10g"


def pehe(tau_hat, tau_true, root: bool = False) -> float:
    """Mean squared difference between estimated and true effects.

    root=True returns the square root, labeled separately in reports.
    """
    tau_hat = np.asarray(tau_hat, dtype=float)
    tau_true = np.asarray(tau_true, dtype=float)
    if tau_hat.shape != tau_true.shape:
        raise DimensionError("effect vectors must have equal length")
    val = float(np.mean((tau_hat - tau_true) ** 2))
    return float(np.sqrt(val)) if root else val


def mcc(r1, r2) -> float:
    """Per-dimension Pearson correlation, averaged over the k dimensions.

    Deliberately strict: no sign or permutation alignment, so any flip or
    dimension swap lowers the score. A std or correlation that is not finite
    (huge values overflow the squares) raises IllConditionedError.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
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


def cate_std_experiment(train: Dataset, test: Dataset, reducer: str,
                        learner: str, runs: int, base_seed: int,
                        config: TrainConfig, base_spec: BaseSpec | None = None,
                        b_matrix=None, seeds=None):
    """Per-test-sample standard deviation of effect estimates across
    independently initialized reducers.

    For the energy model, B stays fixed across runs; only the init seed
    moves. Returns (std_vector, mean_std).
    """
    if runs < 2:
        raise ValueError("need runs >= 2")
    if reducer not in ("ebm", "ae"):
        raise ValueError(f"unknown reducer {reducer!r}")
    base_spec = base_spec or BaseSpec()
    if seeds is None:
        seeds = [base_seed + 1000 * r for r in range(runs)]
    elif len(seeds) != runs:
        raise ValueError("seeds must have one entry per run")
    preds = []
    for seed in seeds:
        if reducer == "ebm":
            cfg = dataclasses.replace(config, init_seed=seed)
            model = train_ebm(train.x, cfg, b_matrix=b_matrix)
            z_train = model.represent(train.x)
            z_test = model.represent(test.x)
        else:
            enc = ae_fit(train.x, config.k, hidden=config.hidden,
                         epochs=config.epochs, batch_size=config.batch_size,
                         lr=config.lr, seed=seed)
            z_train = enc.transform(train.x)
            z_test = enc.transform(test.x)
        rep_ds = Dataset(x=z_train, a=train.a, y=train.y)
        fitted = fit_learner(learner, rep_ds, base_spec)
        preds.append(fitted.predict(z_test))
    stacked = np.stack(preds)
    std = stacked.std(axis=0)
    return std, float(std.mean())


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
