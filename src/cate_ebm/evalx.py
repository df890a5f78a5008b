"""Evaluation: squared-error effect risk, the per-dimension correlation
metric between representations from independent runs, fitted reducers and
the effect predictions of learners on feature sets, which every comparison
(PEHE per feature set, cross-run spread of the estimates) reduces. Report
files are byte-deterministic.
"""

from __future__ import annotations

import os

import numpy as np

from .cate import BaseSpec, ae_fit, fit_learners
from .dgp import Dataset
from .errors import DegenerateColumnError, DimensionError, IllConditionedError
from .nce import TrainConfig, train_ebms

_FMT = "%.10g"


def pehe(tau_hat, tau_true) -> float:
    """Mean squared difference between estimated and true effects."""
    tau_hat = np.asarray(tau_hat, dtype=float)
    tau_true = np.asarray(tau_true, dtype=float)
    if tau_hat.shape != tau_true.shape:
        raise DimensionError("effect vectors must have equal length")
    return float(np.mean((tau_hat - tau_true) ** 2))


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


def fit_reducers(name: str, x, config: TrainConfig, seeds, b_matrix=None) -> list:
    """The fitted maps x -> z of reducer 'ebm' or 'ae', one per init seed in
    seeds, trained together on x by nce.train_runs under config (the AE
    ignores b and rho). The EBM runs keep b_matrix (None draws B from
    config.seed)."""
    if name == "ebm":
        return [m.represent for m in train_ebms(x, config, seeds, b_matrix=b_matrix)]
    if name == "ae":
        return [enc.transform for enc in ae_fit(x, config, seeds)]
    raise ValueError(f"unknown reducer {name!r}")


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
