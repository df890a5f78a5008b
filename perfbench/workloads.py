"""The three benchmark workloads: set-up, one operation, and its checks.

Each workload has a `setup(seed, size, work)` that makes every input from
the seed, and an `op(state, ..., timer)` that runs one operation against the
package, timing its parts through `timer`, and returns its outcomes plus any
derived metrics. An outcome is (label, ok, detail); a failed check or an
exception counts against `failed`. Package functions are looked up through
their modules at call time, so a traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import io
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

import cate_ebm as ce
from cate_ebm import cate, cli

KINDS = tuple(cate.LEARNERS)  # t, x, dr, r
D = 20  # covariate dimension of every workload
BALANCE = (0.45, 0.55)  # treated share accepted by balanced_seed
REPR_TOL = 1e-9  # standardized training representation: |mean|, |std - 1|
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SIZES = {
    "full": {
        "ebm": dict(n=2000, epochs=15, hidden=(64, 64)),
        "cate": dict(n=1000, n_test=1000),
        "pipeline": dict(preset="desk"),
    },
    # tiny sizes for the self-test
    "tiny": {
        "ebm": dict(n=120, epochs=2, hidden=(8, 8)),
        "cate": dict(n=60, n_test=40),
        "pipeline": dict(config="[dgp]\nn = 60\ntest_size = 40\n"
                                "[ebm]\nhidden = 4,4\nepochs = 2\n[eval]\nruns = 2\n"),
    },
}


def balanced_seed(seed, n):
    """First data seed from seed*1000 on whose n-row training draw has a
    treated share inside BALANCE.

    Kernel-ridge CV cost grows with the cube of each arm's rows, so without
    this the work per operation would swing with the drawn treatment share
    rather than with the code.
    """
    for s in range(seed * 1000, seed * 1000 + 1000):
        dgp = ce.gen_dgp(s, d=D)
        share = float(ce.sample(dgp, n, s + 1).a.mean())
        if BALANCE[0] <= share <= BALANCE[1]:
            return s, dgp
    raise RuntimeError(f"no balanced data seed found from {seed * 1000}")


# ---------------------------------------------------------------------------
# ebm_n2000: train_ebm at fixed epochs, represent, model round trip

def ebm_setup(seed, size, work):
    p = SIZES[size]["ebm"]
    cfg = ce.load_config(preset="desk", seed_override=seed)
    x = ce.sample(ce.gen_dgp(seed, d=D), p["n"], seed + 1).x
    # desk k=3, b=5, rho=0.5, batch 64, lr 1e-3; patience >= epochs, so the
    # epoch count, and with it the work, is fixed
    train_cfg = ce.TrainConfig(k=cfg.k, b=cfg.b, rho=cfg.rho, hidden=p["hidden"],
                               epochs=p["epochs"], patience=p["epochs"],
                               batch_size=cfg.batch_size, lr=cfg.lr, seed=seed)
    b_matrix = ce.random_orthogonal(train_cfg.k, ce.make_rng(cfg.b_seed))
    n_val = max(1, int(round(p["n"] * train_cfg.val_fraction)))
    return dict(x=x, train_cfg=train_cfg, b_matrix=b_matrix,
                train_rows=p["n"] - n_val, path=os.path.join(work, "model.preb"))


def ebm_op(st, timer):
    model = timer("train_ebm_s", ce.train_ebm, st["x"], st["train_cfg"],
                  b_matrix=st["b_matrix"])
    rows_per_s = st["train_rows"] * len(model.history) / timer.last_s()
    z = model.represent(st["x"])
    ce.save_model(model, st["path"])
    z_loaded = ce.load_model(st["path"]).represent(st["x"])

    chance = math.log(st["train_cfg"].b + 1)
    standardized = (np.all(np.abs(z.mean(axis=0)) <= REPR_TOL)
                    and np.all(np.abs(z.std(axis=0) - 1.0) <= REPR_TOL))
    ok = [model.best_val_loss < chance, bool(standardized), np.array_equal(z, z_loaded)]
    detail = (f"best_val_loss={model.best_val_loss:.6f} (chance {chance:.6f}), "
              f"standardized={ok[1]}, round_trip_identical={ok[2]}")
    return [("train_ebm", all(ok), detail)], {"ebm_train_rows_per_s": rows_per_s}


# ---------------------------------------------------------------------------
# cate_n1000: kernel-CV meta-learners on raw covariates

def _cate_data(seed, p):
    s, dgp = balanced_seed(seed, p["n"])
    train = ce.sample(dgp, p["n"], s + 1)
    test = ce.sample(dgp, p["n_test"], s + 2)
    return dict(data_seed=s, train=ce.Dataset(x=train.x, a=train.a, y=train.y),
                test_x=test.x, test_tau=test.tau)


def cate_setup(seed, size, work):
    p = SIZES[size]["cate"]
    stored = json.loads(REFERENCE.read_text())
    reference = dict(stored[size], rtol=stored["rtol"])
    return dict(data=_cate_data(seed, p), ref_data=_cate_data(reference["seed"], p),
                reference=reference, spec=ce.BaseSpec(), first={})


def _fit_predict(kind, data, spec):
    model = ce.fit_learner(kind, data["train"], spec)
    pred = model.predict(data["test_x"])
    return pred, ce.pehe(pred, data["test_tau"])


def cate_op(st, use_reference, timer):
    """One fit + predict + pehe per learner kind, each timed as a part.

    On the reference data each PEHE must match the stored reference; on the
    workload's own data it must match the first operation of this run.
    """
    data = st["ref_data"] if use_reference else st["data"]
    rtol = st["reference"]["rtol"]
    outcomes = []
    for kind in KINDS:
        pred, value = timer(f"fit_{kind}_s", _fit_predict, kind, data, st["spec"])
        want = (st["reference"]["pehe"][kind] if use_reference
                else st["first"].setdefault(kind, value))
        ok = bool(np.all(np.isfinite(pred))) and abs(value - want) <= rtol * abs(want)
        outcomes.append((f"fit_learner[{kind}]", ok,
                         f"data_seed={data['data_seed']} pehe={value!r} expected={want!r}"))
    return outcomes, {}


# ---------------------------------------------------------------------------
# pipeline_desk: the end-to-end command, in-process

def pipeline_setup(seed, size, work):
    p = SIZES[size]["pipeline"]
    if "config" in p:
        path = os.path.join(work, "tiny.ini")
        with open(path, "w") as fh:
            fh.write(p["config"])
        args, cfg = ["--config", path], ce.load_config(path=path)
    else:
        args, cfg = ["--preset", p["preset"]], ce.load_config(preset=p["preset"])
    data_seed, _ = balanced_seed(seed, cfg.n)
    return dict(args=args, data_seed=data_seed, work=work)


def _finite_table(path):
    """True when the CSV has data rows and every numeric cell is finite."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    numbers = []
    for cell in (c for row in rows for c in row):
        try:
            numbers.append(float(cell))
        except ValueError:  # a label, such as the learner name
            continue
    return bool(rows) and all(math.isfinite(v) for v in numbers)


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def pipeline_op(st, timer):
    out = tempfile.mkdtemp(dir=st["work"])
    argv = ["pipeline", *st["args"], "--mcc", "--seed", str(st["data_seed"]), "--out", out]
    try:
        rc = timer("pipeline_s", _quiet_main, argv)
        ok, detail = rc == 0, f"exit code {rc}"
        for name in ("pehe_report.csv", "mcc.csv"):
            found = glob.glob(os.path.join(out, "exp-*", name))
            good = len(found) == 1 and _finite_table(found[0])
            ok = ok and good
            detail += f", {name} {'ok' if good else 'missing or non-finite'}"
    finally:
        shutil.rmtree(out)
    return [("pipeline", ok, detail)], {}
