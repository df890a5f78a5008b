"""Command-line front end.

Subcommands: gen-data, fit-ebm, transform, fit-cate, pipeline, mcc.
Exit codes: 0 success, 2 input/config error, 3 numeric/training failure; a
package error ends in the exit_code of its type.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

import numpy as np

from . import evalx
from .cate import fit_learners
from .config import ExperimentConfig, load_config
from .dgp import Dataset, gen_dgp, load_csv, read_csv, sample, save_csv, write_csv
from .ebm import load_model, save_model
from .errors import CateEbmError, ConfigError, CsvFormatError
from .nce import train_ebm, train_ebms
from .numerics import make_rng, random_orthogonal

EXIT_OK = 0


def _exp_dir(cfg: ExperimentConfig) -> str:
    path = os.path.join(cfg.out_dir, f"exp-{cfg.fingerprint()}")
    os.makedirs(path, exist_ok=True)
    return path


def _read_repr(path) -> np.ndarray:
    def z_columns(header):
        if not header or header != [f"z{i}" for i in range(len(header))]:
            raise CsvFormatError(f"{path}: a representation file's header is z0..z{{m-1}} "
                                 f"in order, got {','.join(header)!r}")
        return header

    return read_csv(path, z_columns)[2]


def _b_matrix(cfg: ExperimentConfig) -> np.ndarray:
    # B is frozen by its own seed so every run of an experiment shares it
    return random_orthogonal(cfg.k, make_rng(cfg.b_seed))


def _save_run(model, out_dir: str, tag: str) -> None:
    """Write model{tag}.preb and train_log{tag}.csv."""
    save_model(model, os.path.join(out_dir, f"model{tag}.preb"))
    write_csv(os.path.join(out_dir, f"train_log{tag}.csv"),
              ["epoch", "train_loss", "val_loss"], [np.array(model.history)])


def _transform(model, x, path: str) -> np.ndarray:
    """Write the standardized representation of x to path and return it."""
    z = model.represent(x)
    write_csv(path, [f"z{i}" for i in range(z.shape[1])], [z])
    return z


def _mcc_pairs(reps) -> list:
    return [(i, j, evalx.mcc(reps[i], reps[j]))
            for i, j in itertools.combinations(range(len(reps)), 2)]


def cmd_gen_data(cfg: ExperimentConfig, out_dir: str) -> int:
    dgp = gen_dgp(cfg.seed, cfg.d)
    train = sample(dgp, cfg.n, cfg.seed + 1)
    test = sample(dgp, cfg.test_size, cfg.seed + 2)
    save_csv(train, os.path.join(out_dir, "train.csv"))
    save_csv(test, os.path.join(out_dir, "test.csv"))
    print(f"wrote train.csv ({train.n} rows) and test.csv ({test.n} rows) to {out_dir}")
    return EXIT_OK


def cmd_fit_ebm(cfg: ExperimentConfig, train_path: str, out_dir: str, init_seed=None) -> int:
    model = train_ebm(load_csv(train_path).x, cfg.train_config(init_seed),
                      b_matrix=_b_matrix(cfg))
    _save_run(model, out_dir, "")
    print(f"final validation loss: {model.best_val_loss:.6f} "
          f"(best epoch {model.best_epoch}); wrote model.preb")
    return EXIT_OK


def cmd_transform(model_path: str, data_path: str, out_path: str) -> int:
    model = load_model(model_path)
    ds = load_csv(data_path)
    if ds.d != model.d:
        raise ConfigError(f"model expects d={model.d}, data has d={ds.d}")
    _transform(model, ds.x, out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_fit_cate(cfg: ExperimentConfig, data_path: str, out_dir: str,
                 features_path=None) -> int:
    ds = load_csv(data_path)
    feats = _read_repr(features_path) if features_path else ds.x
    if feats.shape[0] != ds.n:
        raise ConfigError(
            f"feature rows ({feats.shape[0]}) != dataset rows ({ds.n})"
        )
    models = fit_learners(cfg.learners, Dataset(x=feats, a=ds.a, y=ds.y), cfg.base_spec(),
                          split_seed=cfg.seed)
    for kind in cfg.learners:
        tau_hat = models[kind].predict(feats)
        path = os.path.join(out_dir, f"predictions_{kind}.csv")
        write_csv(path, ["row", "tau_hat"], [np.arange(len(tau_hat)), tau_hat])
        print(f"{kind}-learner: wrote {path} (mean tau_hat {tau_hat.mean():.4f})")
    return EXIT_OK


def cmd_mcc(model_paths, data_path: str, out_dir=None) -> int:
    if len(model_paths) < 2:
        raise ConfigError("mcc needs at least 2 models")
    models = [load_model(p) for p in model_paths]
    first = models[0].fingerprint
    for p, m in zip(model_paths[1:], models[1:]):
        if not first.compatible_with(m.fingerprint):
            raise ConfigError(
                f"model {p} has a different d/k/B fingerprint; "
                "correlations across different B are not comparable"
            )
    ds = load_csv(data_path)
    pairs = _mcc_pairs([m.represent(ds.x) for m in models])
    vals = np.array([v for _, _, v in pairs])
    for i, j, v in pairs:
        print(f"mcc(model{i}, model{j}) = {v:.6f}")
    print(f"mean mcc = {vals.mean():.6f} +- {vals.std():.6f}")
    if out_dir:
        evalx.write_table(os.path.join(out_dir, "mcc.csv"),
                          ["model_i", "model_j", "mcc"], pairs)
    return EXIT_OK


def cmd_pipeline(cfg: ExperimentConfig, with_mcc: bool = False) -> int:
    if with_mcc and cfg.runs < 2:
        raise ConfigError(f"pipeline --mcc needs runs >= 2, got runs={cfg.runs}")
    out_dir = _exp_dir(cfg)
    stage = "gen-data"
    try:
        cmd_gen_data(cfg, out_dir)
        train = load_csv(os.path.join(out_dir, "train.csv"))
        test = load_csv(os.path.join(out_dir, "test.csv"))

        stage = "fit-ebm"
        models = train_ebms(train.x, cfg.train_config(),
                            [cfg.seed + 101 * (r + 1) for r in range(cfg.runs)],
                            b_matrix=_b_matrix(cfg))
        for r, model in enumerate(models):
            _save_run(model, out_dir, f"_run{r}")

        stage = "transform"
        reps = [(_transform(m, train.x, os.path.join(out_dir, f"repr_train_run{r}.csv")),
                 _transform(m, test.x, os.path.join(out_dir, f"repr_test_run{r}.csv")))
                for r, m in enumerate(models)]

        stage = "fit-cate"
        # feature set -> its (train, test) pairs, one per fitted reducer run
        preds = evalx.effect_predictions({"raw": [(train.x, test.x)], "ebm": reps}, train,
                                         cfg.learners, cfg.base_spec(), split_seed=cfg.seed)
        rows = []
        for kind in cfg.learners:
            for name, runs in preds.items():
                vals = np.array([evalx.pehe(run[kind], test.tau) for run in runs])
                rows.append([kind, name, float(vals.mean()), float(vals.std()),
                             float(np.mean(np.sqrt(vals)))])

        stage = "report"
        evalx.write_table(
            os.path.join(out_dir, "pehe_report.csv"),
            ["learner", "features", "pehe_sq_mean", "pehe_sq_std", "pehe_root_mean"],
            rows,
        )
        print(f"report: {os.path.join(out_dir, 'pehe_report.csv')}")
        for row in rows:
            print(f"  {row[0]:>3} {row[1]:>4}  pehe_sq={row[2]:.4f} +- {row[3]:.4f}")

        if with_mcc:
            pairs = _mcc_pairs([zs for _, zs in reps])
            evalx.write_table(os.path.join(out_dir, "mcc.csv"),
                              ["run_i", "run_j", "mcc"], pairs)
            vals = np.array([v for _, _, v in pairs])
            print(f"mcc over runs: {vals.mean():.4f} +- {vals.std():.4f}")
        return EXIT_OK
    except CateEbmError as exc:
        # the message gains the stage; the type, and with it the exit code, stays
        exc.args = (f"pipeline stage {stage!r} failed (seed {cfg.seed}): {exc}",)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cate-ebm",
        description="Low-dimensional covariate representations for CATE estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a sectioned key-value config file")
        p.add_argument("--preset", help="named hyperparameter preset")
        p.add_argument("--seed", type=int, help="override the experiment seed")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("gen-data", help="write seeded train/test CSVs")
    common(p)

    p = sub.add_parser("fit-ebm", help="train the representation model")
    common(p)
    p.add_argument("--train", required=True, help="training CSV")
    p.add_argument("--init-seed", type=int, default=None)

    p = sub.add_parser("transform", help="write standardized representations")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output representation CSV")

    p = sub.add_parser("fit-cate", help="fit learners and write predictions")
    common(p)
    p.add_argument("--data", required=True, help="dataset CSV with a and y")
    p.add_argument("--features", default=None,
                   help="optional representation CSV; defaults to raw covariates")

    p = sub.add_parser("pipeline", help="end-to-end experiment")
    common(p)
    p.add_argument("--mcc", action="store_true", help="also emit the MCC table")

    p = sub.add_parser("mcc", help="pairwise representation correlation")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "transform":
            return cmd_transform(args.model, args.data, args.out)
        if args.command == "mcc":
            if args.out:
                os.makedirs(args.out, exist_ok=True)
            return cmd_mcc(args.models, args.data, args.out)

        cfg = load_config(path=args.config, preset=args.preset,
                          seed_override=args.seed,
                          out_override=getattr(args, "out", None))
        if args.command == "pipeline":
            return cmd_pipeline(cfg, with_mcc=args.mcc)
        out = args.out or _exp_dir(cfg)
        os.makedirs(out, exist_ok=True)
        if args.command == "gen-data":
            return cmd_gen_data(cfg, out)
        if args.command == "fit-ebm":
            return cmd_fit_ebm(cfg, args.train, out, init_seed=args.init_seed)
        if args.command == "fit-cate":
            return cmd_fit_cate(cfg, args.data, out, features_path=args.features)
        raise ConfigError(f"unknown command {args.command!r}")
    except OSError as exc:  # a path that cannot be read or written is an input error
        print(f"error: {exc}", file=sys.stderr)
        return CateEbmError.exit_code
    except MemoryError as exc:  # settings too large for this host's memory are an input error
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return CateEbmError.exit_code
    except CateEbmError as exc:
        label = "error" if exc.exit_code == CateEbmError.exit_code else "numeric failure"
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
