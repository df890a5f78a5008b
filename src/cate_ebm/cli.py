"""Command-line front end.

Subcommands: gen-data, fit-ebm, transform, fit-cate, pipeline, mcc.
Exit codes: 0 success, 2 input/config error, 3 numeric/training failure; a
package error ends in the exit_code of its type.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import evalx
from .config import ExperimentConfig, load_config
from .dgp import load_csv, read_csv, save_csv, write_csv
from .ebm import load_model, save_model
from .errors import CateEbmError, ConfigError, CsvFormatError
from .nce import train_ebm

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


def _save_run(model, out_dir: str, tag: str) -> None:
    """Write model{tag}.preb and train_log{tag}.csv."""
    save_model(model, os.path.join(out_dir, f"model{tag}.preb"))
    write_csv(os.path.join(out_dir, f"train_log{tag}.csv"),
              ["epoch", "train_loss", "val_loss"], [np.array(model.history)])


def _write_repr(path: str, z) -> None:
    """Write the representation z to path, one column z0..z{m-1} per dimension."""
    write_csv(path, [f"z{i}" for i in range(z.shape[1])], [z])


def _mcc_report(reps, out_dir) -> None:
    """Print every pair's MCC and their mean; with out_dir, write mcc.csv and mcc.txt."""
    pairs = evalx.mcc_pairs(reps)
    vals = np.array([v for _, _, v in pairs])
    for i, j, v in pairs:
        print(f"mcc(model{i}, model{j}) = {v:.6f}")
    print(f"mean mcc = {vals.mean():.6f} +- {vals.std():.6f}")
    if out_dir:
        evalx.write_table(os.path.join(out_dir, "mcc.csv"),
                          ["model_i", "model_j", "mcc"], pairs)


def cmd_gen_data(cfg: ExperimentConfig, out_dir: str) -> tuple:
    """Write train.csv and test.csv to out_dir and return the (train, test) datasets."""
    train, test = cfg.datasets()
    save_csv(train, os.path.join(out_dir, "train.csv"))
    save_csv(test, os.path.join(out_dir, "test.csv"))
    print(f"wrote train.csv ({train.n} rows) and test.csv ({test.n} rows) to {out_dir}")
    return train, test


def cmd_fit_ebm(cfg: ExperimentConfig, train_path: str, out_dir: str, init_seed=None) -> int:
    model = train_ebm(load_csv(train_path).x, cfg, init_seed=init_seed)
    _save_run(model, out_dir, "")
    print(f"final validation loss: {model.best_val_loss:.6f} "
          f"(best epoch {model.best_epoch}); wrote model.preb")
    return EXIT_OK


def _check_width(model, ds) -> None:
    if ds.d != model.d:
        raise ConfigError(f"model expects d={model.d}, data has d={ds.d}")


def cmd_transform(model_path: str, data_path: str, out_path: str) -> int:
    model = load_model(model_path)
    ds = load_csv(data_path)
    _check_width(model, ds)
    _write_repr(out_path, model.represent(ds.x))
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
    [preds] = evalx.effect_predictions({"fit-cate": [(feats, feats)]}, ds, cfg.learners,
                                       cfg.base_spec(), split_seed=cfg.seed)["fit-cate"]
    for kind, tau_hat in preds.items():
        path = os.path.join(out_dir, f"predictions_{kind}.csv")
        write_csv(path, ["row", "tau_hat"], [np.arange(len(tau_hat)), tau_hat])
        print(f"{kind}-learner: wrote {path} (mean tau_hat {tau_hat.mean():.4f})")
    return EXIT_OK


def cmd_mcc(model_paths, data_path: str, out_dir=None) -> int:
    if len(model_paths) < 2:
        raise ConfigError("mcc needs at least 2 models")
    models = [load_model(p) for p in model_paths]
    first = models[0]
    for p, m in zip(model_paths[1:], models[1:]):
        if m.d != first.d or not np.array_equal(m.b_matrix, first.b_matrix):
            raise ConfigError(f"model {p} has a different d or B than {model_paths[0]}; "
                              "correlations across different B are not comparable")
    ds = load_csv(data_path)
    _check_width(first, ds)  # the loop above gave every model first's d
    _mcc_report([m.represent(ds.x) for m in models], out_dir)
    return EXIT_OK


def cmd_pipeline(cfg: ExperimentConfig, with_mcc: bool = False) -> int:
    if with_mcc and cfg.runs < 2:
        raise ConfigError(f"pipeline --mcc needs runs >= 2, got runs={cfg.runs}")
    out_dir = _exp_dir(cfg)
    with evalx.stage("gen-data", cfg.seed):
        train, test = cmd_gen_data(cfg, out_dir)
    features, rows = evalx.run_experiment(cfg, train, test)
    for r, (model, z_train, z_test) in enumerate(features["ebm"]):
        _save_run(model, out_dir, f"_run{r}")
        _write_repr(os.path.join(out_dir, f"repr_train_run{r}.csv"), z_train)
        _write_repr(os.path.join(out_dir, f"repr_test_run{r}.csv"), z_test)
    report = os.path.join(out_dir, "pehe_report.csv")
    evalx.write_table(report, evalx.PEHE_COLUMNS, rows)
    print(f"report: {report}")
    for row in rows:
        print(f"  {row[0]:>3} {row[1]:>4}  pehe_sq={row[2]:.4f} +- {row[3]:.4f}")
    if with_mcc:
        with evalx.stage("mcc", cfg.seed):
            _mcc_report([z_test for *_, z_test in features["ebm"]], out_dir)
    return EXIT_OK


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
            cmd_gen_data(cfg, out)
            return EXIT_OK
        if args.command == "fit-ebm":
            return cmd_fit_ebm(cfg, args.train, out, init_seed=args.init_seed)
        # fit-cate: argparse admits no other command
        return cmd_fit_cate(cfg, args.data, out, features_path=args.features)
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
