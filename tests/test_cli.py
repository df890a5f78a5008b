import dataclasses
import os
import struct
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest

from cate_ebm import (
    BaseSpec,
    Dataset,
    Mlp,
    TrainConfig,
    cli,
    fit_learner,
    load_csv,
    load_model,
    make_rng,
    pehe,
    save_csv,
    save_model,
    train_ebm,
)
from cate_ebm import evalx
from cate_ebm.cli import main
from cate_ebm.config import PRESETS, ExperimentConfig, load_config
from cate_ebm.dgp import gen_dgp, sample, write_csv
from cate_ebm.errors import (
    ConfigError,
    DimensionError,
    IllConditionedError,
    TrainingDivergedError,
)


FAST_CONFIG = """\
[dgp]
d = 8
n = 120
seed = 5
test_size = 60

[ebm]
k = 2
b = 2
rho = 0.5
hidden = 8
epochs = 4
batch = 32
patience = 10

[learners]
kinds = t
base = ridge
cv = false

[eval]
runs = 2

[io]
out_dir = {out}
"""


def _write_cfg(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(FAST_CONFIG.format(out=tmp_path / "results"))
    return str(path)


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_presets_validate(self):
        for name in PRESETS:
            cfg = ExperimentConfig()
            for key, value in PRESETS[name].items():
                setattr(cfg, key, value)
            cfg.validate()

    def test_file_parsing(self, tmp_path):
        cfg = load_config(path=_write_cfg(tmp_path))
        assert (cfg.d, cfg.n, cfg.k, cfg.b) == (8, 120, 2, 2)
        assert cfg.hidden == (8,)
        assert cfg.learners == ("t",)
        assert cfg.base_cv is False

    def test_preset_lookup(self):
        cfg = load_config(preset="synth_d100_n250")
        assert (cfg.d, cfg.n, cfg.b, cfg.k) == (100, 250, 10, 4)
        assert cfg.rho == 0.5
        with pytest.raises(ConfigError):
            load_config(preset="nope")

    def test_overrides(self, tmp_path):
        cfg = load_config(path=_write_cfg(tmp_path), seed_override=99,
                          out_override="elsewhere")
        assert cfg.seed == 99
        assert cfg.out_dir == "elsewhere"

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(rho=0.0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(learners=("t", "z")).validate()

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config(path="/nonexistent/exp.ini")

    @pytest.mark.parametrize("word, value", [
        ("1", True), ("YES", True), ("True", True), ("oN", True),
        ("0", False), ("No", False), ("FALSE", False), ("oFf", False), ("maybe", None),
    ])
    def test_bool_words(self, tmp_path, capsys, word, value):
        path = tmp_path / "cv.ini"
        path.write_text(f"[learners]\ncv = {word}\n")
        if value is not None:
            assert load_config(path=str(path)).base_cv is value
            return
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: [learners] cv: cannot parse 'maybe'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\npreset = synth_d100_n250\n[dgp]\nseed = 3\n[ebm]\nk = 2\n",
        "[ebm]\npreset = synth_d100_n250\nk = 2\n[dgp]\nseed = 3\n",
    ])
    def test_preset_key_in_file(self, tmp_path, text):
        path = tmp_path / "p.ini"
        path.write_text(text)
        cfg = load_config(path=str(path))
        assert (cfg.d, cfg.n, cfg.b) == (100, 250, 10)
        assert (cfg.k, cfg.seed) == (2, 3)  # file keys override the preset

    def test_byte_order_mark_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" and some editors start a UTF-8 file with a BOM
        plain = _write_cfg(tmp_path)
        bom = tmp_path / "bom.ini"
        bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "exp.ini").read_bytes())
        assert load_config(path=str(bom)) == load_config(path=plain)

    def test_train_config_copies_by_name(self):
        # each TrainConfig field is the ExperimentConfig setting of the same name
        names = {f.name for f in dataclasses.fields(TrainConfig)}
        assert names <= {f.name for f in dataclasses.fields(ExperimentConfig)}
        for name in PRESETS:
            cfg = load_config(preset=name)
            assert cfg.train_config() == TrainConfig(
                k=cfg.k, b=cfg.b, rho=cfg.rho, hidden=cfg.hidden, epochs=cfg.epochs,
                batch_size=cfg.batch_size, lr=cfg.lr, seed=cfg.seed, patience=cfg.patience)

    def test_fingerprint_tracks_content(self):
        a = ExperimentConfig()
        b = ExperimentConfig(seed=1)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == ExperimentConfig().fingerprint()


class TestCommands:
    def test_gen_data_then_fit_chain(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        out = str(tmp_path / "work")
        assert main(["gen-data", "--config", cfg_path, "--out", out]) == 0
        train_csv = os.path.join(out, "train.csv")
        assert load_csv(train_csv).n == 120

        assert main(["fit-ebm", "--config", cfg_path, "--out", out,
                     "--train", train_csv]) == 0
        model_path = os.path.join(out, "model.preb")
        model = load_model(model_path)
        assert model.k == 2

        log_csv = os.path.join(out, "train_log.csv")
        log = np.loadtxt(log_csv, delimiter=",", skiprows=1)
        assert _read(log_csv) == "epoch,train_loss,val_loss\n" + "".join(
            _g17(int(e), tr, va) for e, tr, va in log)

        repr_csv = os.path.join(out, "repr.csv")
        assert main(["transform", "--model", model_path, "--data", train_csv,
                     "--out", repr_csv]) == 0
        z = np.loadtxt(repr_csv, delimiter=",", skiprows=1)
        assert z.shape == (120, 2)
        assert np.abs(z.mean(axis=0)).max() < 1e-8
        assert _read(repr_csv) == "z0,z1\n" + "".join(
            _g17(*row) for row in model.represent(load_csv(train_csv).x))

        assert main(["fit-cate", "--config", cfg_path, "--out", out,
                     "--data", train_csv, "--features", repr_csv]) == 0
        preds_csv = os.path.join(out, "predictions_t.csv")
        preds = np.loadtxt(preds_csv, delimiter=",", skiprows=1)
        assert preds.shape == (120, 2)
        assert _read(preds_csv) == "row,tau_hat\n" + "".join(
            _g17(i, v) for i, v in enumerate(preds[:, 1]))

    def test_mcc_command(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        out = str(tmp_path / "work")
        main(["gen-data", "--config", cfg_path, "--out", out])
        train_csv = os.path.join(out, "train.csv")
        for seed, tag in ((5, "a"), (6, "b")):
            assert main(["fit-ebm", "--config", cfg_path, "--out",
                         os.path.join(out, tag), "--train", train_csv,
                         "--init-seed", str(seed)]) == 0
        m1 = os.path.join(out, "a", "model.preb")
        m2 = os.path.join(out, "b", "model.preb")
        # a fresh --out directory is created, as the other subcommands do
        mcc_out = os.path.join(out, "mcc_out")
        assert main(["mcc", "--models", m1, m2, "--data", train_csv,
                     "--out", mcc_out]) == 0
        assert os.path.exists(os.path.join(mcc_out, "mcc.csv"))

    def test_datasets_and_init_seeds_are_the_pipelines(self, tmp_path):
        # ExperimentConfig.datasets() is what gen-data writes, without the files
        cfg_path = _write_cfg(tmp_path)
        out = tmp_path / "work"
        assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        cfg = load_config(path=cfg_path)
        for mine, name in zip(cfg.datasets(), ("train.csv", "test.csv")):
            written = load_csv(out / name)
            for f in dataclasses.fields(mine):
                assert np.array_equal(getattr(mine, f.name), getattr(written, f.name)), f.name
        # one init seed per run; pinned, since every pipeline model is trained from them
        assert len(cfg.init_seeds()) == cfg.runs
        assert cfg.init_seeds() == [106, 207]

    def test_pipeline_end_to_end(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        assert main(["pipeline", "--config", cfg_path, "--mcc"]) == 0
        results = tmp_path / "results"
        exp_dirs = list(results.iterdir())
        assert len(exp_dirs) == 1
        files = {p.name for p in exp_dirs[0].iterdir()}
        assert {"train.csv", "test.csv", "pehe_report.csv", "mcc.csv",
                "model_run0.preb", "model_run1.preb"} <= files

    def test_pipeline_rerun_byte_identical(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        assert main(["pipeline", "--config", cfg_path]) == 0
        results = tmp_path / "results"
        exp_dir = next(results.iterdir())
        before = {p.name: p.read_bytes() for p in exp_dir.iterdir()}
        assert main(["pipeline", "--config", cfg_path]) == 0
        after = {p.name: p.read_bytes() for p in exp_dir.iterdir()}
        assert before == after

    def test_pipeline_matches_subcommands(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        assert main(["pipeline", "--config", cfg_path, "--mcc"]) == 0
        exp_dir = next((tmp_path / "results").iterdir())
        out = tmp_path / "steps"
        assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        init_seed = load_config(path=cfg_path).init_seeds()[0]  # the pipeline's run 0
        assert main(["fit-ebm", "--config", cfg_path, "--out", str(out),
                     "--train", str(out / "train.csv"), "--init-seed", str(init_seed)]) == 0
        assert main(["transform", "--model", str(out / "model.preb"),
                     "--data", str(out / "test.csv"), "--out", str(out / "repr.csv")]) == 0
        # the pipeline's MCC table is the mcc subcommand's, on its own model files
        assert main(["mcc", "--models", str(exp_dir / "model_run0.preb"),
                     str(exp_dir / "model_run1.preb"), "--data", str(exp_dir / "test.csv"),
                     "--out", str(out)]) == 0
        for step_file, pipeline_file in (("train.csv", "train.csv"), ("test.csv", "test.csv"),
                                         ("model.preb", "model_run0.preb"),
                                         ("train_log.csv", "train_log_run0.csv"),
                                         ("repr.csv", "repr_test_run0.csv"),
                                         ("mcc.csv", "mcc.csv"), ("mcc.txt", "mcc.txt")):
            assert (out / step_file).read_bytes() == (exp_dir / pipeline_file).read_bytes()

    def test_pipeline_models_match_separate_trainings(self, tmp_path):
        # the runs train together; each model file is the one its own training writes
        cfg_path = _write_cfg(tmp_path)
        assert main(["pipeline", "--config", cfg_path]) == 0
        cfg = load_config(path=cfg_path)
        exp_dir = next((tmp_path / "results").iterdir())
        train = load_csv(exp_dir / "train.csv")
        for r, init_seed in enumerate(cfg.init_seeds()):
            model = train_ebm(train.x, cfg.train_config(), cfg.b_matrix(), init_seed=init_seed)
            save_model(model, tmp_path / "alone.preb")
            assert ((tmp_path / "alone.preb").read_bytes()
                    == (exp_dir / f"model_run{r}.preb").read_bytes())

    def test_fit_cate_matches_fit_learner(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(FAST_CONFIG.format(out=tmp_path / "results")
                            .replace("kinds = t", "kinds = x,t,r"))
        out = tmp_path / "work"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["fit-cate", "--config", str(cfg_path), "--out", str(out),
                     "--data", str(out / "train.csv")]) == 0
        cfg, ds = load_config(path=cfg_path), load_csv(out / "train.csv")
        for kind in ("x", "t", "r"):
            want = fit_learner(kind, Dataset(x=ds.x, a=ds.a, y=ds.y), cfg.base_spec(),
                               split_seed=cfg.seed).predict(ds.x)
            got = np.loadtxt(out / f"predictions_{kind}.csv", delimiter=",", skiprows=1)
            assert np.array_equal(got[:, 1], want)

    def test_pipeline_report_rebuilt_from_artifacts(self, tmp_path):
        # every report row is the PEHE of one learner refitted on the feature
        # files the pipeline wrote: raw covariates, then each run's representation
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(FAST_CONFIG.format(out=tmp_path / "results")
                            .replace("kinds = t", "kinds = t,x,dr,r"))
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        cfg = load_config(path=cfg_path)
        exp_dir = next((tmp_path / "results").iterdir())
        train, test = load_csv(exp_dir / "train.csv"), load_csv(exp_dir / "test.csv")

        def z(name):
            return np.loadtxt(exp_dir / name, delimiter=",", skiprows=1, ndmin=2)

        features = {"raw": [(train.x, test.x)],
                    "ebm": [(z(f"repr_train_run{r}.csv"), z(f"repr_test_run{r}.csv"))
                            for r in range(cfg.runs)]}
        want = ["learner,features,pehe_sq_mean,pehe_sq_std,pehe_root_mean"]
        for kind in cfg.learners:
            for name, pairs in features.items():
                vals = np.array([
                    pehe(fit_learner(kind, Dataset(x=zt, a=train.a, y=train.y),
                                     cfg.base_spec(), split_seed=cfg.seed).predict(zs),
                         test.tau)
                    for zt, zs in pairs])
                stats = (vals.mean(), vals.std(), np.mean(np.sqrt(vals)))
                want.append(",".join([kind, name, *("%.10g" % v for v in stats)]))
        assert (exp_dir / "pehe_report.csv").read_text().splitlines() == want
        assert len(want) == 9  # the header, then a raw and an ebm row per learner

    def test_run_experiment_sweep_writes_nothing(self, tmp_path, monkeypatch):
        # two cells of a sweep, differing in seed and learners: run_experiment
        # computes every file the pipeline writes, and writes none of them
        cells = []
        for seed, kinds in ((5, "t"), (6, "x,r")):
            path = tmp_path / f"cell{seed}.ini"
            path.write_text(FAST_CONFIG.format(out=tmp_path / "results")
                            .replace("kinds = t", f"kinds = {kinds}"))
            cells.append(load_config(path=path, seed_override=seed))
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.rglob("*"))
        results = []
        for cfg in cells:
            results.append(evalx.run_experiment(cfg, *cfg.datasets()))
        assert set(tmp_path.rglob("*")) == before
        assert not os.path.exists(cells[0].out_dir)

        for i, (cfg, (models, reps, rows)) in enumerate(zip(cells, results)):
            assert cli.cmd_pipeline(cfg, with_mcc=True) == 0
            exp_dir = tmp_path / "results" / f"exp-{cfg.fingerprint()}"
            mine = tmp_path / f"mine{i}"
            mine.mkdir()
            evalx.write_table(mine / "pehe_report.csv", evalx.PEHE_COLUMNS, rows)
            evalx.write_table(mine / "mcc.csv", ["model_i", "model_j", "mcc"],
                              evalx.mcc_pairs([z_test for _, z_test in reps]))
            files = ["pehe_report.csv", "pehe_report.txt", "mcc.csv", "mcc.txt"]
            for r, (model, (z_train, z_test)) in enumerate(zip(models, reps)):
                save_model(model, mine / f"model_run{r}.preb")
                cli._write_repr(str(mine / f"repr_train_run{r}.csv"), z_train)
                cli._write_repr(str(mine / f"repr_test_run{r}.csv"), z_test)
                files += [f"model_run{r}.preb", f"repr_train_run{r}.csv",
                          f"repr_test_run{r}.csv"]
            assert len(models) == cfg.runs and len(rows) == 2 * len(cfg.learners)
            for name in files:
                assert (mine / name).read_bytes() == (exp_dir / name).read_bytes(), name


class TestExitCodes:
    def test_missing_data_file(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        assert main(["fit-ebm", "--config", cfg_path,
                     "--train", str(tmp_path / "nope.csv")]) == 2

    def test_bad_config(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[ebm]\nk = 0\n")
        assert main(["gen-data", "--config", str(path)]) == 2

    def test_unknown_preset(self):
        assert main(["gen-data", "--preset", "nope"]) == 2

    @pytest.mark.parametrize("text", [
        "[ebm]\nbatch_size = 7\n",
        "[ebm]\nepoch = 2\n",
        "[dgp]\nk = 2\n",
        "[model]\nk = 2\n",
        "[DEFAULT]\nseed = 3\n",
        "[dgp]\npreset = desk\n",
    ])
    def test_unknown_config_key(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "unknown section or key" in capsys.readouterr().err
        assert not (tmp_path / "train.csv").exists()

    def test_kernel_arm_of_one_row(self, tmp_path, capsys):
        # one treated row: the arm's median heuristic has no pair of rows, which
        # must exit 2 with no nan predictions and no RuntimeWarning
        x = make_rng(0).standard_normal((60, 5))
        a = np.zeros(60, dtype=int)
        a[7] = 1
        data = tmp_path / "d.csv"
        save_csv(Dataset(x=x, a=a, y=x[:, 0]), data)
        cfg = tmp_path / "t.ini"
        cfg.write_text("[learners]\nkinds = t\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["fit-cate", "--config", str(cfg), "--data", str(data),
                         "--out", str(tmp_path / "out")]) == 2
        assert "median heuristic needs >= 2 rows, got 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "predictions_t.csv").exists()

    def test_malformed_csv(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,a,y\n1.0,7,2.0\n")
        assert main(["fit-ebm", "--config", cfg_path, "--out",
                     str(tmp_path), "--train", str(bad)]) == 2

    def test_repeated_data_column(self, tmp_path, capsys):
        # a second 'a' holding 1 - a: fit-cate once fitted the flipped treatment, exit 0
        x = make_rng(0).standard_normal((60, 3))
        a = np.arange(60) % 2
        data = tmp_path / "d.csv"
        write_csv(data, ["x0", "x1", "x2", "a", "y", "a"], [x, a, x[:, 0] + a, 1 - a])
        cfg = tmp_path / "t.ini"
        cfg.write_text("[dgp]\nd = 3\nn = 60\n[ebm]\nk = 2\n[learners]\nkinds = t\nbase = ridge\n")
        assert main(["fit-cate", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 2
        assert "column 'a' appears more than once" in capsys.readouterr().err
        assert not (tmp_path / "out" / "predictions_t.csv").exists()

    @pytest.mark.parametrize("body", ["z0,z1\n0.5,oops\n", "z0,z1\n0.5,nan\n",
                                      "z0,z1\n0.5,1.0\n0.5\n", "",
                                      "z0,tau\n0.5,1.0\n", "z1,z0\n0.5,1.0\n"])
    def test_malformed_representation_csv(self, tmp_path, capsys, body):
        cfg_path = _write_cfg(tmp_path)
        data = tmp_path / "d.csv"
        data.write_text("x0,a,y\n1.0,0,2.0\n")
        feats = tmp_path / "z.csv"
        feats.write_text(body)
        assert main(["fit-cate", "--config", cfg_path, "--out", str(tmp_path),
                     "--data", str(data), "--features", str(feats)]) == 2
        err = capsys.readouterr().err
        if "oops" in body or "nan" in body:
            assert "row 2" in err and "'z1'" in err
        if body.startswith(("z0,tau", "z1")):
            assert f"header is z0..z{{m-1}} in order, got {body.splitlines()[0]!r}" in err

    @pytest.mark.parametrize("body", [
        b"k = 2\n[ebm]\nb = 3\n",
        b"[ebm]\nk = 2\nk = 3\n",
        b"[io]\nout_dir = a%b\n",
        b"\xff\xfe[ebm]\nk = 2\n",
    ])
    def test_malformed_ini(self, tmp_path, capsys, body):
        path = tmp_path / "bad.ini"
        path.write_bytes(body)
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("command, column, value", [
        ("fit-cate", "y", "nan"), ("fit-ebm", "x0", "nan"), ("fit-cate", "y", "-inf")])
    def test_non_finite_data_cell(self, tmp_path, capsys, command, column, value):
        cfg_path = _write_cfg(tmp_path)
        rows = [[f"{0.1 * i:.1f}", str(i % 2), f"{0.2 * i:.1f}"] for i in range(60)]
        rows[4][2 if column == "y" else 0] = value
        data = tmp_path / "d.csv"
        data.write_text("x0,a,y\n" + "".join(",".join(r) + "\n" for r in rows))
        path_flag = "--data" if command == "fit-cate" else "--train"
        assert main([command, "--config", cfg_path, "--out", str(tmp_path),
                     path_flag, str(data)]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "row 6" in err and f"'{column}'" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the Gram matrix overflows
    def test_overflowed_ridge_system_is_numeric(self, tmp_path, capsys):
        x = make_rng(0).standard_normal((60, 3))
        x[:, 0] *= 1e200  # x^T x overflows to inf
        a = np.arange(60) % 2
        data = tmp_path / "d.csv"
        save_csv(Dataset(x=x, a=a, y=x[:, 1] + a), data)
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(FAST_CONFIG.format(out=tmp_path / "results")
                            .replace("kinds = t", "kinds = t,x,dr,r"))
        out = tmp_path / "out"
        assert main(["fit-cate", "--config", str(cfg_path), "--out", str(out),
                     "--data", str(data)]) == 3
        assert "non-finite value in a linear system" in capsys.readouterr().err
        assert not list(out.glob("predictions_*"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("base", ["ridge", "kernel"])
    def test_overflow_under_warnings_as_errors_is_numeric(self, tmp_path, capsys, base):
        # numpy's overflow warnings, raised as errors, do not end in a traceback:
        # the finiteness guards still decide, and the exit code stays 3
        x = make_rng(0).standard_normal((60, 3))
        x[:, 0] *= 1e200
        a = np.arange(60) % 2
        data = tmp_path / "d.csv"
        save_csv(Dataset(x=x, a=a, y=x[:, 1] + a), data)
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(FAST_CONFIG.format(out=tmp_path / "results")
                            .replace("kinds = t", "kinds = t,x,dr,r")
                            .replace("base = ridge", f"base = {base}"))
        assert main(["fit-cate", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--data", str(data)]) == 3
        assert capsys.readouterr().err.startswith("numeric failure: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_kmeans_distances_are_numeric(self, tmp_path, capsys):
        x = make_rng(0).standard_normal((60, 3))
        x[:, 0] *= 1e200  # the k-means++ distances overflow
        data = tmp_path / "d.csv"
        save_csv(Dataset(x=x, a=np.arange(60) % 2, y=x[:, 1]), data)
        cfg = tmp_path / "t.ini"
        cfg.write_text("[dgp]\nd = 3\nn = 60\n[ebm]\nk = 2\nb = 2\nhidden = 4\nepochs = 3\n")
        out = tmp_path / "out"
        assert main(["fit-ebm", "--config", str(cfg), "--train", str(data),
                     "--out", str(out)]) == 3
        assert ("numeric failure: k-means distances are not finite"
                in capsys.readouterr().err)
        assert not (out / "model.preb").exists()

    def test_covariates_beyond_the_noise_are_numeric(self, tmp_path, capsys):
        # squarable, but unit corruption noise cannot move x0: nothing would be learned
        x = make_rng(0).standard_normal((60, 3))
        x[:, 0] *= 1e100
        data = tmp_path / "d.csv"
        save_csv(Dataset(x=x, a=np.arange(60) % 2, y=x[:, 1]), data)
        cfg = tmp_path / "t.ini"
        cfg.write_text("[dgp]\nd = 3\nn = 60\n[ebm]\nk = 2\nb = 2\nhidden = 4\nepochs = 3\n")
        out = tmp_path / "out"
        assert main(["fit-ebm", "--config", str(cfg), "--train", str(data),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and "scale the covariates" in err
        assert not (out / "model.preb").exists()

    def test_diverged_training_under_warnings_as_errors_is_numeric(self, tmp_path):
        # the command as users run it, under python -W error::RuntimeWarning: the
        # overflow of a huge step is the loss's divergence (exit 3), not a traceback
        x = make_rng(0).standard_normal((60, 3))
        data = tmp_path / "d.csv"
        save_csv(Dataset(x=x, a=np.arange(60) % 2, y=x[:, 1]), data)
        cfg = tmp_path / "t.ini"
        cfg.write_text("[dgp]\nd = 3\nn = 60\n[ebm]\nk = 2\nb = 2\nhidden = 4\n"
                       "epochs = 5\nlr = 1e300\n")
        out = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "cate_ebm.cli", "fit-ebm",
             "--config", str(cfg), "--train", str(data), "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numeric failure: run with init seed 1 diverged")
        assert not (out / "model.preb").exists()

    @staticmethod
    def _duplicated_rows():
        """120 rows, d = 5, rows 60-119 repeating rows 0-59: at lam = 1e-300 the
        R-learner's kernel system is singular."""
        x = make_rng(0).standard_normal((60, 5))
        a = np.arange(60) % 2
        y = x[:, 0] + a * (1.0 + x[:, 1])
        return Dataset(x=np.vstack([x, x]), a=np.tile(a, 2), y=np.tile(y, 2))

    def test_singular_r_system_is_no_traceback(self, tmp_path):
        # its general solve once ended in numpy's LinAlgError, exit 1
        data = tmp_path / "d.csv"
        save_csv(self._duplicated_rows(), data)
        cfg = tmp_path / "r.ini"
        cfg.write_text("[learners]\nkinds = r\ncv = false\nlam = 1e-300\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "cate_ebm.cli", "fit-cate", "--config", str(cfg),
             "--data", str(data), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode in (0, 3), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_singular_r_system_is_no_linalg_error(self):
        ds = self._duplicated_rows()
        tau_hat = fit_learner("r", ds, BaseSpec(lam=1e-300, cv=False)).predict(ds.x)
        assert np.isfinite(tau_hat).all()

    @pytest.mark.parametrize("reader", ["data", "features"])
    def test_non_utf8_csv(self, tmp_path, capsys, reader):
        cfg_path = _write_cfg(tmp_path)
        good = {"data": b"x0,a,y\n1.0,0,2.0\n", "features": b"z0,z1\n0.5,1.0\n"}
        good[reader] = good[reader][:-1] + b"\xff\n"
        paths = {}
        for name, body in good.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_bytes(body)
        assert main(["fit-cate", "--config", cfg_path, "--out", str(tmp_path),
                     "--data", str(paths["data"]), "--features", str(paths["features"])]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["data_is_dir", "model_is_dir", "out_under_file",
                                      "pipeline_out_is_file"])
    def test_path_errors(self, tmp_path, capsys, case):
        cfg_path = _write_cfg(tmp_path)
        plain = tmp_path / "plain"
        plain.write_text("")
        data = tmp_path / "d.csv"
        data.write_text("x0,a,y\n1.0,0,2.0\n0.5,1,1.0\n")
        argv = {
            "data_is_dir": ["fit-cate", "--config", cfg_path, "--out", str(tmp_path),
                            "--data", str(tmp_path)],
            "model_is_dir": ["transform", "--model", str(tmp_path), "--data", str(data),
                             "--out", str(tmp_path / "z.csv")],
            "out_under_file": ["gen-data", "--config", cfg_path, "--out", str(plain / "sub")],
            "pipeline_out_is_file": ["pipeline", "--config", cfg_path, "--out", str(plain)],
        }[case]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_corrupt_model_file(self, tmp_path):
        bad = tmp_path / "bad.preb"
        bad.write_bytes(b"not a model file at all")
        data = tmp_path / "d.csv"
        data.write_text("x0,a,y\n1.0,0,2.0\n0.5,1,1.0\n")
        assert main(["transform", "--model", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "z.csv")]) == 2

    def test_mcc_incompatible_models(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        out = str(tmp_path / "work")
        main(["gen-data", "--config", cfg_path, "--out", out])
        train_csv = os.path.join(out, "train.csv")
        main(["fit-ebm", "--config", cfg_path, "--out",
              os.path.join(out, "a"), "--train", train_csv])
        # a second model trained with a different frozen B
        cfg2 = tmp_path / "exp2.ini"
        cfg2.write_text(_read(cfg_path).replace("[ebm]", "[ebm]\nb_seed = 7"))
        main(["fit-ebm", "--config", str(cfg2), "--out",
              os.path.join(out, "b"), "--train", train_csv])
        assert main(["mcc", "--models",
                     os.path.join(out, "a", "model.preb"),
                     os.path.join(out, "b", "model.preb"),
                     "--data", train_csv]) == 2

    @pytest.mark.parametrize("command", ["transform", "mcc"])
    def test_data_width_must_match_the_model(self, tmp_path, capsys, command):
        model = train_ebm(make_rng(0).standard_normal((40, 3)),
                          TrainConfig(k=2, b=2, hidden=(4,), epochs=1))
        path = tmp_path / "m.preb"
        save_model(model, path)
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("x0,a,y\n1.0,0,2.0\n0.5,1,1.0\n")
        argv = {"transform": ["--model", str(path), "--out", str(tmp_path / "z.csv")],
                "mcc": ["--models", str(path), str(path)]}[command]
        assert main([command, *argv, "--data", str(narrow)]) == 2
        assert capsys.readouterr().err == "error: model expects d=3, data has d=1\n"

    def test_fit_ebm_needs_k_covariates(self, tmp_path, capsys):
        # desk's k = 3 subsets of 2 covariates: no 3-dimensional representation
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("x0,x1,a,y\n" + "".join(
            f"{0.1 * i:.1f},{0.7 * i % 1:.1f},{i % 2},{0.2 * i:.1f}\n" for i in range(12)))
        assert main(["fit-ebm", "--preset", "desk", "--train", str(narrow),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: k=3 > d=2\n"

    @pytest.mark.parametrize("command", ["fit-ebm", "fit-cate"])
    @pytest.mark.parametrize("settings", ["[ebm]\nk = 25\n", "[dgp]\nn = 4\n[ebm]\nk = 3\n"])
    def test_k_is_checked_on_the_data_not_on_dgp(self, tmp_path, command, settings):
        # [dgp] d and n shape only synthetic data; the trainer checks k on the
        # CSV, here 300 rows of 30 covariates
        wide = str(tmp_path / "wide.csv")
        save_csv(sample(gen_dgp(0, d=30), 300, 1), wide)
        path = tmp_path / "k.ini"
        path.write_text(settings + "b = 2\nhidden = 4\nepochs = 1\n"
                        "[learners]\nkinds = t\nbase = ridge\ncv = false\n")
        data = {"fit-ebm": "--train", "fit-cate": "--data"}[command]
        assert main([command, "--config", str(path), data, wide,
                     "--out", str(tmp_path / "out")]) == 0

    def test_pipeline_checks_k_on_its_data(self, tmp_path, capsys):
        path = tmp_path / "k.ini"
        out = tmp_path / "results"
        path.write_text(f"[dgp]\nd = 4\nn = 40\ntest_size = 20\n[ebm]\nk = 5\n"
                        f"[io]\nout_dir = {out}\n")
        assert main(["pipeline", "--config", str(path)]) == 2
        assert (capsys.readouterr().err
                == "error: pipeline stage 'fit-ebm' failed (seed 0): k=5 > d=4\n")
        [exp] = out.iterdir()
        assert sorted(p.name for p in exp.iterdir()) == ["test.csv", "train.csv"]

    @pytest.mark.parametrize("error, code, prefix", [
        (TrainingDivergedError, 3, "numeric failure: "), (DimensionError, 2, "error: ")])
    def test_pipeline_failure_keeps_its_type(self, tmp_path, capsys, monkeypatch,
                                             error, code, prefix):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(evalx, "train_ebms", fail)
        cfg_path = _write_cfg(tmp_path)
        with pytest.raises(error, match=r"^pipeline stage 'fit-ebm' failed \(seed 5\): boom$"):
            cli.cmd_pipeline(load_config(path=cfg_path))
        capsys.readouterr()
        assert main(["pipeline", "--config", cfg_path]) == code
        assert capsys.readouterr().err == f"{prefix}pipeline stage 'fit-ebm' failed (seed 5): boom\n"

    def test_mcc_failure_names_its_stage(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise IllConditionedError("boom")

        monkeypatch.setattr(evalx, "mcc", fail)
        assert main(["pipeline", "--config", _write_cfg(tmp_path), "--mcc"]) == 3
        assert (capsys.readouterr().err
                == "numeric failure: pipeline stage 'mcc' failed (seed 5): boom\n")

    @pytest.mark.parametrize("command, stage", [("fit-ebm", "train_ebm"),
                                                ("pipeline", "train_ebms")])
    def test_out_of_memory_is_an_input_error(self, tmp_path, capsys, monkeypatch,
                                             command, stage):
        # as numpy raises it for [ebm] b = 100000000; an allocation that large
        # is not attempted, since a host that overcommits memory may kill the run
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 5.82 TiB for an array")

        monkeypatch.setattr(cli if command == "fit-ebm" else evalx, stage, fail)
        x = make_rng(0).standard_normal((30, 8))
        data = tmp_path / "d.csv"
        save_csv(Dataset(x=x, a=np.arange(30) % 2, y=x[:, 0]), data)
        extra = ["--train", str(data)] if command == "fit-ebm" else []
        assert main([command, "--config", _write_cfg(tmp_path), "--out", str(tmp_path / "out"),
                     *extra]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 5.82 TiB for an array\n"

    def test_candidates_beyond_index_range(self, tmp_path, capsys):
        # rejected before the candidate array is allocated
        x = make_rng(0).standard_normal((96, 8))
        data = tmp_path / "d.csv"
        save_csv(Dataset(x=x, a=np.arange(96) % 2, y=x[:, 0]), data)
        cfg = tmp_path / "big.ini"
        cfg.write_text(FAST_CONFIG.format(out=tmp_path / "results")
                       .replace("b = 2\n", "b = 100000000000000000\n"))
        assert main(["fit-ebm", "--config", str(cfg), "--train", str(data),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceed numpy's index range" in err


    def test_diverged_run_names_its_init_seed(self, tmp_path, capsys, monkeypatch):
        from cate_ebm import nce
        made = []

        def mlp(widths, rng=None):
            net = Mlp(widths, rng=rng)
            made.append(net)
            if len(made) == 2:  # run 1 of the pipeline
                net.flat[:] = np.nan
            return net

        monkeypatch.setattr(nce, "Mlp", mlp)
        cfg_path = _write_cfg(tmp_path)
        assert main(["pipeline", "--config", cfg_path]) == 3
        init_seed = load_config(path=cfg_path).init_seeds()[1]
        assert ("numeric failure: pipeline stage 'fit-ebm' failed (seed 5): "
                f"run with init seed {init_seed} diverged at epoch 0: non-finite"
                in capsys.readouterr().err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestHugeWeights:
    """A model whose first-layer weight is finite but huge loads, and the
    numbers it leads to are caught as a numeric failure (exit 3), with no
    overflow warning."""

    @pytest.fixture
    def files(self, tmp_path):
        x = make_rng(0).standard_normal((40, 3))
        data = tmp_path / "d.csv"
        save_csv(Dataset(x=x, a=np.arange(40) % 2, y=x[:, 0]), data)
        model = train_ebm(x, TrainConfig(k=2, b=2, hidden=(4, 4), epochs=3))
        good = tmp_path / "good.preb"
        save_model(model, good)
        return model, data, good

    @pytest.mark.parametrize("weight", [1e300, 1e200, 1e160])
    def test_mcc_overflow_is_numeric(self, files, tmp_path, capsys, weight):
        model, data, good = files
        model.net.params[0][0, 0] = weight
        huge = tmp_path / "huge.preb"
        save_model(model, huge)
        assert main(["mcc", "--models", str(huge), str(good), "--data", str(data)]) == 3
        captured = capsys.readouterr()
        assert "std or correlation is not finite" in captured.err
        assert "mean mcc" not in captured.out

    @pytest.mark.parametrize("command", ["transform", "mcc"])
    def test_nonfinite_representation_is_numeric(self, files, tmp_path, capsys, command):
        model, data, good = files
        model.net.params[0][...] = 1e308
        huge = tmp_path / "huge.preb"
        save_model(model, huge)
        out = tmp_path / "z.csv"
        argv = (["transform", "--model", str(huge), "--out", str(out)] if command == "transform"
                else ["mcc", "--models", str(huge), str(good)])
        assert main([*argv, "--data", str(data)]) == 3
        assert "non-finite network output" in capsys.readouterr().err
        assert not out.exists()

    def test_warnings_as_errors_exit_3(self, files, tmp_path):
        # the commands as users run them, under python -W error::RuntimeWarning
        model, data, good = files
        model.net.params[0][0, 0] = 1e300  # a column's squares overflow in mcc
        save_model(model, tmp_path / "huge.preb")
        model.net.params[0][...] = 1e308  # the forward matmul overflows
        save_model(model, tmp_path / "inf.preb")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        for argv, message in (
                (["transform", "--model", str(tmp_path / "inf.preb"),
                  "--out", str(tmp_path / "z.csv")], "non-finite network output"),
                (["mcc", "--models", str(tmp_path / "huge.preb"), str(good)],
                 "std or correlation is not finite")):
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "cate_ebm.cli", *argv,
                 "--data", str(data)],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
            assert proc.returncode == 3, proc.stderr
            assert proc.stderr.startswith("numeric failure: ") and message in proc.stderr


def _read(path):
    with open(path, newline="") as fh:
        return fh.read()


def _g17(*values) -> str:
    """One CSV line formatted by hand: every cell %.17g, LF line end."""
    return ",".join("%.17g" % v for v in values) + "\n"


def _corrupt_models(raw: bytes):
    """Every truncation of a model file, then one flipped bit per byte (bit
    i % 8 of byte i). Outside the stored CRC the CRC is recomputed, so the
    parser, not the checksum, meets the damage."""
    for i in range(len(raw)):
        yield raw[:i]
    for i in range(len(raw)):
        flipped = bytearray(raw)
        flipped[i] ^= 1 << (i % 8)
        if i < len(raw) - 4:
            body = bytes(flipped[:-4])
            flipped = body + struct.pack("<I", zlib.crc32(body))
        yield bytes(flipped)


class TestFuzz:
    """Corrupt inputs to the file-reading subcommands end in exit 0, 2 or 3,
    never in an uncaught exception."""

    @pytest.fixture(autouse=True)
    def one_parser(self, monkeypatch):
        # building the parser is most of the cost of a call that fails early
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)

    @staticmethod
    def _exit_code(capsys, argv) -> int:
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err
        return code

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_corrupt_model_files(self, tmp_path, capsys):
        x = make_rng(0).standard_normal((12, 3))
        data = tmp_path / "d.csv"
        save_csv(Dataset(x=x, a=np.arange(12) % 2, y=x[:, 0]), data)
        good = tmp_path / "good.preb"
        save_model(train_ebm(x, TrainConfig(k=2, b=2, hidden=(4, 4), epochs=2)), good)
        bad = tmp_path / "bad.preb"
        codes = set()
        for blob in _corrupt_models(good.read_bytes()):
            bad.write_bytes(blob)
            codes.add(self._exit_code(capsys, ["transform", "--model", str(bad), "--data",
                                               str(data), "--out", os.devnull]))
            codes.add(self._exit_code(capsys, ["mcc", "--models", str(bad), str(good),
                                               "--data", str(data)]))
        # flipped weights still load, and those that blow up the representations
        # fail as numeric (3); broken layouts do not load (2)
        assert codes == {0, 2, 3}

    def test_corrupt_csv_files(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path)
        rows = [[f"{0.1 * i:.1f}", f"{0.7 * i % 1:.1f}", str(i % 2), f"{0.2 * i:.1f}"]
                for i in range(30)]

        def table(row=None, col=None, value=None):
            body = [list(r) for r in rows]
            if row is not None:
                body[row][col:col + 1] = value
            return "x0,x1,a,y\n" + "".join(",".join(r) + "\n" for r in body)

        corpus = {
            "nan_x": table(3, 0, ["nan"]), "inf_y": table(4, 3, ["inf"]),
            "ninf_x": table(5, 1, ["-inf"]), "short_row": table(6, 1, []),
            "long_row": table(7, 3, ["1.0", "2.0"]), "a_2": table(8, 2, ["2"]),
            "empty": "", "header_only": "x0,x1,a,y\n",
        }
        path = tmp_path / "d.csv"
        for name, text in {"good": table(), **corpus}.items():
            path.write_text(text)
            for command, flag in (("fit-cate", "--data"), ("fit-ebm", "--train")):
                code = self._exit_code(capsys, [command, "--config", cfg_path, "--out",
                                                str(tmp_path / "out"), flag, str(path)])
                assert code == (0 if name == "good" else 2), (name, command)

    @pytest.mark.parametrize("edit, argv", [
        (("cv = false", "cv = false\nlam = 0"), ["fit-cate", "--data"]),
        (("kinds = t\nbase = ridge\ncv = false", "kinds = dr\nbase = ridge\ncv = true\nlam = -1"),
         ["fit-cate", "--data"]),
        (None, ["gen-data", "--seed", "-1"]),
        (("[ebm]\n", "[ebm]\nb_seed = -3\n"), ["fit-ebm", "--train"]),
        (None, ["fit-ebm", "--init-seed", "-1", "--train"]),
        (("test_size = 60", "test_size = 1"), ["gen-data"]),
        (("test_size = 60", "test_size = 2"), ["gen-data", "--seed", "1"]),  # one arm only
        (("[ebm]\n", "[ebm]\nlr = -1\n"), ["fit-ebm", "--train"]),
        (("[ebm]\n", "[ebm]\nlr = 0\n"), ["fit-ebm", "--train"]),
        (("[ebm]\n", "[ebm]\nlr = nan\n"), ["fit-ebm", "--train"]),
        (("kinds = t", "kinds ="), ["fit-cate", "--data"]),
        (("runs = 2", "runs = 1"), ["pipeline", "--mcc"]),
        (("hidden = 8", "hidden = 0"), ["fit-ebm", "--train"]),
        (("hidden = 8", "hidden = 4,-3"), ["fit-ebm", "--train"]),
        (("kinds = t", "kinds = t,t,r"), ["pipeline"]),
        (("patience = 10", "patience = 0"), ["fit-ebm", "--train"]),
    ], ids=["lam_0_cv_off", "lam_negative_dr_cv_on", "seed_negative", "b_seed_negative",
            "init_seed_negative", "test_size_1", "test_size_2_one_arm", "lr_negative",
            "lr_0", "lr_nan", "no_learners", "mcc_one_run", "hidden_0", "hidden_negative",
            "repeated_kinds", "patience_0"])
    def test_invalid_settings(self, tmp_path, capsys, edit, argv):
        # each setting exits 2 with a message, before any model is trained
        text = FAST_CONFIG.format(out=tmp_path / "results")
        if edit:
            text = text.replace(*edit)
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(text)
        x = make_rng(0).standard_normal((60, 3))
        data = tmp_path / "d.csv"
        save_csv(Dataset(x=x, a=np.arange(60) % 2, y=x[:, 0]), data)
        if argv[-1] in ("--data", "--train"):
            argv = [*argv, str(data)]
        code = main([argv[0], "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     *argv[1:]])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err, (code, err)
        assert not list(tmp_path.rglob("*.preb"))
