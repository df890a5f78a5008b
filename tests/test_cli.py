import os

import numpy as np
import pytest

from cate_ebm import load_csv, load_model
from cate_ebm.cli import main
from cate_ebm.config import PRESETS, ExperimentConfig, load_config
from cate_ebm.errors import ConfigError


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
            ExperimentConfig(k=25, d=20).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(rho=0.0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(learners=("t", "z")).validate()

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config(path="/nonexistent/exp.ini")

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

        repr_csv = os.path.join(out, "repr.csv")
        assert main(["transform", "--model", model_path, "--data", train_csv,
                     "--out", repr_csv]) == 0
        z = np.loadtxt(repr_csv, delimiter=",", skiprows=1)
        assert z.shape == (120, 2)
        assert np.abs(z.mean(axis=0)).max() < 1e-8

        assert main(["fit-cate", "--config", cfg_path, "--out", out,
                     "--data", train_csv, "--features", repr_csv]) == 0
        preds = np.loadtxt(os.path.join(out, "predictions_t.csv"),
                           delimiter=",", skiprows=1)
        assert preds.shape == (120, 2)

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
        assert main(["mcc", "--models", m1, m2, "--data", train_csv,
                     "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "mcc.csv"))

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
        assert main(["pipeline", "--config", cfg_path]) == 0
        exp_dir = next((tmp_path / "results").iterdir())
        out = tmp_path / "steps"
        assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        # run r of the pipeline trains with init seed seed + 101 * (r + 1)
        init_seed = load_config(path=cfg_path).seed + 101
        assert main(["fit-ebm", "--config", cfg_path, "--out", str(out),
                     "--train", str(out / "train.csv"), "--init-seed", str(init_seed)]) == 0
        assert main(["transform", "--model", str(out / "model.preb"),
                     "--data", str(out / "test.csv"), "--out", str(out / "repr.csv")]) == 0
        for step_file, pipeline_file in (("train.csv", "train.csv"), ("test.csv", "test.csv"),
                                         ("model.preb", "model_run0.preb"),
                                         ("train_log.csv", "train_log_run0.csv"),
                                         ("repr.csv", "repr_test_run0.csv")):
            assert (out / step_file).read_bytes() == (exp_dir / pipeline_file).read_bytes()


class TestExitCodes:
    def test_missing_data_file(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        assert main(["fit-ebm", "--config", cfg_path,
                     "--train", str(tmp_path / "nope.csv")]) == 2

    def test_bad_config(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[ebm]\nk = 200\n")
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

    def test_malformed_csv(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,a,y\n1.0,7,2.0\n")
        assert main(["fit-ebm", "--config", cfg_path, "--out",
                     str(tmp_path), "--train", str(bad)]) == 2

    @pytest.mark.parametrize("body", ["z0,z1\n0.5,oops\n", "z0,z1\n0.5,nan\n",
                                      "z0,z1\n0.5,1.0\n0.5\n", ""])
    def test_malformed_representation_csv(self, tmp_path, capsys, body):
        cfg_path = _write_cfg(tmp_path)
        data = tmp_path / "d.csv"
        data.write_text("x0,a,y\n1.0,0,2.0\n")
        feats = tmp_path / "z.csv"
        feats.write_text(body)
        assert main(["fit-cate", "--config", cfg_path, "--out", str(tmp_path),
                     "--data", str(data), "--features", str(feats)]) == 2
        if "oops" in body or "nan" in body:
            err = capsys.readouterr().err
            assert "row 2" in err and "'z1'" in err

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


def _read(path):
    with open(path) as fh:
        return fh.read()
