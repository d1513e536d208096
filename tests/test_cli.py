
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixtrees import eft
from mixtrees.cli import SAMPLER_KEYS, ExperimentConfig, main, read_csv
from mixtrees.dataset import read_table
from mixtrees.sampler import Chain, SamplerConfig, load_draws, predict_from_archive

ROOT = Path(__file__).resolve().parent.parent

MINI_CONFIG = """\
[experiment]
name = mini

[dataset]
system = phi4
grid_lo = 0.03
grid_hi = 0.50
grid_n = 10
noise_sd = 0.005
seed = 3

[model.weak2]
kind = weak
order = 2
scale = one
q_map = x
yref_map = one
truncation = gp
n_design = 4
design_lo = 0.03
design_hi = 0.50

[model.strong4]
kind = strong
order = 4
scale = inv_sqrt_x
q_map = inv_x
yref_map = inv_sqrt_x
truncation = gp
n_design = 4
design_lo = 0.03
design_hi = 0.50

[sampler]
trees = 4
k = 5.0
nu = 10
lambda = auto
n_burn = 40
n_keep = 60
seed = 5
min_leaf_n = 2
cutpoint_method = midpoints

[evaluation]
grid_n = 25
"""

MINI_2D = """\
[experiment]
name = mini2d

[dataset]
system = sincos2d
n = 30
x1_lo = -3.141592653589793
x1_hi = 3.141592653589793
x2_lo = -3.141592653589793
x2_hi = 3.141592653589793
noise_sd = 0.1
seed = 11

[model.h1]
kind = taylor_surface
sin_center = pi
sin_order = 7
cos_center = pi
cos_order = 10
truncation = none

[model.h2]
kind = taylor_surface
sin_center = -pi
sin_order = 13
cos_center = -pi
cos_order = 6
truncation = none

[sampler]
trees = 4
n_burn = 20
n_keep = 30
seed = 5

[evaluation]
mesh_per_dim = 5
"""


def with_setting(key, value, section="sampler"):
    """MINI_CONFIG with ``key = value`` in [section], replacing any old value.

    ``value`` may go on with more ``key = value`` lines, which replace too.
    """
    head, tail = MINI_CONFIG.split(f"[{section}]\n")
    body, _, rest = tail.partition("\n\n")
    new = f"{key} = {value}".splitlines()
    keys = {line.split(" = ")[0] for line in new}
    lines = [line for line in body.splitlines() if line.split(" = ")[0] not in keys]
    return head + f"[{section}]\n" + "\n".join(lines + new) + "\n\n" + rest


def src_env():
    """The environment with ``src`` first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def digests(run_dir):
    """SHA-256 of every file in ``run_dir``, by file name."""
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in run_dir.iterdir()
    }


@pytest.fixture
def mini_cfg(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI_CONFIG)
    return path


@pytest.fixture
def mini_2d_cfg(tmp_path):
    path = tmp_path / "mini2d.cfg"
    path.write_text(MINI_2D)
    return path


class TestSimulate:
    def test_writes_table_and_sidecar(self, mini_cfg, tmp_path):
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(mini_cfg), "--out", str(out)]) == 0
        ds = read_table(out / "mini" / "dataset.csv")
        assert ds.n == 10
        assert ds.noise_sd == 0.005
        meta = (out / "mini" / "dataset.meta").read_text()
        assert "config_hash" in meta and "seed = 3" in meta

    def test_noiseless_config(self, tmp_path):
        cfg_text = MINI_CONFIG.replace("noise_sd = 0.005", "noise_sd = 0.0")
        cfg = tmp_path / "clean.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        ds = read_table(out / "mini" / "dataset.csv")
        from mixtrees.dataset import true_system_phi4

        expect = [true_system_phi4(x) for x in ds.inputs[:, 0]]
        np.testing.assert_allclose(ds.outputs, expect, rtol=1e-12)

    def test_rerun_byte_identical(self, mini_cfg, tmp_path):
        out = tmp_path / "runs"
        main(["simulate", "--config", str(mini_cfg), "--out", str(out)])
        first = (out / "mini" / "dataset.csv").read_bytes()
        main(["simulate", "--config", str(mini_cfg), "--out", str(out)])
        assert (out / "mini" / "dataset.csv").read_bytes() == first

    def test_creates_missing_output_dir(self, mini_cfg, tmp_path):
        out = tmp_path / "deeply" / "nested" / "dir"
        assert main(["simulate", "--config", str(mini_cfg), "--out", str(out)]) == 0
        assert (out / "mini" / "dataset.csv").exists()


class TestFitEft:
    def test_writes_per_model_tables(self, mini_cfg, tmp_path):
        out = tmp_path / "runs"
        assert main(["fit-eft", "--config", str(mini_cfg), "--out", str(out)]) == 0
        meta, header, cols = read_csv(out / "mini" / "eft_weak2.csv")
        assert header == ["x1", "mean", "variance", "capped"]
        assert "config_hash" in meta
        assert np.all(cols["variance"] >= 0)
        assert (out / "mini" / "eft_strong4.csv").exists()

    def test_no_truncation_model_gives_zero_variance(self, mini_2d_cfg, tmp_path):
        out = tmp_path / "runs"
        assert main(["fit-eft", "--config", str(mini_2d_cfg), "--out", str(out)]) == 0
        _, header, cols = read_csv(out / "mini2d" / "eft_h1.csv")
        assert header[:2] == ["x1", "x2"]
        assert np.all(cols["variance"] == 0.0)

    def test_rerun_byte_identical(self, mini_cfg, tmp_path):
        out = tmp_path / "runs"
        main(["fit-eft", "--config", str(mini_cfg), "--out", str(out)])
        first = (out / "mini" / "eft_weak2.csv").read_bytes()
        main(["fit-eft", "--config", str(mini_cfg), "--out", str(out)])
        assert (out / "mini" / "eft_weak2.csv").read_bytes() == first

    # SHA-256 of each model's table, recorded like TestMix.GOLDEN.
    GOLDEN = {
        "mini": {
            "eft_weak2.csv": "010b8704363f6c3aa0e50896632b764245560ed7ff5defaf72b3ed352456d9b1",
            "eft_strong4.csv": "313e6e1b04351e3c4235e59576f04ade5f7ae4c680003d820694dd9c0531ae91",
        },
        "mini2d": {
            "eft_h1.csv": "6250164fa3727e7c654d1979590a6d24713b0cf445599b80596a819571683fdb",
            "eft_h2.csv": "f26291bfa84fc7f9c52f6d85b8674ecaf20b551f33be290fe2c8af03b0f88542",
        },
    }

    @pytest.mark.parametrize(
        "name, text", [("mini", MINI_CONFIG), ("mini2d", MINI_2D)], ids=["mini", "mini2d"]
    )
    def test_golden_bytes(self, tmp_path, name, text):
        # The series, the truncation-GP fit and the Taylor surfaces feed
        # these tables; a refactor of the model layer must keep every byte.
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / "runs"
        assert main(["fit-eft", "--config", str(cfg), "--out", str(out)]) == 0
        assert digests(out / name) == self.GOLDEN[name]


class TestMix:
    def test_full_run_writes_expected_artifacts(self, mini_cfg, tmp_path):
        out = tmp_path / "runs"
        assert main(["mix", "--config", str(mini_cfg), "--out", str(out)]) == 0
        run = out / "mini"
        for name in (
            "mix_grid.csv",
            "sigma2_trace.csv",
            "draws.txt",
            "run_meta.txt",
            "mix_summary.txt",
        ):
            assert (run / name).exists(), name
        _, header, cols = read_csv(run / "mix_grid.csv")
        assert "truth" in header and "wsum_mean" in header
        assert "w_weak2_mean" in header and "w_strong4_hi95" in header
        assert cols["mean"].size == 25
        summary = (run / "mix_summary.txt").read_text()
        assert "rmse_mixed_vs_truth" in summary
        assert "sigma2_posterior_mean" in summary

    def test_mix_reruns_byte_identical(self, mini_cfg, tmp_path):
        out = tmp_path / "runs"
        main(["mix", "--config", str(mini_cfg), "--out", str(out)])
        files = ["mix_grid.csv", "sigma2_trace.csv", "draws.txt", "mix_summary.txt"]
        first = {f: (out / "mini" / f).read_bytes() for f in files}
        main(["mix", "--config", str(mini_cfg), "--out", str(out)])
        for f in files:
            assert (out / "mini" / f).read_bytes() == first[f], f

    def test_seed_override_changes_draws(self, mini_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["mix", "--config", str(mini_cfg), "--out", str(out1)])
        main(["mix", "--config", str(mini_cfg), "--out", str(out2), "--seed", "99"])
        a = (out1 / "mini" / "sigma2_trace.csv").read_text()
        b = (out2 / "mini" / "sigma2_trace.csv").read_text()
        assert a != b

    def test_multiple_chains_pool_draws(self, mini_cfg, tmp_path):
        out = tmp_path / "runs"
        assert (
            main(["mix", "--config", str(mini_cfg), "--out", str(out), "--chains", "2"])
            == 0
        )
        _, _, cols = read_csv(out / "mini" / "sigma2_trace.csv")
        assert cols["draw"].size == 120  # 2 chains x 60 kept

    def test_numeric_failure_in_worker_chain_exits_3(
        self, mini_cfg, tmp_path, capsys, monkeypatch
    ):
        caller = os.getpid()
        sweep = Chain.gibbs_sweep

        def fails_in_worker(self, **kwargs):
            if os.getpid() != caller:
                raise FloatingPointError("chain 1 diverged")
            return sweep(self, **kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(Chain, "gibbs_sweep", fails_in_worker)
        out = tmp_path / "runs"
        args = ["mix", "--config", str(mini_cfg), "--out", str(out), "--chains", "2"]
        assert main(args) == 3
        assert "chain 1 diverged" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not (out / "mini" / "mix_grid.csv").exists()

    @pytest.mark.parametrize("chains", ["1", "2"])
    def test_archive_repredicts_mix_grid_exactly(self, mini_cfg, tmp_path, chains):
        out = tmp_path / "runs"
        args = ["mix", "--config", str(mini_cfg), "--out", str(out), "--chains", chains]
        assert main(args) == 0
        cfg = ExperimentConfig(mini_cfg)
        data = cfg.build_dataset()
        grid = cfg.eval_grid(data)
        names, _, grid_means = cfg.prediction_set(data, grid, cfg.sampler_config())
        summary = predict_from_archive(
            load_draws(out / "mini" / "draws.txt"), grid, grid_means
        )
        expected = {
            "mean": summary.mean, "lo95": summary.lo, "hi95": summary.hi,
            "wsum_mean": summary.wsum_mean, "wsum_lo95": summary.wsum_lo,
            "wsum_hi95": summary.wsum_hi,
        }
        for i, name in enumerate(names):
            expected[f"w_{name}_mean"] = summary.weight_mean[:, i]
            expected[f"w_{name}_lo95"] = summary.weight_lo[:, i]
            expected[f"w_{name}_hi95"] = summary.weight_hi[:, i]
        _, header, cols = read_csv(out / "mini" / "mix_grid.csv")
        assert set(expected) <= set(header)
        for column, values in expected.items():
            np.testing.assert_array_equal(cols[column], values, err_msg=column)

    # SHA-256 of mix_grid.csv, sigma2_trace.csv and draws.txt.  Recorded with
    # numpy 2.4.6 and its bundled OpenBLAS 0.3.31 (Haswell kernels); another
    # numpy/BLAS build may round a dot product differently in the last bit
    # and then needs its own values.
    GOLDEN = {
        "1": (
            "48acc40b8a552fc750e1c31dac72fa6a9b99583f4ba9ce1d94e8f2070ec6e1d1",
            "66b6a0d7dbeb85050a995bf7ed2aa882355c3c6d04661ed69d6e9c75be6159bf",
            "d89c72fcf07bbaa8f582acbd19b40877bbe023e798b0d3799ff1b8e49bb9005e",
        ),
        "2": (
            "dd0b0bce1aee1574150e98cf26f23a995e5731c4780333fa008e195eef9d0c32",
            "0526426ae9c318adb491633d2ed85b7220aa1b72ba4eaa9d5ccceb88effa38d5",
            "b16137982cb3eeda7dc2b02440378ea8238d2469b0dc57e4750c2964c7283b74",
        ),
    }

    @pytest.mark.parametrize("chains", ["1", "2"])
    def test_golden_bytes(self, mini_cfg, tmp_path, chains):
        # A refactor that changes any RNG call, row order or float sum of
        # the mix path changes these bytes.
        out = tmp_path / "runs"
        args = ["mix", "--config", str(mini_cfg), "--out", str(out), "--chains", chains]
        assert main(args) == 0
        files = ("mix_grid.csv", "sigma2_trace.csv", "draws.txt")
        digests = tuple(
            hashlib.sha256((out / "mini" / f).read_bytes()).hexdigest() for f in files
        )
        assert digests == self.GOLDEN[chains]

    def test_mix_on_2d_problem(self, mini_2d_cfg, tmp_path):
        out = tmp_path / "runs"
        assert main(["mix", "--config", str(mini_2d_cfg), "--out", str(out)]) == 0
        _, header, cols = read_csv(out / "mini2d" / "mix_grid.csv")
        assert header[:2] == ["x1", "x2"]
        assert cols["mean"].size == 25  # 5 x 5 mesh

    def test_dataset_from_file(self, mini_cfg, tmp_path):
        # Simulate first, then point a mix config at the written table.
        out = tmp_path / "runs"
        main(["simulate", "--config", str(mini_cfg), "--out", str(out)])
        data_file = out / "mini" / "dataset.csv"
        cfg_text = MINI_CONFIG.replace(
            "[dataset]\nsystem = phi4",
            f"[dataset]\nfile = {data_file}\nsystem = phi4",
        )
        cfg = tmp_path / "file.cfg"
        cfg.write_text(cfg_text)
        assert main(["mix", "--config", str(cfg), "--out", str(out)]) == 0

    def test_non_finite_output_in_table_is_numeric_failure(self, tmp_path, capsys):
        data_file = tmp_path / "nan.csv"
        data_file.write_text("x1,y\n0.1,1.0\n0.2,nan\n")
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(
            MINI_CONFIG.replace(
                "[dataset]\nsystem = phi4",
                f"[dataset]\nfile = {data_file}\nsystem = phi4",
            )
        )
        out = tmp_path / "runs"
        assert main(["mix", "--config", str(cfg), "--out", str(out)]) == 3
        assert "line 3" in capsys.readouterr().err
        assert not (out / "mini" / "mix_grid.csv").exists()


class TestBma:
    def test_writes_weights_and_curve(self, mini_cfg, tmp_path):
        out = tmp_path / "runs"
        assert main(["bma", "--config", str(mini_cfg), "--out", str(out)]) == 0
        _, _, wcols = read_csv(out / "mini" / "bma_weights.csv")
        assert wcols["weight"].sum() == pytest.approx(1.0)
        _, header, _ = read_csv(out / "mini" / "bma_curve.csv")
        assert "mean" in header

    def test_single_model_gets_weight_one(self, tmp_path):
        cfg_text = MINI_CONFIG.split("[model.strong4]")[0] + MINI_CONFIG.split(
            "design_hi = 0.50\n\n", 2
        )[2]
        cfg = tmp_path / "single.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "runs"
        assert main(["bma", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, wcols = read_csv(out / "mini" / "bma_weights.csv")
        assert wcols["weight"].tolist() == [1.0]

    def test_identical_models_split_evenly(self, tmp_path):
        cfg_text = MINI_CONFIG.replace("[model.strong4]", "[model.weak2b]").replace(
            """kind = strong
order = 4
scale = inv_sqrt_x
q_map = inv_x
yref_map = inv_sqrt_x""",
            """kind = weak
order = 2
scale = one
q_map = x
yref_map = one""",
        )
        cfg = tmp_path / "twin.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "runs"
        assert main(["bma", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, wcols = read_csv(out / "mini" / "bma_weights.csv")
        np.testing.assert_allclose(wcols["weight"], [0.5, 0.5], atol=1e-12)

    def test_lambda_match_mean_changes_log_evidence(self, tmp_path):
        # bma reads [sampler] like mix does, so lambda_match reaches the
        # calibrated variance prior.
        evidence = {}
        for match in ("mode", "mean"):
            cfg = tmp_path / f"{match}.cfg"
            cfg.write_text(with_setting("lambda_match", match))
            out = tmp_path / match
            assert main(["bma", "--config", str(cfg), "--out", str(out)]) == 0
            _, _, wcols = read_csv(out / "mini" / "bma_weights.csv")
            evidence[match] = wcols["log_evidence"]
        assert np.all(evidence["mode"] != evidence["mean"])

    GOLDEN = {
        "bma_weights.csv": "0a76ba60e7ab8f459a495aba28cb200bc5797abcd238a68d76f19847d8b53693",
        "bma_curve.csv": "7cdd29572e148f6d1064ad8f115908cd08cd6111c8079dc7be4b5422f1f285b1",
    }

    def test_golden_bytes(self, mini_cfg, tmp_path):
        out = tmp_path / "runs"
        assert main(["bma", "--config", str(mini_cfg), "--out", str(out)]) == 0
        assert digests(out / "mini") == self.GOLDEN


class TestReport:
    def test_report_matches_summary_and_is_stable(self, mini_cfg, tmp_path, capsys):
        out = tmp_path / "runs"
        main(["mix", "--config", str(mini_cfg), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out / "mini")]) == 0
        first = capsys.readouterr().out
        assert first == (out / "mini" / "mix_summary.txt").read_text()
        assert main(["report", str(out / "mini")]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "damage", ["renamed_column", "missing_cell", "non_numeric", "nan_cell"]
    )
    def test_damaged_table_exits_3_naming_file_and_line(
        self, mini_cfg, tmp_path, capsys, damage
    ):
        # A damaged table exits 3 naming its file and the line or column,
        # never with a traceback or a summary of nan.
        out = tmp_path / "runs"
        assert main(["mix", "--config", str(mini_cfg), "--out", str(out)]) == 0
        run = out / "mini"
        grid_damage = damage in ("renamed_column", "missing_cell")
        table = "mix_grid.csv" if grid_damage else "sigma2_trace.csv"
        lines = (run / table).read_text().splitlines()
        head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        row = head + 5
        cells = lines[row].split(",")
        where = f"line {row + 1}"
        if damage == "renamed_column":
            lines[head] = lines[head].replace("wsum_mean", "wsum_avg")
            where = "'wsum_mean'"
        elif damage == "missing_cell":
            lines[row] = ",".join(cells[:-1])
        else:
            cells[-1] = "oops" if damage == "non_numeric" else "nan"
            lines[row] = ",".join(cells)
        (run / table).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", str(run)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert table in captured.err and where in captured.err
        assert "Traceback" not in captured.err

    def test_missing_run_dir_is_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["mix", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_unknown_system(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINI_CONFIG.replace("system = phi4", "system = warp"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_missing_required_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINI_CONFIG.replace("grid_n = 10\n", ""))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_bad_model_kind(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINI_CONFIG.replace("kind = weak", "kind = wobbly"))
        assert (
            main(["fit-eft", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        )

    @pytest.mark.parametrize(
        "key, value, args",
        [
            ("trees", "0", []),
            ("k", "0", []),
            ("nu", "-1", []),
            ("lambda", "-1", []),
            ("lambda_match", "foo", []),
            ("thin", "0", []),
            ("n_keep", "0", []),
            ("min_leaf_n", "0", []),
            ("cutpoints", "0", []),
            ("cutpoint_method", "foo", []),
            ("chains", "0", []),
            ("chains", "1", ["--chains", "-1"]),
            pytest.param("lambda_match", "mean\nnu = 2", [], id="lambda_match-mean-nu-2"),
            ("n_kep", "10", []),
            ("k", "inf", []),
            ("nu", "inf", []),
            ("lambda", "inf", []),
            ("seed", "-3", []),
            ("seed", "5", ["--seed", "-1"]),
        ],
    )
    def test_bad_sampler_value(self, tmp_path, capsys, key, value, args):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(with_setting(key, value))
        out = tmp_path / "runs"
        assert main(["mix", "--config", str(cfg), "--out", str(out)] + args) == 2
        assert "error" in capsys.readouterr().err
        assert not (out / "mini" / "mix_grid.csv").exists()

    @pytest.mark.parametrize(
        "section, text",
        [
            ("[experiment]", with_setting("title", "mini", "experiment")),
            ("[dataset]", with_setting("sede", "3", "dataset")),
            ("[model.strong4]", with_setting("scael", "inv_sqrt_x", "model.strong4")),
            ("[evaluation]", with_setting("grid_nn", "50", "evaluation")),
            ("[output]", MINI_CONFIG + "\n[output]\ndirectory = runs\n"),
            ("section [sampel]", MINI_CONFIG.replace("[sampler]", "[sampel]")),
        ],
        ids=["experiment", "dataset", "model", "evaluation", "output", "section"],
    )
    def test_unknown_key_or_section(self, tmp_path, capsys, section, text):
        # A misspelt key or section would be silently ignored; it exits 2
        # naming both before any set-up, so no run directory is made.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "runs"
        assert main(["mix", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown ") and section in err
        assert not out.exists()

    def test_informative_needs_truncation_variances(self, tmp_path, capsys, monkeypatch):
        # A surface with truncation = none has zero variance, which the
        # informative prior cannot weigh: mix exits 2 naming the model
        # before any model is evaluated; fit-eft and bma do not read it.
        cfg = tmp_path / "informative.cfg"
        cfg.write_text(MINI_2D.replace("[sampler]\n", "[sampler]\ninformative = true\n"))
        out = tmp_path / "runs"
        for command in ("fit-eft", "bma"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0

        def evaluated(*args):
            raise AssertionError("a model was evaluated")

        monkeypatch.setattr(eft, "predict_exact", evaluated)
        capsys.readouterr()
        assert main(["mix", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: informative = true") and "[model.h1]" in err
        assert not (out / "mini2d" / "mix_grid.csv").exists()

    @pytest.mark.parametrize("command", ["fit-eft", "bma"])
    def test_seed_flag_only_where_read(self, mini_cfg, tmp_path, capsys, command):
        # Only simulate and mix read a seed, so only they take --seed.
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(mini_cfg), "--out", str(out), "--seed", "99"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_with_dataset_file_is_config_error(self, mini_cfg, tmp_path, capsys):
        # A dataset read from a table has no seed for --seed to override.
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(mini_cfg), "--out", str(out)]) == 0
        data_file = out / "mini" / "dataset.csv"
        cfg = tmp_path / "file.cfg"
        cfg.write_text(
            MINI_CONFIG.replace(
                "[dataset]\nsystem = phi4",
                f"[dataset]\nfile = {data_file}\nsystem = phi4",
            )
        )
        again = tmp_path / "again"
        args = ["simulate", "--config", str(cfg), "--out", str(again), "--seed", "5"]
        capsys.readouterr()
        assert main(args) == 2
        assert "[dataset] file" in capsys.readouterr().err
        assert not (again / "mini" / "dataset.csv").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("dataset", "noise_sd", "-1"),
            ("dataset", "noise_sd", "nan"),
            ("dataset", "grid_n", "1"),
            ("dataset", "grid_lo", "nan"),
            ("dataset", "grid_hi", "inf"),
            ("evaluation", "grid_n", "1"),
            ("model.weak2", "order", "-1"),
            ("model.weak2", "n_design", "1"),
            ("model.weak2", "design_lo", "0.5"),
        ],
    )
    def test_bad_value_for_library(self, tmp_path, capsys, section, key, value):
        # A value the library rejects while the run is set up is a config
        # error, as a bad [sampler] value is.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(with_setting(key, value, section))
        out = tmp_path / "runs"
        assert main(["mix", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not (out / "mini" / "mix_grid.csv").exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            pytest.param("x1_lo = -3.141592653589793", "x1_lo = -inf", id="x1_lo-inf"),
            pytest.param("mesh_per_dim = 5", "mesh_per_dim = 0", id="mesh_per_dim-0"),
        ],
    )
    def test_bad_2d_value_for_library(self, tmp_path, capsys, old, new):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINI_2D.replace(old, new))
        out = tmp_path / "runs"
        assert main(["mix", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not (out / "mini2d" / "mix_grid.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("nu", "0"), ("lambda", "foo"), ("lambda_match", "foo"), ("n_kep", "10")],
    )
    def test_bad_sampler_value_for_bma(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(with_setting(key, value))
        out = tmp_path / "runs"
        assert main(["bma", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not (out / "mini" / "bma_weights.csv").exists()

    TAYLOR = (
        "[model.h1]\nkind = taylor_surface\nsin_center = pi\nsin_order = 7\n"
        "cos_center = pi\ncos_order = 10\n"
    )
    WEAK = "[model.w2]\nkind = weak\norder = 2\n"
    GP = "q_map = x\nyref_map = one\nn_design = 4\ndesign_lo = 0.03\ndesign_hi = 0.50\n"

    @pytest.mark.parametrize("command", ["fit-eft", "mix", "bma"])
    @pytest.mark.parametrize(
        "config, section",
        [
            ("phi4+taylor", "[model.h1]"),
            ("sincos2d+weak", "[model.w2]"),
            ("sincos2d+weak_gp", "[model.w2]"),
            ("sincos2d+taylor_gp", "[model.h1]"),
        ],
    )
    def test_model_of_wrong_dimension(self, tmp_path, capsys, command, config, section):
        # A series takes a scalar and a Taylor surface a point (x1, x2); a
        # model of the other dimension, or a tail GP on a surface, is a
        # config error naming its section, found before any model runs.
        text = {
            "phi4+taylor": MINI_CONFIG.replace("[sampler]", self.TAYLOR + "\n[sampler]"),
            "sincos2d+weak": MINI_2D.replace(
                "[sampler]", self.WEAK + "truncation = none\n\n[sampler]"
            ),
            "sincos2d+weak_gp": MINI_2D.replace(
                "[sampler]", self.WEAK + self.GP + "\n[sampler]"
            ),
            "sincos2d+taylor_gp": MINI_2D.replace(
                "cos_order = 10\ntruncation = none",
                "cos_order = 10\ntruncation = gp\n" + self.GP,
            ),
        }[config]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "runs"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and section in err
        assert list(out.glob("*/*.csv")) == []

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("command", ["fit-eft", "mix", "bma"])
    def test_non_finite_model_prediction_exits_3(self, tmp_path, capsys, command):
        # The order-4 small-coupling series overflows at x = 1e80: the run
        # stops there, naming the model, instead of writing inf means or
        # failing later without naming it.
        data_file = tmp_path / "far.csv"
        data_file.write_text("x1,y\n0.1,2.4\n0.3,2.0\n1e80,0.1\n")
        cfg = tmp_path / "far.cfg"
        cfg.write_text(
            MINI_CONFIG.replace(
                "[dataset]\nsystem = phi4", f"[dataset]\nfile = {data_file}\nsystem = phi4"
            ).replace("order = 2\n", "order = 4\n")
        )
        out = tmp_path / "runs"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "non-finite prediction from [model.weak2]" in err
        assert list(out.glob("*/*.csv")) == []

    def test_config_hash_recorded_and_stable(self, mini_cfg):
        a = ExperimentConfig(mini_cfg)
        b = ExperimentConfig(mini_cfg)
        assert a.config_hash == b.config_hash
        assert len(a.config_hash) == 16


class TestSamplerKeys:
    # Every [sampler] key that feeds SamplerConfig, with a non-default value.
    KEYS = {
        "trees": "3", "k": "2.5", "informative": "true", "nu": "6",
        "lambda": "0.3", "lambda_match": "mean", "n_burn": "7", "n_keep": "9",
        "thin": "2", "seed": "11", "cutpoints": "20",
        "cutpoint_method": "midpoints", "min_leaf_n": "3",
    }

    @staticmethod
    def fields(tmp_path, settings):
        path = tmp_path / "keys.cfg"
        lines = "".join(f"{key} = {value}\n" for key, value in settings.items())
        path.write_text(f"[experiment]\nname = keys\n\n[sampler]\n{lines}")
        return dataclasses.asdict(ExperimentConfig(path).sampler_config())

    def test_every_sampler_field_is_set_by_a_key(self, tmp_path):
        # A field no key reaches is a setting only code can change, and a
        # key left out keeps SamplerConfig's default.
        base = self.fields(tmp_path, {})
        assert base == dataclasses.asdict(SamplerConfig())
        reached = set()
        for key, value in self.KEYS.items():
            got = self.fields(tmp_path, {key: value})
            changed = {name for name in got if got[name] != base[name]}
            assert len(changed) == 1, (key, changed)
            reached |= changed
        assert reached == {f.name for f in dataclasses.fields(SamplerConfig)}

    def test_default_section_keys_are_not_unknown(self, tmp_path):
        # configparser shows [DEFAULT]'s keys in every section.
        path = tmp_path / "keys.cfg"
        path.write_text("[DEFAULT]\nnoise_sd = 0.1\n\n[experiment]\nname = keys\n\n[sampler]\n")
        assert ExperimentConfig(path).sampler_config() == SamplerConfig()

    def test_readme_key_table_matches_defaults(self):
        # README's [sampler] table names exactly the accepted keys, and each
        # default it states parses to SamplerConfig's (chains: 1).
        text = (ROOT / "README.md").read_text()
        rows = {}
        for line in text.split("| Key | Default | Meaning |\n")[1].splitlines()[1:]:
            if not line.startswith("|"):
                break
            key, default = (cell.strip().strip("`") for cell in line.split("|")[1:3])
            rows[key] = default
        assert set(rows) == set(SAMPLER_KEYS) | {"chains"}
        assert int(rows.pop("chains")) == 1
        defaults = SamplerConfig()
        for key, default in rows.items():
            name, parse = SAMPLER_KEYS[key]
            assert parse(default) == getattr(defaults, name), key


def shipped_configs():
    """The INI text of every configs/*.cfg and of every benchmark workload's
    config at two seeds, each as a param with its name as id."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    return [pytest.param(p.read_text(), id=p.name) for p in configs] + [
        pytest.param(workloads.config_text(name, seed), id=f"{name}-{seed}")
        for name in workloads.WORKLOADS
        for seed in (0, 1)
    ]


class TestBenchmarkHooks:
    @pytest.mark.parametrize("text", shipped_configs())
    def test_shipped_configs_pass_the_key_check(self, tmp_path, text):
        # Every shipped and benchmark config names only known sections and
        # keys, and builds its sampler settings and models; no model runs.
        path = tmp_path / "shipped.cfg"
        path.write_text(text)
        cfg = ExperimentConfig(path)
        cfg.sampler_config()
        assert cfg.model_sections
        for section in cfg.model_sections:
            cfg.build_model(section)

    def test_traced_mix_reports_layer_counts(self, mini_cfg, tmp_path):
        # perfbench/trace_child.py patches sampler and tree internals by name;
        # a renamed or reshaped one breaks the traced benchmark run.
        metrics = tmp_path / "metrics.json"
        argv = [
            sys.executable,
            str(ROOT / "perfbench" / "trace_child.py"),
            str(mini_cfg),
            str(tmp_path / "runs"),
            str(tmp_path / "spans.tsv"),
            str(metrics),
        ]
        proc = subprocess.run(
            argv, env=src_env(), cwd=tmp_path, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        layers = json.loads(metrics.read_text())
        for name in (
            "trees.evaluate.calls",
            "trees.encode.calls",
            "trees.birth.valid",  # trace_child reads Proposal.valid
            "trees.death.valid",
            "node_model.log_ml.calls",
            "node_model.leaf.calls",  # sampler calls the _sample_leaf_raw it patches
            "cli.write_csv.calls",  # cli writes through the name trace_child patches
        ):
            assert layers[name] > 0, name

    def test_trace_targets_install(self):
        # install() looks up every name it wraps, so it fails on a renamed
        # one; its acceptance counter calls Chain._try_accept by position, so
        # a reshaped signature would only fail mid-run.
        run_python(
            "import sys\n"
            f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            "import trace_child\n"
            "trace_child.install(trace_child.Tracer())"
        )
        params = list(inspect.signature(Chain._try_accept).parameters)
        assert params == ["self", "j", "prop", "resid", "log_kind"]

    def test_verify_reads_mix_archives(self, mini_cfg, tmp_path):
        # perfbench/verify.py reads load_draws pairs, Tree.n_leaves,
        # Tree.leaves()[i].value and predict_from_archive; it must pass every
        # check on a finished run, with one chain and with two.
        requests = []
        for chains in ("1", "2"):
            out = tmp_path / f"runs{chains}"
            args = ["mix", "--config", str(mini_cfg), "--out", str(out), "--chains", chains]
            assert main(args) == 0
            requests.append(json.dumps({"config": str(mini_cfg), "out": str(out / "mini")}))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "verify.py")],
            input="\n".join(requests) + "\n",
            env=src_env(), cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        replies = [json.loads(line) for line in proc.stdout.splitlines()[1:]]
        assert [r["errors"] for r in replies] == [[], []]
        assert [r["chains"] for r in replies] == [1, 2]


def run_python(code):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestImports:
    def test_cli_import_skips_scipy(self):
        # The package needs no scipy; only a multi-chain fit imports the
        # process pool.
        run_python(
            "import sys, mixtrees.cli\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n"
            "for name in ('multiprocessing', 'concurrent.futures'):\n"
            "    assert name not in sys.modules, name"
        )

    def test_phi4_commands_import_no_scipy(self, mini_cfg, tmp_path):
        # The phi4 truth, the series coefficients, the coefficient GP and
        # the bma evidence are numpy and math only.
        out = str(tmp_path / "runs")
        run_python(
            "import sys\n"
            "from mixtrees.cli import main\n"
            "for command in ('mix', 'fit-eft', 'bma'):\n"
            f"    assert main([command, '--config', {str(mini_cfg)!r}, '--out', {out!r}]) == 0\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded"
        )

    def test_mix_without_series_imports_no_scipy(self, mini_2d_cfg, tmp_path):
        # The sincos2d mix has no series, GP or quadrature, so it needs no scipy.
        out = tmp_path / "runs"
        run_python(
            "import sys\n"
            "from mixtrees.cli import main\n"
            f"assert main(['mix', '--config', {str(mini_2d_cfg)!r}, '--out', {str(out)!r}]) == 0\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded"
        )
