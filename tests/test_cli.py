
import numpy as np
import pytest

from mixtrees.cli import ExperimentConfig, main, read_csv
from mixtrees.dataset import read_table

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

    def test_config_hash_recorded_and_stable(self, mini_cfg):
        a = ExperimentConfig(mini_cfg)
        b = ExperimentConfig(mini_cfg)
        assert a.config_hash == b.config_hash
        assert len(a.config_hash) == 16
