"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line.  The three example reproductions are
stochastic (seeded chains; tolerance bands account for seed and chain
variation), while the oracle and exactness criteria are deterministic.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from mixtrees.baselines import run_bma
from mixtrees.cli import ExperimentConfig
from mixtrees.dataset import linspace_grid
from mixtrees.eft import (
    expansion_runs,
    extract_coefficients,
    fit_eft,
    truncation_cov,
    weak_expansion,
)
from mixtrees.node_model import (
    LeafPrior,
    NodeData,
    NoisePrior,
    leaf_posterior,
    log_marginal_likelihood,
    sample_sigma2,
)
from mixtrees.trees import log_tree_prior
from mixtrees.sampler import (
    Chain,
    PredictionSet,
    SamplerConfig,
    fit_chains,
    predict_mixed,
    rmse,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def run_example(path: Path):
    cfg = ExperimentConfig(path)
    data = cfg.build_dataset()
    grid = cfg.eval_grid(data)
    scfg = cfg.sampler_config()
    names, ps, grid_means = cfg.prediction_set(data, grid, scfg)
    system, _ = cfg.system()
    truth = np.array([system(*row) for row in grid])
    start = time.perf_counter()
    draws = fit_chains(data, ps, scfg, cfg.n_chains())
    elapsed = time.perf_counter() - start
    summary = predict_mixed(draws, grid, grid_means)
    return {
        "cfg": cfg,
        "data": data,
        "grid": grid,
        "grid_means": grid_means,
        "truth": truth,
        "names": names,
        "ps": ps,
        "draws": draws,
        "summary": summary,
        "rmse": rmse(summary.mean, truth),
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def example1a():
    return run_example(CONFIG_DIR / "example1a.cfg")


@pytest.fixture(scope="module")
def example1b():
    return run_example(CONFIG_DIR / "example1b.cfg")


@pytest.fixture(scope="module")
def example2():
    return run_example(CONFIG_DIR / "example2.cfg")


class TestHarness:
    def test_informative_config_gets_prediction_variances(self, tmp_path):
        # The informative leaf prior reads the models' training-point
        # variances, so the harness must hand them to the sampler.
        text = (CONFIG_DIR / "example1a.cfg").read_text()
        for old, new in (
            ("informative = false", "informative = true"),
            ("n_burn = 2000", "n_burn = 20"),
            ("n_keep = 5000", "n_keep = 20"),
        ):
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "informative.cfg"
        path.write_text(text)
        result = run_example(path)
        ps = result["ps"]
        assert ps.variances is not None and ps.variances.shape == ps.means.shape
        assert result["draws"].n_kept == 40  # 2 chains x 20 kept
        assert np.all(np.isfinite(result["summary"].mean))


class TestCriterion1Example1a:
    def test_rmse_and_runtime(self, example1a):
        r, t = example1a["rmse"], example1a["elapsed"]
        report(
            "criterion 1 (example 1a reproduction)",
            r <= 0.02 and t <= 120.0,
            f"rmse={r:.4f} (<= 0.02), runtime={t:.0f}s (<= 120s); reference value 0.0053",
        )


class TestCriterion2Example1b:
    def test_rmse_and_wsum_dip(self, example1b):
        r = example1b["rmse"]
        wsum = example1b["summary"].wsum_mean
        grid = example1b["grid"][:, 0]
        mid = (grid >= 0.1) & (grid <= 0.4)
        dip = float(wsum[mid].min())
        report(
            "criterion 2 (example 1b reproduction)",
            r <= 0.02 and dip < 0.9,
            f"rmse={r:.4f} (<= 0.02), min wsum in intermediate range={dip:.3f} (< 0.9); "
            "reference value 0.0057",
        )


class TestCriterion3Example2:
    def test_rmse_and_bottom_half_weight(self, example2):
        r = example2["rmse"]
        grid = example2["grid"]
        w2 = example2["summary"].weight_mean[:, 1]
        bottom = grid[:, 1] <= 0.0
        frac = float(np.mean(w2[bottom] >= 0.8))
        report(
            "criterion 3 (example 2 reproduction)",
            r <= 0.35 and frac >= 0.5,
            f"rmse={r:.4f} (<= 0.35), share of bottom half with w2>=0.8: {frac:.2f} "
            "(>= 0.5); reference value 0.2575",
        )


class TestCriterion4BmaFailure:
    def test_bma_picks_weak_and_underperforms(self, example1a):
        data = example1a["data"]
        train_mean = example1a["ps"].means
        grid_mean = example1a["grid_means"]
        truth = example1a["truth"]
        noise = example1a["cfg"].sampler_config().noise_prior(train_mean, data.outputs)
        result = run_bma(data.outputs, train_mean, grid_mean, noise)
        weak_ix = example1a["names"].index("weak2")
        w_weak = result.posterior_probs[weak_ix]
        bma_rmse = rmse(result.mean, truth)
        ratio = bma_rmse / example1a["rmse"]
        report(
            "criterion 4 (model-averaging failure mode)",
            w_weak >= 0.99 and ratio >= 10.0,
            f"weight on weak expansion={w_weak:.6f} (>= 0.99), "
            f"averaging rmse={bma_rmse:.3f} vs mixing rmse={example1a['rmse']:.4f}, "
            f"ratio={ratio:.0f}x (>= 10x)",
        )


class TestCriterion5ConjugacyOracles:
    def test_marginal_likelihood_collapsed_identity(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, 4))
            nd = NodeData(rng.normal(size=n), rng.normal(size=(n, k)))
            lp = LeafPrior(rng.normal(size=k), float(rng.uniform(0.2, 2.0)))
            s2 = float(rng.uniform(0.1, 2.0))
            ours = log_marginal_likelihood(nd, lp, s2)
            cov = s2 * np.eye(n) + lp.sd ** 2 * nd.design @ nd.design.T
            ref = stats.multivariate_normal.logpdf(nd.residuals, nd.design @ lp.mean, cov)
            worst = max(worst, abs(ours - ref) / abs(ref))
        report(
            "criterion 5a (collapsed-Gaussian identity)",
            worst < 1e-10,
            f"worst relative error over 100 instances: {worst:.2e} (< 1e-10)",
        )

    def test_leaf_posterior_against_integration_oracle(self):
        rng = np.random.default_rng(99)
        nd = NodeData(rng.normal(size=5), rng.normal(size=(5, 2)))
        lp = LeafPrior([0.1, -0.2], 0.8)
        s2 = 0.5
        mean, cov = leaf_posterior(nd, lp, s2)
        sds = np.sqrt(np.diag(cov))
        g1 = np.linspace(mean[0] - 7 * sds[0], mean[0] + 7 * sds[0], 501)
        g2 = np.linspace(mean[1] - 7 * sds[1], mean[1] + 7 * sds[1], 501)
        M1, M2 = np.meshgrid(g1, g2, indexing="ij")
        mus = np.column_stack([M1.ravel(), M2.ravel()])
        resid = nd.residuals[None, :] - mus @ nd.design.T
        logpost = (
            -0.5 * np.sum(resid ** 2, axis=1) / s2
            - 0.5 * np.sum((mus - lp.mean) ** 2, axis=1) / lp.sd ** 2
        )
        w = np.exp(logpost - logpost.max())
        w /= w.sum()
        est_mean = w @ mus
        centered = mus - est_mean
        est_cov = (w[:, None] * centered).T @ centered
        err = max(
            np.abs(mean - est_mean).max(), np.abs(cov - est_cov).max()
        )
        report(
            "criterion 5b (leaf posterior vs numerical integration)",
            err < 1e-3,
            f"worst moment error: {err:.2e} (< 1e-3)",
        )

    def test_sigma2_conditional_parameters_exact(self):
        # The draw must be exactly nu' lam' / chi2(nu') with nu' = n + nu,
        # lam' = (SSE + nu lam) / (n + nu): reproduce it from a twin rng.
        nu, lam, n, sse = 10.0, 0.01, 20, 0.005
        draw = sample_sigma2(sse, n, NoisePrior(nu, lam), np.random.default_rng(5))
        nu_post = n + nu
        lam_post = (sse + nu * lam) / nu_post
        twin = nu_post * lam_post / np.random.default_rng(5).chisquare(nu_post)
        report(
            "criterion 5c (sigma2 conditional parameters)",
            draw == twin,
            f"nu'={nu_post:g}, lam'={lam_post:.6g}; draw reproduces formula exactly",
        )


class TestCriterion6McmcExactness:
    def test_structure_frequencies_match_enumeration(self):
        # 2 training points, 2 cutpoints, 1 tree, sigma2 held: the state
        # space is {root, split@c1, split@c2} and the posterior can be
        # enumerated exactly.
        rng = np.random.default_rng(0)
        X = np.array([[0.2], [0.8]])
        y = np.array([0.9, 0.4])
        F = np.array([[1.0, 0.5], [0.6, 1.2]])
        ps = PredictionSet(means=F)
        sigma2 = 0.05
        cfg = SamplerConfig(
            m=1,
            k=1.0,
            n_burn=0,
            n_keep=1,
            seed=3,
            cutpoints_per_dim=2,
            min_leaf_n=1,
        )
        chain = Chain(X, y, ps, cfg)
        chain.sigma2 = sigma2
        cuts = chain.grid.cuts[0]
        assert cuts.size == 2

        lp = chain.base_prior

        def state_log_post(cut):
            from mixtrees.trees import Tree

            if cut is None:
                tree = Tree.decode("L 1 0", chain.grid)
                sets = [np.array([0, 1])]
            else:
                tree = Tree.decode(f"I 0 {cut:.17g} L 1 0 L 1 0", chain.grid)
                sets = [np.array([0]), np.array([1])]
            log_ml = sum(
                log_marginal_likelihood(NodeData(y[idx], F[idx]), lp, sigma2)
                for idx in sets
            )
            return log_tree_prior(tree) + log_ml

        log_posts = np.array(
            [state_log_post(None), state_log_post(cuts[0]), state_log_post(cuts[1])]
        )
        target = np.exp(log_posts - log_posts.max())
        target /= target.sum()

        n_sweeps = 1_000_000
        counts = np.zeros(3)
        for _ in range(n_sweeps):
            chain.gibbs_sweep(hold_sigma2=True)
            tree = chain.trees[0]
            if tree.var[0] < 0:
                counts[0] += 1
            elif tree.cut[0] == cuts[0]:
                counts[1] += 1
            else:
                counts[2] += 1
        freqs = counts / n_sweeps
        worst = float(np.abs(freqs - target).max())
        report(
            "criterion 6 (small-instance MCMC exactness)",
            worst < 0.02,
            f"visit frequencies {np.round(freqs, 4).tolist()} vs exact "
            f"{np.round(target, 4).tolist()}; worst gap {worst:.4f} (< 0.02)",
        )


class TestCriterion7WeightSumDiagnostic:
    def test_example1a_wsum_near_one(self, example1a):
        wsum = example1a["summary"].wsum_mean
        lo, hi = float(wsum.min()), float(wsum.max())
        report(
            "criterion 7 (weight-sum diagnostic, example 1a)",
            lo >= 0.9 and hi <= 1.1,
            f"posterior mean weight sum ranges [{lo:.3f}, {hi:.3f}] within [0.9, 1.1]",
        )


class TestCriterion8EftRoundTrip:
    def test_extraction_inverts_evaluation(self):
        # Orders 2 and 4 are the ones the example model sets use; the
        # extraction differences hit float64 cancellation near x = 0.03
        # around order 6, so higher orders cannot meet this tolerance.
        worst = 0.0
        for order in (2, 3, 4):
            e = weak_expansion(order)
            for x in linspace_grid(0.03, 0.50, 4):
                rec = extract_coefficients(expansion_runs(e, [x])[0], q=x, yref=1.0)
                scale = np.max(np.abs(e.coefficients))
                worst = max(worst, np.max(np.abs(rec - e.coefficients)) / scale)
        ok_round = worst < 1e-12

        e = weak_expansion(2)
        gp = fit_eft(e, linspace_grid(0.03, 0.50, 4), lambda x: x, lambda x: 1.0)
        min_eig = np.inf
        for lo, hi in ((0.03, 0.5), (0.1, 0.9), (0.02, 0.3)):
            grid = linspace_grid(lo, hi, 10)
            K = np.array(
                [[truncation_cov(gp, 2, a, b) for b in grid] for a in grid]
            )
            min_eig = min(min_eig, float(np.linalg.eigvalsh(K).min()))
        ok_psd = min_eig >= -1e-8
        report(
            "criterion 8 (EFT round trip and PSD covariance)",
            ok_round and ok_psd,
            f"worst round-trip relative error {worst:.2e} (< 1e-12); "
            f"smallest covariance eigenvalue {min_eig:.2e} (>= -1e-8)",
        )
