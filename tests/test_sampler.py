import hashlib

import numpy as np
import pytest

from mixtrees.dataset import Dataset
from mixtrees.node_model import NodeData, leaf_posterior, log_marginal_likelihood
from mixtrees.sampler import (
    Chain,
    PosteriorDraws,
    PredictionSet,
    SamplerConfig,
    evaluate_weights_batch,
    fit_bmm,
    load_draws,
    predict_from_archive,
    predict_mixed,
    rmse,
    save_draws,
)
from mixtrees.trees import CutpointGrid, Tree, log_tree_prior


def make_problem(n=12, k=2, seed=0, n_grid=15):
    """Small synthetic mixing problem with smooth model curves."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    f1 = 1.0 + 0.5 * x
    f2 = 2.0 - x
    w_true = np.column_stack([1.0 / (1.0 + np.exp(10 * (x - 0.5))), np.zeros(n)])
    w_true[:, 1] = 1.0 - w_true[:, 0]
    y = f1 * w_true[:, 0] + f2 * w_true[:, 1] + rng.normal(0, 0.05, n)
    grid = np.linspace(0.0, 1.0, n_grid)
    g1 = 1.0 + 0.5 * grid
    g2 = 2.0 - grid
    data = Dataset(inputs=x, outputs=y, noise_sd=0.05, seed=seed)
    ps = PredictionSet(
        means=np.column_stack([f1, f2])[:, :k],
        grid=grid,
        grid_means=np.column_stack([g1, g2])[:, :k],
    )
    return data, ps


def root_tree(grid, value):
    return Tree.root_only(grid, np.asarray(value, dtype=float))


class TestTreeResiduals:
    def test_single_tree_with_zero_leaf_gives_y(self):
        data, ps = make_problem()
        cfg = SamplerConfig(m=1, n_burn=1, n_keep=1, structure_moves=False)
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        chain.trees[0].values[0] = np.zeros(2)
        chain.fits[0] = 0.0
        chain.total_fit = chain.fits.sum(axis=0)
        np.testing.assert_array_equal(chain.tree_residuals(0), data.outputs)

    def test_zero_valued_other_trees_give_y(self):
        data, ps = make_problem()
        cfg = SamplerConfig(m=3, n_burn=1, n_keep=1)
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        for t in chain.trees:
            t.values[0] = np.zeros(2)
        chain.fits[:] = 0.0
        chain.total_fit = chain.fits.sum(axis=0)
        np.testing.assert_array_equal(chain.tree_residuals(1), data.outputs)

    def test_three_tree_bruteforce_oracle(self):
        data, ps = make_problem()
        cfg = SamplerConfig(m=3, n_burn=1, n_keep=1, seed=5)
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        rng = np.random.default_rng(17)
        for t in chain.trees:
            t.values[0] = rng.normal(size=2)
        chain.fits = np.stack(
            [
                np.einsum("nk,nk->n", chain.F, t.evaluate(chain.X))
                for t in chain.trees
            ]
        )
        chain.total_fit = chain.fits.sum(axis=0)
        j = 1
        expected = data.outputs.copy()
        for q, tree in enumerate(chain.trees):
            if q == j:
                continue
            expected -= np.einsum("nk,nk->n", chain.F, tree.evaluate(chain.X))
        np.testing.assert_allclose(chain.tree_residuals(j), expected, rtol=1e-12)


class TestMhBookkeeping:
    def test_birth_then_death_log_ratios_antisymmetric(self):
        # Growing a rule and collapsing it back must produce exactly
        # opposite total log acceptance ratios on the same residuals.
        from mixtrees.trees import propose_birth, propose_death

        data, ps = make_problem()
        cfg = SamplerConfig(m=1, n_burn=1, n_keep=1, seed=2)
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        resid = chain.tree_residuals(0)
        rng = np.random.default_rng(3)
        birth = propose_birth(chain.trees[0], chain.X, chain.tree_cfg, rng)
        assert birth.valid

        def total_log_ratio(prop):
            return (
                chain._leaf_sets_log_ml(prop.new_leaf_sets, resid)
                - chain._leaf_sets_log_ml(prop.old_leaf_sets, resid)
                + prop.log_prior_ratio
                + prop.log_reverse
                - prop.log_forward
            )

        forward = total_log_ratio(birth)
        death = propose_death(birth.tree, chain.X, chain.tree_cfg, rng)
        backward = total_log_ratio(death)
        assert forward == pytest.approx(-backward, rel=1e-10)

    def test_acceptance_factors_match_hand_computation(self):
        # 1-leaf vs 2-leaf pair: enumerate every factor of the MH ratio.
        data, ps = make_problem()
        cfg = SamplerConfig(m=1, k=1.0, n_burn=1, n_keep=1, seed=2)
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        resid = chain.tree_residuals(0)
        from mixtrees.trees import propose_birth

        rng = np.random.default_rng(10)
        prop = propose_birth(chain.trees[0], chain.X, chain.tree_cfg, rng)
        assert prop.valid
        old_tree, new_tree = chain.trees[0], prop.tree

        lp = chain.base_prior
        s2 = chain.sigma2
        hand_ml_new = sum(
            log_marginal_likelihood(NodeData(resid[idx], chain.F[idx]), lp, s2)
            for idx in prop.new_leaf_sets
        )
        hand_ml_old = log_marginal_likelihood(
            NodeData(resid, chain.F), lp, s2
        )
        hand_prior = log_tree_prior(new_tree, chain.tree_cfg) - log_tree_prior(
            old_tree, chain.tree_cfg
        )
        n_cuts = old_tree.n_cuts(0, 0)
        hand_forward = np.log(1.0 / n_cuts)
        hand_reverse = np.log(1.0)  # one collapsible node after birth
        got = (
            chain._leaf_sets_log_ml(prop.new_leaf_sets, resid)
            - chain._leaf_sets_log_ml(prop.old_leaf_sets, resid)
            + prop.log_prior_ratio
            + prop.log_reverse
            - prop.log_forward
        )
        hand = (
            hand_ml_new
            - hand_ml_old
            + hand_prior
            + hand_reverse
            - hand_forward
        )
        assert got == pytest.approx(hand, rel=1e-10)

    def test_min_leaf_violations_auto_reject(self):
        data, ps = make_problem(n=4)
        cfg = SamplerConfig(
            m=1, n_burn=1, n_keep=1, seed=0, min_leaf_n=3, cutpoints_per_dim=50
        )
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        # 4 points can never split into two sides of >= 3.
        accepted = [chain.mh_tree_update(0) for _ in range(100)]
        assert not any(accepted)
        assert chain.trees[0].n_leaves() == 1


class TestGibbsSweep:
    def test_deterministic_under_fixed_seed(self):
        data, ps = make_problem()
        cfg = SamplerConfig(m=4, n_burn=20, n_keep=30, seed=123)
        a = fit_bmm(data, ps, cfg)
        b = fit_bmm(data, ps, cfg)
        np.testing.assert_array_equal(a.sigma2_trace, b.sigma2_trace)
        np.testing.assert_array_equal(a.mixed_trace, b.mixed_trace)
        assert a.tree_texts == b.tree_texts

    def test_sse_cache_matches_recomputation(self):
        # Cache coherence: the SSE the sigma2 draw uses must equal the SSE
        # recomputed from scratch with evaluate_weights_batch at every sweep.
        data, ps = make_problem()
        cfg = SamplerConfig(m=3, n_burn=10, n_keep=20, seed=1)
        worst = 0.0

        def check(sweep, chain):
            nonlocal worst
            w = evaluate_weights_batch(chain.trees, chain.X)
            direct = float(
                np.sum((chain.y - np.einsum("nk,nk->n", chain.F, w)) ** 2)
            )
            worst = max(worst, abs(direct - chain.total_sse))

        fit_bmm(data, ps, cfg, callback=check)
        assert worst < 1e-10

    def test_fixed_structure_reduction_matches_conjugate_posterior(self):
        # Structure moves off, one root tree, fixed sigma2: the leaf draws
        # are iid from the analytic conjugate posterior.
        data, ps = make_problem()
        sigma2 = 0.05 ** 2
        cfg = SamplerConfig(
            m=1,
            k=1.0,
            n_burn=100,
            n_keep=20_000,
            seed=11,
            structure_moves=False,
            fixed_sigma2=sigma2,
        )
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        draws = np.empty((cfg.n_keep, 2))
        for s in range(cfg.n_burn + cfg.n_keep):
            chain.gibbs_sweep()
            if s >= cfg.n_burn:
                draws[s - cfg.n_burn] = chain.trees[0].values[0]
        nd = NodeData(residuals=data.outputs, design=ps.means)
        mean, cov = leaf_posterior(nd, chain.base_prior, sigma2)
        mc_se = np.sqrt(np.diag(cov) / cfg.n_keep)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * mc_se)
        np.testing.assert_allclose(np.cov(draws.T), cov, rtol=0.1)

    def test_frozen_chain_is_exactly_conjugate_linear_regression_gibbs(self):
        # One root-only tree with structure moves off consumes the same rng
        # stream as a hand-coded Bayesian linear regression Gibbs sampler,
        # so the two must agree draw for draw.
        data, ps = make_problem()
        cfg = SamplerConfig(
            m=1, k=1.5, nu=6.0, lam=0.02, n_burn=0, n_keep=1, seed=77,
            structure_moves=False,
        )
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        mu_chain, s2_chain = [], []
        for _ in range(25):
            chain.gibbs_sweep()
            mu_chain.append(chain.trees[0].values[0].copy())
            s2_chain.append(chain.sigma2)

        from mixtrees.calibration import pilot_sigma2

        rng = np.random.default_rng(77)
        F, y = ps.means, data.outputs
        beta, tau = chain.base_prior.mean, chain.base_prior.sd
        sigma2 = max(pilot_sigma2(F, y), 1e-12)
        mu_hand, s2_hand = [], []
        for _ in range(25):
            prec = F.T @ F / sigma2 + np.eye(2) / tau ** 2
            b = beta / tau ** 2 + F.T @ y / sigma2
            L = np.linalg.cholesky(prec)
            mean = np.linalg.solve(prec, b)
            mu = mean + np.linalg.solve(L.T, rng.standard_normal(2))
            sse = float(np.sum((y - F @ mu) ** 2))
            nu_post = data.n + 6.0
            lam_post = (sse + 6.0 * 0.02) / nu_post
            sigma2 = nu_post * lam_post / rng.chisquare(nu_post)
            mu_hand.append(mu)
            s2_hand.append(sigma2)
        np.testing.assert_allclose(mu_chain, mu_hand, rtol=1e-9)
        np.testing.assert_allclose(s2_chain, s2_hand, rtol=1e-9)

    def test_sigma2_approaches_truth_on_easy_problem(self):
        # Weights constant (1, 0): sigma2 posterior should sit near the
        # generating noise variance.  The pilot calibration assumes every
        # model is accurate somewhere, which this synthetic case violates,
        # so the prior scale is passed explicitly.
        rng = np.random.default_rng(3)
        x = np.linspace(0, 1, 40)
        f1 = np.full(40, 2.0)
        f2 = np.full(40, -1.0)
        noise = 0.1
        y = f1 * 1.0 + f2 * 0.0 + rng.normal(0, noise, 40)
        data = Dataset(inputs=x, outputs=y, noise_sd=noise, seed=3)
        ps = PredictionSet(
            means=np.column_stack([f1, f2]),
            grid=x[:5],
            grid_means=np.column_stack([f1[:5], f2[:5]]),
        )
        cfg = SamplerConfig(
            m=5, k=2.0, nu=10, lam=noise ** 2, n_burn=300, n_keep=1500, seed=4
        )
        draws = fit_bmm(data, ps, cfg)
        post_sd = np.sqrt(draws.sigma2_trace.mean())
        assert 0.5 * noise < post_sd < 2.0 * noise


class TestInformativePrior:
    def make_problem_with_variances(self):
        data, ps = make_problem(n=16, seed=2)
        # model 1 precise on the left, model 2 on the right
        x = data.inputs[:, 0]
        v1 = 0.01 + x ** 2
        v2 = 0.01 + (1 - x) ** 2
        return data, PredictionSet(
            means=ps.means,
            variances=np.column_stack([v1, v2]),
            grid=ps.grid,
            grid_means=ps.grid_means,
        )

    def test_informative_chain_runs_and_uses_precision_weights(self):
        data, ps = self.make_problem_with_variances()
        cfg = SamplerConfig(m=4, k=2.0, informative=True, n_burn=50, n_keep=100, seed=6)
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        from mixtrees.calibration import informative_tau, precision_weights

        assert chain.tau == informative_tau(4, 2.0)
        lp_all = chain.leaf_prior_for(np.arange(data.n))
        expect = precision_weights(ps.variances).mean(axis=0) / 4
        np.testing.assert_allclose(lp_all.mean, expect, rtol=1e-12)
        # prior mean is recomputed per leaf membership
        left = chain.leaf_prior_for(np.arange(4))
        right = chain.leaf_prior_for(np.arange(12, 16))
        assert left.mean[0] > right.mean[0]
        draws = fit_bmm(data, ps, cfg)
        assert np.all(np.isfinite(draws.mixed_trace))

    def test_informative_requires_variances(self):
        data, ps = make_problem()
        cfg = SamplerConfig(m=2, informative=True, n_burn=1, n_keep=1)
        with pytest.raises(ValueError, match="variances"):
            Chain(data.inputs, data.outputs, ps, cfg)


class TestEvaluateWeights:
    def test_root_trees_sum_to_m_beta(self):
        grid = CutpointGrid([np.linspace(0.1, 0.9, 9)])
        trees = [root_tree(grid, [0.05, 0.02]) for _ in range(10)]
        w = evaluate_weights_batch(trees, [[0.4]])[0]
        np.testing.assert_allclose(w, [0.5, 0.2])

    def test_single_tree_leaf_lookup(self):
        grid = CutpointGrid([np.linspace(0.1, 0.9, 9)])
        tree = Tree.decode("I 0 0.5 L 1 1 L 1 2", grid)
        assert tree.evaluate([[0.3]])[0, 0] == 1.0
        assert tree.evaluate([[0.7]])[0, 0] == 2.0

    def test_five_tree_ensemble_bruteforce(self):
        rng = np.random.default_rng(6)
        grid = CutpointGrid([np.linspace(0.1, 0.9, 9)])
        from mixtrees.trees import TreePriorConfig, sample_tree_from_prior

        def descend(tree, x):
            i = 0
            while tree.left[i] >= 0:
                go_left = x[tree.var[i]] < tree.cut[i]
                i = tree.left[i] if go_left else tree.right[i]
            return tree.values[i]

        cfg = TreePriorConfig()
        trees = []
        for i in range(5):
            t = sample_tree_from_prior(grid, cfg, np.random.default_rng(i), k=2)
            for leaf in t.leaf_nodes():
                t.values[leaf] = rng.normal(size=2)
            trees.append(t)
        X = rng.uniform(0, 1, size=(50, 1))
        batch = evaluate_weights_batch(trees, X)
        for i, x in enumerate(X):
            brute = np.zeros(2)
            for t in trees:
                brute += descend(t, x)
            np.testing.assert_allclose(batch[i], brute, rtol=1e-12)


class TestPredictMixed:
    def make_draws(self, weight_trace, grid_means):
        n_kept, n_grid, k = weight_trace.shape
        return PosteriorDraws(
            grid=np.linspace(0, 1, n_grid)[:, None],
            grid_means=grid_means,
            sigma2_trace=np.ones(n_kept),
            weight_trace=weight_trace,
            mixed_trace=np.einsum("gk,sgk->sg", grid_means, weight_trace),
        )

    def test_unit_weights_reproduce_model_mean(self):
        n_kept, n_grid = 50, 7
        wt = np.ones((n_kept, n_grid, 1))
        gm = np.linspace(1, 2, n_grid)[:, None]
        summary = predict_mixed(self.make_draws(wt, gm))
        np.testing.assert_allclose(summary.mean, gm[:, 0], rtol=1e-12)

    def test_identical_models_convexity_degeneracy(self):
        rng = np.random.default_rng(9)
        n_kept, n_grid = 200, 5
        a = rng.uniform(size=(n_kept, n_grid))
        wt = np.stack([a, 1.0 - a], axis=2)
        common = np.linspace(0.5, 1.5, n_grid)
        gm = np.column_stack([common, common])
        summary = predict_mixed(self.make_draws(wt, gm))
        np.testing.assert_allclose(summary.mean, common, rtol=1e-12)
        np.testing.assert_allclose(summary.lo, common, rtol=1e-9)

    def test_quantiles_match_sorting_oracle(self):
        rng = np.random.default_rng(10)
        wt = rng.normal(size=(400, 3, 2))
        gm = rng.normal(size=(3, 2))
        summary = predict_mixed(self.make_draws(wt, gm))
        mixed = np.einsum("gk,sgk->sg", gm, wt)
        for g in range(3):
            col = np.sort(mixed[:, g])
            # linear-interpolation quantile, computed explicitly
            for q, got in ((0.025, summary.lo[g]), (0.975, summary.hi[g])):
                pos = q * (col.size - 1)
                lo_i = int(np.floor(pos))
                frac = pos - lo_i
                expect = col[lo_i] * (1 - frac) + col[min(lo_i + 1, col.size - 1)] * frac
                assert got == pytest.approx(expect, rel=1e-12)

    def test_empty_draws_rejected(self):
        with pytest.raises(ValueError):
            predict_mixed(
                PosteriorDraws(
                    grid=np.zeros((1, 1)),
                    grid_means=np.ones((1, 1)),
                    sigma2_trace=np.empty(0),
                    weight_trace=np.empty((0, 1, 1)),
                    mixed_trace=np.empty((0, 1)),
                )
            )


class TestDrawArchive:
    def test_round_trip_and_reprediction(self, tmp_path):
        data, ps = make_problem()
        cfg = SamplerConfig(m=3, n_burn=30, n_keep=40, seed=8)
        draws = fit_bmm(data, ps, cfg)
        path = tmp_path / "draws.txt"
        save_draws(draws, path)
        ensembles = load_draws(path)
        assert len(ensembles) == draws.n_kept
        np.testing.assert_allclose(
            [s for s, _ in ensembles], draws.sigma2_trace, rtol=1e-15
        )
        again = predict_from_archive(ensembles, ps.grid, ps.grid_means)
        original = predict_mixed(draws)
        np.testing.assert_allclose(again.mean, original.mean, rtol=1e-12)
        np.testing.assert_allclose(again.wsum_mean, original.wsum_mean, rtol=1e-12)

    def test_archive_supports_new_grid(self, tmp_path):
        data, ps = make_problem()
        cfg = SamplerConfig(m=2, n_burn=10, n_keep=15, seed=8)
        draws = fit_bmm(data, ps, cfg)
        path = tmp_path / "draws.txt"
        save_draws(draws, path)
        new_grid = np.array([0.25, 0.75])
        new_means = np.column_stack([1 + 0.5 * new_grid, 2 - new_grid])
        summary = predict_from_archive(load_draws(path), new_grid, new_means)
        assert summary.mean.shape == (2,)
        assert np.all(np.isfinite(summary.mean))


class TestValidation:
    def test_misaligned_predictions_rejected(self):
        data, ps = make_problem()
        bad = PredictionSet(
            means=ps.means[:-1],
            grid=ps.grid,
            grid_means=ps.grid_means,
        )
        with pytest.raises(ValueError, match="align"):
            fit_bmm(data, bad, SamplerConfig(n_burn=1, n_keep=1))

    def test_concat_pools_chains(self):
        data, ps = make_problem()
        parts = [
            fit_bmm(data, ps, SamplerConfig(m=2, n_burn=5, n_keep=10, seed=s))
            for s in (1, 2)
        ]
        pooled = PosteriorDraws.concat(parts)
        assert pooled.n_kept == 20
        assert pooled.meta["chains"] == 2

    def test_rmse_helper(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))


def make_problem_2d(n=40, seed=4, mesh=5):
    """Two linear surfaces mixed along the diagonal of [-1, 1]^2."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    g = np.linspace(-1.0, 1.0, mesh)
    G = np.array([(a, b) for a in g for b in g])

    def models(Z):
        return np.column_stack([1.0 + Z[:, 0], 2.0 - Z[:, 1]])

    w = 1.0 / (1.0 + np.exp(-4.0 * (X[:, 0] + X[:, 1])))
    F = models(X)
    y = w * F[:, 0] + (1.0 - w) * F[:, 1] + rng.normal(0, 0.05, n)
    data = Dataset(inputs=X, outputs=y, noise_sd=0.05, seed=seed)
    return data, PredictionSet(means=F, grid=G, grid_means=models(G))


class TestGoldenBytes:
    """Seeded runs must reproduce recorded bytes exactly.

    The SHA-256 values pin the draw archive and the sigma2 and mixed traces
    of two fixed-seed runs, so a refactor of the tree or sampler code that
    changes any RNG call, row order or float sum shows up here.  They were
    recorded with numpy 2.4.6 and its bundled OpenBLAS 0.3.31 (Haswell
    kernels), so they pin that numpy/BLAS build: another build or CPU kernel
    may round dot products differently in the last bit and then needs its
    own values.
    """

    @staticmethod
    def digests(data, ps, cfg, tmp_path):
        draws = fit_bmm(data, ps, cfg)
        path = tmp_path / "draws.txt"
        save_draws(draws, path)
        return tuple(
            hashlib.sha256(b).hexdigest()
            for b in (
                path.read_bytes(),
                draws.sigma2_trace.tobytes(),
                draws.mixed_trace.tobytes(),
            )
        )

    def test_1d_birth_death(self, tmp_path):
        data, ps = make_problem()
        cfg = SamplerConfig(m=4, n_burn=20, n_keep=30, seed=123)
        assert self.digests(data, ps, cfg, tmp_path) == (
            "b0ff9213ed84c43ce3511e4dfe6ad6a76dc7bbc4fec35758c3e043292763711e",
            "1ebf75f972d1a6a67f7f074637bbc8b060eaecb43036b29c57e9e06210323330",
            "cb36d08180eebbabc0ca432886f137ee82ff3dbeff9cf3d3dc5df680eae79120",
        )

    def test_2d_midpoints_with_relocation(self, tmp_path):
        data, ps = make_problem_2d()
        cfg = SamplerConfig(
            m=5,
            n_burn=25,
            n_keep=25,
            seed=21,
            min_leaf_n=3,
            cutpoint_method="midpoints",
            cutpoints_per_dim=30,
        )
        assert self.digests(data, ps, cfg, tmp_path) == (
            "404bbdb13f0d9dc1fed1f82423fcde2f29dacf50227dc75232fea24ce45575ad",
            "40ceb9a71db92b50b008c12b5cf045216ed3b1298ccd70abfefbc33ac0c3e989",
            "34d6abae9d6106728dc85dd16f1c3da8e5989c559f3c4340cb422900b1d99de8",
        )
