import dataclasses
import gc
import hashlib
import itertools
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mixtrees import sampler as sampler_module
from mixtrees.dataset import Dataset
from mixtrees.node_model import (
    NodeData,
    leaf_posterior,
    log_marginal_likelihood,
    sample_sigma2,
)
from mixtrees.sampler import (
    Chain,
    MixedSummary,
    PosteriorDraws,
    PredictionSet,
    SamplerConfig,
    fit_bmm,
    fit_chains,
    load_draws,
    predict_from_archive,
    predict_mixed,
    rmse,
    save_draws,
)
from mixtrees.trees import CutpointGrid, Tree, log_tree_prior, sample_tree_from_prior


def make_problem(n=12, k=2, seed=0, n_grid=15):
    """Small synthetic mixing problem with smooth model curves: the data,
    the models' predictions at the data, a grid and the models' means on it.

    ``k`` takes the first k of three models; y mixes the first two.
    """
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    f1 = 1.0 + 0.5 * x
    f2 = 2.0 - x
    f3 = 0.5 + x ** 2
    w_true = np.column_stack([1.0 / (1.0 + np.exp(10 * (x - 0.5))), np.zeros(n)])
    w_true[:, 1] = 1.0 - w_true[:, 0]
    y = f1 * w_true[:, 0] + f2 * w_true[:, 1] + rng.normal(0, 0.05, n)
    grid = np.linspace(0.0, 1.0, n_grid)
    g1 = 1.0 + 0.5 * grid
    g2 = 2.0 - grid
    g3 = 0.5 + grid ** 2
    data = Dataset(inputs=x, outputs=y, noise_sd=0.05, seed=seed)
    ps = PredictionSet(means=np.column_stack([f1, f2, f3])[:, :k])
    return data, ps, grid, np.column_stack([g1, g2, g3])[:, :k]


def encoded(draws):
    return list(draws.encoded())


def draws_of(ensembles):
    """PosteriorDraws holding each list of trees as one draw; draw s has
    sigma2 = s + 1."""
    draws = PosteriorDraws()
    for s, trees in enumerate(ensembles):
        draws.append(s + 1.0, trees)
    return draws


def oracle_weights(trees, X):
    """Weight vectors at every row of X: each tree evaluated, summed in order."""
    out = trees[0].evaluate(X)
    for t in trees[1:]:
        out = out + t.evaluate(X)
    return out


def oracle_summary(ensembles, grid, grid_means):
    """The summaries of the mixed, weight and weight-sum traces, computed
    from per-tree evaluation and whole-array quantiles."""
    weights = np.stack([oracle_weights(trees, grid) for trees in ensembles])
    mixed = np.einsum("gk,sgk->sg", grid_means, weights)
    wsum = weights.sum(axis=2)
    q = [0.025, 0.975]
    return MixedSummary(
        mixed.mean(axis=0), *np.quantile(mixed, q, axis=0),
        weights.mean(axis=0), *np.quantile(weights, q, axis=0),
        wsum.mean(axis=0), *np.quantile(wsum, q, axis=0),
    )


def tree_update(chain, j, relocate=False):
    """Birth or death on tree j, or with ``relocate`` a relocation, then its
    leaf redraw, all against one residual vector; returns the accept flag."""
    resid = chain.tree_residuals(j)
    move = chain._relocate if relocate else chain._birth_or_death
    accepted = move(j, resid)
    chain._redraw_leaves(j, resid)
    return accepted


def root_tree(grid, value):
    return Tree.root_only(grid, np.asarray(value, dtype=float))


class TestTreeResiduals:
    def test_single_tree_with_zero_leaf_gives_y(self):
        data, ps, _, _ = make_problem()
        cfg = SamplerConfig(m=1, n_burn=1, n_keep=1)
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        chain.trees[0].values[0] = np.zeros(2)
        chain.fits[0] = 0.0
        np.testing.assert_array_equal(chain.tree_residuals(0), data.outputs)

    def test_zero_valued_other_trees_give_y(self):
        data, ps, _, _ = make_problem()
        cfg = SamplerConfig(m=3, n_burn=1, n_keep=1)
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        for t in chain.trees:
            t.values[0] = np.zeros(2)
        chain.fits[:] = 0.0
        np.testing.assert_array_equal(chain.tree_residuals(1), data.outputs)

    def test_three_tree_bruteforce_oracle(self):
        data, ps, _, _ = make_problem()
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

        data, ps, _, _ = make_problem()
        cfg = SamplerConfig(m=1, n_burn=1, n_keep=1, seed=2)
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        resid = chain.tree_residuals(0)
        rng = np.random.default_rng(3)
        birth = propose_birth(chain.trees[0], chain.X, cfg.min_leaf_n, rng)
        assert birth.valid

        def total_log_ratio(prop):
            return (
                chain._leaf_sets_log_ml(0, prop.new_leaf_sets, resid)
                - chain._leaf_sets_log_ml(0, prop.old_leaf_sets, resid)
                + prop.log_prior_ratio
                + prop.log_reverse
                - prop.log_forward
            )

        forward = total_log_ratio(birth)
        death = propose_death(birth.tree, chain.X, rng)
        backward = total_log_ratio(death)
        assert forward == pytest.approx(-backward, rel=1e-10)

    def test_acceptance_factors_match_hand_computation(self):
        # 1-leaf vs 2-leaf pair: enumerate every factor of the MH ratio.
        data, ps, _, _ = make_problem()
        cfg = SamplerConfig(m=1, k=1.0, n_burn=1, n_keep=1, seed=2)
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        resid = chain.tree_residuals(0)
        from mixtrees.trees import propose_birth

        rng = np.random.default_rng(10)
        prop = propose_birth(chain.trees[0], chain.X, cfg.min_leaf_n, rng)
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
        hand_prior = log_tree_prior(new_tree) - log_tree_prior(old_tree)
        n_cuts = old_tree.n_cuts(0, 0)
        hand_forward = np.log(1.0 / n_cuts)
        hand_reverse = np.log(1.0)  # one collapsible node after birth
        got = (
            chain._leaf_sets_log_ml(0, prop.new_leaf_sets, resid)
            - chain._leaf_sets_log_ml(0, prop.old_leaf_sets, resid)
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

    @pytest.mark.parametrize("log_ratio", [-1e300, -np.inf, np.nan])
    def test_zero_uniform_is_log_minus_inf(self, log_ratio, monkeypatch):
        # The generator's uniform can be exactly 0.0.  Its log reads as -inf,
        # as np.log gives, so it accepts a finite ratio, however low, and
        # rejects a ratio of -inf or NaN, without raising.
        from mixtrees.trees import Proposal

        data, ps, _, _ = make_problem()
        chain = Chain(data.inputs, data.outputs, ps, SamplerConfig(m=1, seed=3))
        chain.rng = ScriptedRng(3, [0.0])
        prop = Proposal("change", valid=True, tree=chain.trees[0].copy())
        monkeypatch.setattr(chain, "_leaf_sets_log_ml", lambda j, sets, resid: 0.0)
        accepted = chain._try_accept(0, prop, chain.tree_residuals(0), log_ratio)
        assert accepted == np.isfinite(log_ratio)

    def test_min_leaf_violations_auto_reject(self):
        data, ps, _, _ = make_problem(n=4)
        cfg = SamplerConfig(
            m=1, n_burn=1, n_keep=1, seed=0, min_leaf_n=3, cutpoints_per_dim=50
        )
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        # 4 points can never split into two sides of >= 3.
        accepted = [tree_update(chain, 0) for _ in range(100)]
        assert not any(accepted)
        assert chain.trees[0].n_leaves() == 1

    @pytest.mark.parametrize("mh", [np.inf, 0.0])
    def test_kept_sweep_copies_accepted_trees_only(self, mh, monkeypatch):
        # A birth or death builds its tree only when accepted: a kept sweep
        # whose MH uniform rejects everything (inf) copies no tree, and one
        # that accepts everything (0.0, whose log is -inf) copies one tree
        # per accepted move.
        data, ps, _, _ = make_problem_2d()
        rng = ScriptedRng(5, [1e-300])
        chain = Chain(data.inputs, data.outputs, ps, SamplerConfig(m=4, seed=5), rng=rng)
        chain.gibbs_sweep(structure=False, hold_sigma2=True)
        for _ in range(3):  # accepted births grow every tree
            chain.gibbs_sweep(hold_sigma2=True)
        kinds = itertools.cycle([0.25, 0.75])  # birth, death, birth, ...
        try_accept, copy_tree = Chain._try_accept, Tree.copy
        decided, copies = [], []

        def scripted(self, j, prop, resid, log_kind):
            rng.script = itertools.repeat(mh)
            accepted = try_accept(self, j, prop, resid, log_kind)
            rng.script = kinds
            if prop.valid:
                decided.append((prop.kind, accepted))
            return accepted

        def counted(self):
            copies.append(self)
            return copy_tree(self)

        monkeypatch.setattr(Chain, "_try_accept", scripted)
        monkeypatch.setattr(Tree, "copy", counted)
        rng.script = kinds
        for _ in range(3):
            chain.gibbs_sweep(hold_sigma2=True)
        assert {kind for kind, _ in decided} == {"birth", "death"}
        n_accepted = sum(accepted for _, accepted in decided)
        assert n_accepted == (0 if mh == np.inf else len(decided))
        assert len(copies) == n_accepted


class ScriptedRng:
    """A Generator whose ``random()`` replays a script, cycling.

    In a tree update the first value picks the move (below 0.5: birth) and
    the next is the MH uniform: 1e-300 accepts all but hopeless moves and
    inf rejects every move.
    """

    def __init__(self, seed, script):
        self.gen = np.random.default_rng(seed)
        self.script = itertools.cycle(script)

    def random(self):
        return next(self.script)

    def __getattr__(self, name):
        return getattr(self.gen, name)


def fresh_gram(design):
    """The Gram rows of a (K, n_p) design."""
    return (design @ design.T).tolist()


class TestLeafCaches:
    @staticmethod
    def problem(kind):
        if kind == "2d":
            return make_problem_2d()[:2]
        data, ps, _, _ = make_problem(n=16, seed=2)
        if kind == "1d-informative":
            x = data.inputs[:, 0]
            ps.variances = np.column_stack([0.01 + x ** 2, 0.01 + (1 - x) ** 2])
        return data, ps

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        kind=st.sampled_from(["1d", "1d-informative", "2d"]),
        seed=st.integers(0, 2 ** 16),
        script=st.lists(
            st.sampled_from([1e-300, 0.25, 0.75, np.inf]), min_size=1, max_size=8
        ),
        moves=st.lists(
            st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=25
        ),
    )
    def test_live_leaf_stats_match_fresh_rows(self, kind, seed, script, moves):
        # After any mix of accepted and rejected birth, death and relocation
        # moves, tree j's cache holds exactly its leaves, each with the
        # (K, n_p) design, Gram rows and prior of a fresh F[rows] computation.
        data, ps = self.problem(kind)
        cfg = SamplerConfig(m=3, seed=seed, informative=kind == "1d-informative")
        chain = Chain(data.inputs, data.outputs, ps, cfg, rng=ScriptedRng(seed, script))
        chain.gibbs_sweep(structure=False)
        for j, relocate in moves:
            tree_update(chain, j, relocate)
            for t, tree in enumerate(chain.trees):
                rows = tree.node_rows(chain.X)
                leaf_rows = [rows[i] for i in tree.leaf_nodes()]
                assert set(chain._live[t]) == {idx.tobytes() for idx in leaf_rows}
                for idx in leaf_rows:
                    design, gram, mean, sd = chain._live[t][idx.tobytes()]
                    fresh = chain.F[idx].T.copy()
                    np.testing.assert_array_equal(design, fresh)
                    assert design.flags.c_contiguous
                    assert gram == fresh_gram(fresh)
                    fresh_prior = chain.leaf_prior_for(idx)
                    assert mean == fresh_prior.mean.tolist()
                    assert sd == fresh_prior.sd

    @pytest.mark.parametrize("move", ["birth", "death", "change"])
    def test_rejected_update_factors_each_row_set_once(self, move, monkeypatch):
        # The residuals and sigma2 are fixed for the whole update, so the
        # redraw after a rejected proposal reuses the factors of the scored
        # old leaves; a relocation scores only the leaves below its node.
        data, ps, _, _ = make_problem_2d()
        rng = ScriptedRng(5, [1e-300])
        cfg = SamplerConfig(m=2, seed=5)
        chain = Chain(data.inputs, data.outputs, ps, cfg, rng=rng)
        for _ in range(6):  # accepted births grow tree 0
            tree_update(chain, 0)
        assert chain.trees[0].n_leaves() >= 3

        props, factored = [], []
        name = {"birth": "propose_birth", "death": "propose_death",
                "change": "propose_rule_change"}[move]
        propose, factor = getattr(sampler_module, name), sampler_module._factor

        def recorded_propose(*args):
            props.append(propose(*args))
            return props[-1]

        def counted_factor(resid, *args):
            factored.append(resid.tobytes())
            return factor(resid, *args)

        monkeypatch.setattr(sampler_module, name, recorded_propose)
        monkeypatch.setattr(sampler_module, "_factor", counted_factor)
        for _ in range(50):
            props.clear()
            factored.clear()
            if move == "change":
                rng.script = itertools.cycle([np.inf])
            else:
                rng.script = iter([0.25 if move == "birth" else 0.75, np.inf])
            assert not tree_update(chain, 0, relocate=move == "change")
            if props[-1].valid:
                break
        else:
            pytest.fail(f"no valid {move} proposal")
        prop, tree = props[-1], chain.trees[0]
        rows = tree.node_rows(chain.X)
        row_sets = {
            idx.tobytes()
            for idx in prop.old_leaf_sets
            + prop.new_leaf_sets
            + [rows[i] for i in tree.leaf_nodes()]
        }
        assert len(factored) == len(set(factored)) == len(row_sets)

    @pytest.mark.parametrize("kind", [0.25, 0.75])
    @pytest.mark.parametrize("mh", [1e-300, np.inf])
    def test_warmup_tree_update_factors_each_row_set_once(self, kind, mh, monkeypatch):
        # A warmup sweep of one tree runs birth or death, a relocation and
        # a redraw.  The other trees and sigma2 stay fixed throughout, so
        # the three steps share one residual vector and factor each
        # distinct row set once.
        data, ps, _, _ = make_problem_2d()
        rng = ScriptedRng(5, [1e-300])
        chain = Chain(data.inputs, data.outputs, ps, SamplerConfig(m=1, seed=5), rng=rng)
        for _ in range(6):  # accepted births grow the tree
            tree_update(chain, 0)
        assert chain.trees[0].n_leaves() >= 3

        props, redrawn, factored = [], [], []

        def recorded(propose):
            def wrapped(*args):
                props.append(propose(*args))
                return props[-1]
            return wrapped

        for name in ("propose_birth", "propose_death", "propose_rule_change"):
            monkeypatch.setattr(
                sampler_module, name, recorded(getattr(sampler_module, name))
            )
        factor, redraw = sampler_module._factor, Chain._redraw_leaves

        def counted_factor(resid, *args):
            factored.append(resid.tobytes())
            return factor(resid, *args)

        def recorded_redraw(self, j, resid):
            rows = self.trees[j].node_rows(self.X)
            redrawn.extend(rows[i] for i in self.trees[j].leaf_nodes())
            return redraw(self, j, resid)

        monkeypatch.setattr(sampler_module, "_factor", counted_factor)
        monkeypatch.setattr(Chain, "_redraw_leaves", recorded_redraw)
        for _ in range(50):
            props.clear()
            redrawn.clear()
            factored.clear()
            rng.script = iter([kind, mh, mh])
            chain.gibbs_sweep(warmup=True, hold_sigma2=True)
            if len(props) == 2 and all(p.valid for p in props):
                break
        else:
            pytest.fail("no warmup sweep with two valid proposals")
        row_sets = {
            idx.tobytes()
            for p in props
            for idx in p.old_leaf_sets + p.new_leaf_sets
        } | {idx.tobytes() for idx in redrawn}
        assert len(factored) == len(set(factored)) == len(row_sets)


class TestGibbsSweep:
    def test_deterministic_under_fixed_seed(self):
        data, ps, _, _ = make_problem()
        cfg = SamplerConfig(m=4, n_burn=20, n_keep=30, seed=123)
        a = fit_bmm(data, ps, cfg)
        b = fit_bmm(data, ps, cfg)
        np.testing.assert_array_equal(a.sigma2_trace, b.sigma2_trace)
        assert encoded(a) == encoded(b)

    def test_kept_ensembles_are_snapshots(self):
        # Later sweeps redraw every leaf and move structure; each tree-draw
        # kept in the table must still encode as the chain tree did when kept.
        data, ps, _, _ = make_problem()
        cfg = SamplerConfig(m=3, n_burn=10, n_keep=20, thin=2, seed=4)
        at_keep = []

        def record(sweep, chain):
            if sweep >= cfg.n_burn and (sweep - cfg.n_burn) % cfg.thin == 0:
                at_keep.append([t.encode() for t in chain.trees])

        draws = fit_bmm(data, ps, cfg, callback=record)
        assert len(at_keep) == cfg.n_keep
        assert encoded(draws) == at_keep

    def test_sse_cache_matches_recomputation(self):
        # Cache coherence: the SSE the sigma2 draw uses must equal the SSE
        # recomputed from scratch by evaluating every tree at every sweep.
        data, ps, _, _ = make_problem()
        cfg = SamplerConfig(m=3, n_burn=10, n_keep=20, seed=1)
        worst = 0.0

        def check(sweep, chain):
            nonlocal worst
            w = oracle_weights(chain.trees, chain.X)
            direct = float(
                np.sum((chain.y - np.einsum("nk,nk->n", chain.F, w)) ** 2)
            )
            worst = max(worst, abs(direct - chain.total_sse))

        fit_bmm(data, ps, cfg, callback=check)
        assert worst < 1e-10

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fixed_structure_reduction_matches_conjugate_posterior(self, k):
        # Structure moves off, one root tree, sigma2 held: the leaf draws
        # are iid from the analytic conjugate posterior.
        data, ps, _, _ = make_problem(k=k)
        sigma2 = 0.05 ** 2
        cfg = SamplerConfig(m=1, k=1.0, n_burn=100, n_keep=20_000, seed=11)
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        chain.sigma2 = sigma2
        draws = np.empty((cfg.n_keep, k))
        for s in range(cfg.n_burn + cfg.n_keep):
            chain.gibbs_sweep(structure=False, hold_sigma2=True)
            if s >= cfg.n_burn:
                draws[s - cfg.n_burn] = chain.trees[0].values[0]
        nd = NodeData(residuals=data.outputs, design=ps.means)
        mean, cov = leaf_posterior(nd, chain.base_prior, sigma2)
        mc_se = np.sqrt(np.diag(cov) / cfg.n_keep)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * mc_se)
        np.testing.assert_allclose(np.atleast_2d(np.cov(draws.T)), cov, rtol=0.1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_frozen_chain_is_exactly_conjugate_linear_regression_gibbs(self, k):
        # One root-only tree with structure moves off consumes the same rng
        # stream as a hand-coded Bayesian linear regression Gibbs sampler,
        # so the two must agree draw for draw.
        data, ps, _, _ = make_problem(k=k)
        cfg = SamplerConfig(
            m=1, k=1.5, nu=6.0, lam=0.02, n_burn=0, n_keep=1, seed=77
        )
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        mu_chain, s2_chain = [], []
        for _ in range(25):
            chain.gibbs_sweep(structure=False)
            mu_chain.append(chain.trees[0].values[0].copy())
            s2_chain.append(chain.sigma2)

        from mixtrees.calibration import pilot_sigma2

        rng = np.random.default_rng(77)
        F, y = ps.means, data.outputs
        beta, tau = chain.base_prior.mean, chain.base_prior.sd
        sigma2 = max(pilot_sigma2(F, y), 1e-12)
        mu_hand, s2_hand = [], []
        for _ in range(25):
            prec = F.T @ F / sigma2 + np.eye(k) / tau ** 2
            b = beta / tau ** 2 + F.T @ y / sigma2
            L = np.linalg.cholesky(prec)
            mean = np.linalg.solve(prec, b)
            mu = mean + np.linalg.solve(L.T, rng.standard_normal(k))
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
        ps = PredictionSet(means=np.column_stack([f1, f2]))
        cfg = SamplerConfig(
            m=5, k=2.0, nu=10, lam=noise ** 2, n_burn=300, n_keep=1500, seed=4
        )
        draws = fit_bmm(data, ps, cfg)
        post_sd = np.sqrt(draws.sigma2_trace.mean())
        assert 0.5 * noise < post_sd < 2.0 * noise

    def test_warmup_skipped_redraw_keeps_every_byte(self):
        # Warmup draws the normals of the leaf redraw between birth/death
        # and relocation and discards them.  An oracle that runs that
        # redraw in full, as the redraw after the relocation does, must
        # leave the same trees, leaf values, fits and sigma2, bit for bit.
        data, ps, _, _ = make_problem_2d()
        cfg = SamplerConfig(m=5, seed=21, min_leaf_n=2)
        chain = Chain(data.inputs, data.outputs, ps, cfg)
        oracle = Chain(data.inputs, data.outputs, ps, cfg)

        def oracle_warmup_sweep(hold_sigma2):
            for j in range(cfg.m):
                resid = oracle.tree_residuals(j)
                oracle._birth_or_death(j, resid)
                oracle._redraw_leaves(j, resid)  # the full redraw
                oracle._relocate(j, resid)
                oracle._redraw_leaves(j, resid)
            if not hold_sigma2:
                oracle.sigma2 = sample_sigma2(
                    oracle.total_sse, oracle.n, oracle.noise, oracle.rng
                )

        chain.gibbs_sweep(structure=False, warmup=True, hold_sigma2=True)
        oracle.gibbs_sweep(structure=False, warmup=True, hold_sigma2=True)
        for sweep in range(12):
            chain.gibbs_sweep(warmup=True, hold_sigma2=sweep < 6)
            oracle_warmup_sweep(hold_sigma2=sweep < 6)
            assert [t.encode() for t in chain.trees] == [t.encode() for t in oracle.trees]
            np.testing.assert_array_equal(chain.fits, oracle.fits)
            assert chain.sigma2 == oracle.sigma2
        assert chain.n_accepted == oracle.n_accepted > 0
        assert max(len(t.leaf_nodes()) for t in chain.trees) > 1


class TestInformativePrior:
    def make_problem_with_variances(self):
        data, ps, grid, grid_means = make_problem(n=16, seed=2)
        # model 1 precise on the left, model 2 on the right
        x = data.inputs[:, 0]
        v1 = 0.01 + x ** 2
        v2 = 0.01 + (1 - x) ** 2
        ps = PredictionSet(means=ps.means, variances=np.column_stack([v1, v2]))
        return data, ps, grid, grid_means

    def test_informative_chain_runs_and_uses_precision_weights(self):
        data, ps, grid, grid_means = self.make_problem_with_variances()
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
        assert np.all(np.isfinite(predict_mixed(draws, grid, grid_means).mean))

    def test_informative_requires_variances(self):
        data, ps, _, _ = make_problem()
        cfg = SamplerConfig(m=2, informative=True, n_burn=1, n_keep=1)
        with pytest.raises(ValueError, match="variances"):
            Chain(data.inputs, data.outputs, ps, cfg)


class TestEvaluateWeights:
    def test_root_trees_sum_to_m_beta(self):
        grid = CutpointGrid([np.linspace(0.1, 0.9, 9)])
        trees = [root_tree(grid, [0.05, 0.02]) for _ in range(10)]
        w = draws_of([trees]).weights([[0.4]])[0, 0]
        np.testing.assert_allclose(w, [0.5, 0.2])

    def test_single_tree_leaf_lookup(self):
        grid = CutpointGrid([np.linspace(0.1, 0.9, 9)])
        tree = Tree.decode("I 0 0.5 L 1 1 L 1 2", grid)
        assert tree.evaluate([[0.3]])[0, 0] == 1.0
        assert tree.evaluate([[0.7]])[0, 0] == 2.0

    def test_five_tree_ensemble_bruteforce(self):
        rng = np.random.default_rng(6)
        grid = CutpointGrid([np.linspace(0.1, 0.9, 9)])
        from mixtrees.trees import sample_tree_from_prior

        def descend(tree, x):
            i = 0
            while tree.var[i] >= 0:
                if x[tree.var[i]] < tree.cut[i]:
                    i += 1
                else:  # past the left subtree: a rule owes one node more
                    i, owed = i + 1, 1
                    while owed:
                        owed += 1 if tree.var[i] >= 0 else -1
                        i += 1
            return tree.values[i]

        trees = []
        for i in range(5):
            t = sample_tree_from_prior(grid, np.random.default_rng(i), k=2)
            for leaf in t.leaf_nodes():
                t.values[leaf] = rng.normal(size=2)
            trees.append(t)
        X = rng.uniform(0, 1, size=(50, 1))
        batch = draws_of([trees]).weights(X)[0]
        for i, x in enumerate(X):
            brute = np.zeros(2)
            for t in trees:
                brute += descend(t, x)
            np.testing.assert_allclose(batch[i], brute, rtol=1e-12)


def step_tree(weights, grid):
    """One 1-d tree whose leaf at ``grid[g]`` holds ``weights[g]``: a chain
    of splits at the midpoints between neighbouring grid points."""
    leaf = lambda w: f"L {len(w)} " + " ".join(f"{v:.17g}" for v in w)  # noqa: E731
    cuts = 0.5 * (grid[:-1] + grid[1:])
    parts = [f"I 0 {c:.17g} {leaf(w)}" for c, w in zip(cuts, weights)]
    return Tree.decode(" ".join(parts + [leaf(weights[-1])]))


class TestPredictMixed:
    @staticmethod
    def summary(weight_trace, grid_means):
        """predict_mixed over draws whose weights on an even grid are
        ``weight_trace``."""
        grid = np.linspace(0, 1, weight_trace.shape[1])
        draws = draws_of([[step_tree(w, grid)] for w in weight_trace])
        # The step trees hand back the weights bit for bit.
        np.testing.assert_array_equal(draws.weights(grid[:, None]), weight_trace)
        return predict_mixed(draws, grid, grid_means)

    def test_unit_weights_reproduce_model_mean(self):
        n_kept, n_grid = 50, 7
        wt = np.ones((n_kept, n_grid, 1))
        gm = np.linspace(1, 2, n_grid)[:, None]
        summary = self.summary(wt, gm)
        np.testing.assert_allclose(summary.mean, gm[:, 0], rtol=1e-12)

    def test_identical_models_convexity_degeneracy(self):
        rng = np.random.default_rng(9)
        n_kept, n_grid = 200, 5
        a = rng.uniform(size=(n_kept, n_grid))
        wt = np.stack([a, 1.0 - a], axis=2)
        common = np.linspace(0.5, 1.5, n_grid)
        gm = np.column_stack([common, common])
        summary = self.summary(wt, gm)
        np.testing.assert_allclose(summary.mean, common, rtol=1e-12)
        np.testing.assert_allclose(summary.lo, common, rtol=1e-9)

    def test_quantiles_match_sorting_oracle(self):
        rng = np.random.default_rng(10)
        wt = rng.normal(size=(400, 3, 2))
        gm = rng.normal(size=(3, 2))
        summary = self.summary(wt, gm)
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
            predict_mixed(PosteriorDraws(), np.zeros((1, 1)), np.ones((1, 1)))


class TestInputShape:
    def test_vector_is_points_of_one_input(self):
        # Every function that takes inputs reads a 1-d array as n points of
        # one input, as Dataset does: the same as its column.
        data, ps, grid, grid_means = make_problem(k=2)
        x = data.inputs[:, 0]
        for method in ("uniform", "midpoints"):
            by_vector = CutpointGrid.from_data(x, 5, method)
            by_column = CutpointGrid.from_data(x[:, None], 5, method)
            assert by_vector.dim == by_column.dim == 1
            np.testing.assert_array_equal(by_vector.cuts[0], by_column.cuts[0])

        tree = Tree.decode("I 0 0.5 I 0 0.25 L 2 1 2 L 2 3 4 L 2 5 6")
        for got, want in zip(tree.partition(grid), tree.partition(grid[:, None])):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(tree.leaf_slots(grid), tree.leaf_slots(grid[:, None]))
        np.testing.assert_array_equal(tree.evaluate(grid), tree.evaluate(grid[:, None]))

        draws = draws_of([[tree], [tree]])
        np.testing.assert_array_equal(draws.weights(grid), draws.weights(grid[:, None]))
        by_vector = predict_mixed(draws, grid, grid_means)
        by_column = predict_mixed(draws, grid[:, None], grid_means)
        for f in dataclasses.fields(by_vector):
            np.testing.assert_array_equal(
                getattr(by_vector, f.name), getattr(by_column, f.name), err_msg=f.name
            )

        cfg = SamplerConfig(m=2, n_burn=1, n_keep=1, seed=4)
        chains = [Chain(inputs, data.outputs, ps, cfg) for inputs in (x, x[:, None])]
        for chain in chains:
            for _ in range(5):
                chain.gibbs_sweep()
        np.testing.assert_array_equal(chains[0].X, chains[1].X)
        assert [t.encode() for t in chains[0].trees] == [t.encode() for t in chains[1].trees]


def structure(tree):
    """The text of a tree with every leaf vector set to (0)."""
    return tree.encode([[0.0]] * tree.n_leaves())


def with_values(tree, rng):
    """A copy of ``tree`` with fresh normal leaf vectors."""
    new = tree.copy()
    k = len(tree.leaves()[0].value)
    for leaf in new.leaf_nodes():
        new.values[leaf] = rng.normal(size=k)
    return new


def random_ensembles(seed, dim, k, n_structures, m, n_draws):
    """Draws of m trees, each picking one of a few prior structures, and a
    grid that holds every cutpoint (ties) and points between them."""
    rng = np.random.default_rng(seed)
    grid = CutpointGrid([np.linspace(0.1, 0.9, 5) for _ in range(dim)])
    shapes = [sample_tree_from_prior(grid, rng, k) for _ in range(n_structures)]
    ensembles = [
        [with_values(shapes[rng.integers(n_structures)], rng) for _ in range(m)]
        for _ in range(n_draws)
    ]
    axis = np.concatenate([grid.cuts[0], rng.uniform(0, 1, 6)])
    X = np.array(list(itertools.product(axis, repeat=dim)))
    return ensembles, X


def dense_ensembles(seed, dim, k, n_structures, root, m, n_draws, n_rows):
    """Draws as :func:`random_ensembles` makes them, with a root tree among
    the structures when ``root`` (so with one structure every tree is a
    root and the grid one cell), and a grid of ``n_rows`` rows whose
    coordinates come from the cutpoints and four uniform points, so
    that rows repeat, sit on cuts and fill each cell many times over."""
    rng = np.random.default_rng(seed)
    grid = CutpointGrid([np.linspace(0.1, 0.9, 5) for _ in range(dim)])
    shapes = [sample_tree_from_prior(grid, rng, k) for _ in range(n_structures)]
    if root:
        shapes[0] = Tree.root_only(grid, np.zeros(k))
    ensembles = [
        [with_values(shapes[rng.integers(n_structures)], rng) for _ in range(m)]
        for _ in range(n_draws)
    ]
    pool = np.concatenate([grid.cuts[0], rng.uniform(0, 1, 4)])
    return ensembles, rng.choice(pool, size=(n_rows, dim))


class TestDrawTable:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        dim=st.sampled_from([1, 2]),
        k=st.sampled_from([1, 2, 3]),
        n_structures=st.integers(1, 4),
        m=st.integers(1, 4),
        n_draws=st.integers(1, 12),
    )
    def test_predict_mixed_matches_per_tree_oracle(
        self, seed, dim, k, n_structures, m, n_draws
    ):
        # Routing once per structure and gathering per draw must give the
        # bits of evaluating every tree and summing in tree order.
        ensembles, X = random_ensembles(seed, dim, k, n_structures, m, n_draws)
        grid_means = np.random.default_rng(seed + 1).normal(size=(len(X), k))
        draws = draws_of(ensembles)
        got = predict_mixed(draws, X, grid_means)
        expected = oracle_summary(ensembles, X, grid_means)
        for f in dataclasses.fields(expected):
            np.testing.assert_array_equal(
                getattr(got, f.name), getattr(expected, f.name), err_msg=f.name
            )
        assert encoded(draws) == [[t.encode() for t in trees] for trees in ensembles]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        dim=st.sampled_from([1, 2]),
        k=st.sampled_from([1, 2, 3]),
        n_structures=st.integers(1, 4),
        root=st.booleans(),
        m=st.integers(1, 4),
        n_draws=st.integers(1, 150),
        n_rows=st.integers(2, 120),
    )
    def test_predict_mixed_on_dense_grid_matches_oracle(
        self, seed, dim, k, n_structures, root, m, n_draws, n_rows
    ):
        # Many rows per cell, repeated rows and rows on a cut: summarising
        # once per cell must give the bits of summarising every row, and
        # the mixed trace, built in blocks of draws, those of one einsum.
        ensembles, X = dense_ensembles(
            seed, dim, k, n_structures, root, m, n_draws, n_rows
        )
        grid_means = np.random.default_rng(seed + 1).normal(size=(len(X), k))
        got = predict_mixed(draws_of(ensembles), X, grid_means)
        expected = oracle_summary(ensembles, X, grid_means)
        for f in dataclasses.fields(expected):
            np.testing.assert_array_equal(
                getattr(got, f.name), getattr(expected, f.name), err_msg=f.name
            )

    def test_predict_mixed_routes_one_row_per_cell(self, monkeypatch):
        # In 1-d the distinct cuts split the line into at most one cell more
        # than there are cuts, and each structure routes one row per cell.
        ensembles, X = dense_ensembles(5, 1, 2, 4, False, 3, 10, 400)
        draws = draws_of(ensembles)
        cuts = {c for t in draws.skeletons for v, c in zip(t.var, t.cut) if v >= 0}
        assert len(cuts) > 1
        routed, leaf_slots = [], Tree.leaf_slots

        def counted(tree, rows):
            routed.append(len(rows))
            return leaf_slots(tree, rows)

        monkeypatch.setattr(Tree, "leaf_slots", counted)
        predict_mixed(draws, X, np.ones((len(X), 2)))
        assert len(routed) == len(draws.skeletons)
        assert max(routed) <= len(cuts) + 1 < len(X)
        first, cell = draws.cells(X)
        assert routed == [len(first)] * len(draws.skeletons)
        np.testing.assert_array_equal(cell[first], np.arange(len(first)))
        wide = draws_of(ensembles + [[Tree.decode("I 1 0.5 L 2 1 1 L 2 1 2")] * 3])
        with pytest.raises(ValueError, match="reads input column 1"):
            predict_mixed(wide, X, np.ones((len(X), 2)))

    @pytest.mark.parametrize("shared", [True, False])
    def test_concat_reinterns_structures(self, shared):
        # Pooled chains keep each draw's trees, text and weights, and hold
        # each structure once whether or not the chains share it.
        a, X = random_ensembles(3, 2, 2, 3, 3, 5)
        b, _ = random_ensembles(3 if shared else 4, 2, 2, 3, 3, 4)
        if shared:
            rng = np.random.default_rng(9)
            b = [[with_values(t, rng) for t in trees] for trees in b]
        parts = [draws_of(a), draws_of(b)]
        for p, (proposals, accepted) in zip(parts, [(7, 2), (5, 1)]):
            p.n_proposals, p.n_accepted, p.meta = proposals, accepted, {"seed": 3}
        pooled = PosteriorDraws.concat(parts)
        both = a + b
        assert pooled.n_kept == len(both)
        assert pooled.n_leaves == sum(p.n_leaves for p in parts)
        np.testing.assert_array_equal(
            pooled.sigma2_trace, np.concatenate([p.sigma2_trace for p in parts])
        )
        assert (pooled.n_proposals, pooled.n_accepted) == (12, 3)
        assert pooled.meta == {"seed": 3, "chains": 2}
        np.testing.assert_array_equal(
            pooled.weights(X), np.stack([oracle_weights(trees, X) for trees in both])
        )
        assert encoded(pooled) == [
            [t.encode() for t in trees] for trees in both
        ]
        # Each tree's leaf vectors start at its offset, in pre-order.
        offsets = pooled.offsets
        for s, trees in enumerate(both):
            for j, t in enumerate(trees):
                leaves = [t.values[i] for i in t.leaf_nodes()]
                got = pooled.values[offsets[s, j] :][: len(leaves)]
                np.testing.assert_array_equal(got, leaves)
        structures = {structure(t) for trees in both for t in trees}
        assert len(pooled.skeletons) == len(structures)
        own = {structure(t) for trees in a for t in trees}
        if shared:
            assert structures == own
        else:
            assert len(structures) > len(own)

    def test_leaf_without_vector_rejected(self):
        # append gathers each tree's vectors at its leaves, so a leaf
        # without one fails the draw instead of shifting every later
        # tree's vectors.
        tree = Tree.decode("I 0 0.5 L 2 1 1 L 2 1 2")
        tree.values[2] = None
        draws = PosteriorDraws()
        with pytest.raises(ValueError, match="different lengths"):
            draws.append(1.0, [tree])
        assert draws.n_kept == draws.n_leaves == 0

    def test_fit_holds_one_tree_per_structure(self):
        # The kept draws hold one skeleton Tree per distinct structure, not
        # a tree per kept tree-draw.
        data, ps, _, _ = make_problem()
        cfg = SamplerConfig(m=4, n_burn=20, n_keep=30, seed=123)
        structures = set()

        def record(sweep, chain):
            if sweep >= cfg.n_burn:
                structures.update(structure(t) for t in chain.trees)

        def trees_alive():
            gc.collect()
            return sum(isinstance(o, Tree) for o in gc.get_objects())

        before = trees_alive()
        draws = fit_bmm(data, ps, cfg, callback=record)
        assert len(draws.skeletons) == len(structures) < cfg.n_keep * cfg.m
        assert trees_alive() - before == len(structures)

    def test_append_reuses_ids_of_unchanged_trees(self, monkeypatch):
        # A tree caches its structure key, so over a real chain's kept draws
        # append builds one key per distinct tree object, and its table
        # equals one that interns a fresh copy of every tree.
        data, ps, _, _ = make_problem_2d()
        cfg = SamplerConfig(m=5, n_burn=20, n_keep=60, seed=21, min_leaf_n=2)
        fresh, kept = PosteriorDraws(), []

        def record(sweep, chain):
            if sweep >= cfg.n_burn:
                kept.extend(chain.trees)
                fresh.append(chain.sigma2, [Tree.decode(t.encode()) for t in chain.trees])

        built, key = [], Tree.key

        def counted_key(tree):
            if tree._key is None:
                built.append(tree)
            return key.fget(tree)

        monkeypatch.setattr(Tree, "key", property(counted_key))
        draws = fit_bmm(data, ps, cfg, callback=record)
        np.testing.assert_array_equal(draws.ids, fresh.ids)
        np.testing.assert_array_equal(draws.offsets, fresh.offsets)
        np.testing.assert_array_equal(draws.values, fresh.values)
        assert encoded(draws) == encoded(fresh)
        # fresh builds m keys per draw, the chain's draws one per tree
        # object: m for the first and one per accepted move after that.
        chain_trees = {id(t) for t in kept}
        assert len({id(t) for t in built}) == len(built)
        assert len(built) == len(chain_trees) + cfg.n_keep * cfg.m
        assert chain_trees <= {id(t) for t in built}
        assert (np.diff(draws.ids, axis=0) != 0).any()
        assert cfg.m < len(chain_trees) < cfg.n_keep * cfg.m


class TestDrawArchive:
    def test_round_trip_and_reprediction(self, tmp_path):
        data, ps, grid, grid_means = make_problem()
        cfg = SamplerConfig(m=3, n_burn=30, n_keep=40, seed=8)
        draws = fit_bmm(data, ps, cfg)
        path = tmp_path / "draws.txt"
        save_draws(draws, path)
        ensembles = load_draws(path)
        assert len(ensembles) == draws.n_kept
        np.testing.assert_array_equal([s for s, _ in ensembles], draws.sigma2_trace)
        again = predict_from_archive(ensembles, grid, grid_means)
        original = predict_mixed(draws, grid, grid_means)
        for f in dataclasses.fields(original):
            np.testing.assert_array_equal(
                getattr(again, f.name), getattr(original, f.name), err_msg=f.name
            )

    def test_loaded_archive_mirrors_file(self, tmp_path):
        # The pairs load_draws reads, appended into PosteriorDraws, give back
        # each draw's tree lines and sigma2, and the fit's structures.
        data, ps, _, _ = make_problem_2d()
        cfg = SamplerConfig(m=5, n_burn=25, n_keep=25, seed=21, min_leaf_n=3)
        draws = fit_bmm(data, ps, cfg)
        path = tmp_path / "draws.txt"
        save_draws(draws, path)
        written = []
        for line in path.read_text().splitlines():
            if line.startswith("draw "):
                written.append((float(line.split()[3]), []))
            elif line.startswith("tree "):
                written[-1][1].append(line[len("tree "):])
        loaded = PosteriorDraws()
        for sigma2, trees in load_draws(path):
            loaded.append(sigma2, trees)
        assert encoded(loaded) == [trees for _, trees in written]
        np.testing.assert_array_equal(loaded.sigma2_trace, [s for s, _ in written])
        assert len(loaded.skeletons) == len(draws.skeletons) > 1
        np.testing.assert_array_equal(loaded.ids, draws.ids)

    @pytest.mark.parametrize(
        "bad",
        [
            "tree L 2 0.5 0.5",
            "draw 1",
            "draw 1 sigma2",
            "draw 1 sigma2 nan",
            "draw 1 sigma2 inf",
            "draw 1 sigma2 0",
            "draw 1 sigma2 -0.25",
            "draw 1 sigma2 0.5 0.5",
            "draw 1 sigma 0.5",
            "draw 1 sigma2 half",
            "tree L 2 0.5",
            "tree L 2 0.5 x",
            "tree L 2 nan 0.5",
            "tree L 2 inf 0.5",
            "tree I 0 nan L 2 1 1 L 2 0 0",
            "tree L 1 0.5",
            "tree L 0",
            "tree L 3 0.5 0.5 0.5",
            "tree I 0 0.5 L 2 1 1 L 1 0",
            "tree I 0 0.5 L 2 1 1 L 2 1 2 L 2 1 3",
            "tree I -1 0.5 I 0 0.3 L 2 1 1 L 2 1 2",
            "# n_models = two",
            "# n_models = 0",
        ],
    )
    def test_malformed_archive_rejected(self, tmp_path, bad):
        # A tree line before any draw line, a draw line without one finite,
        # positive sigma2, a tree line that does not parse, holds a
        # non-finite cut or leaf or a leaf of other than n_models values, a
        # bad n_models header and an unknown line each raise ValueError
        # naming the line.
        good = "# n_models = 2\ndraw 0 sigma2 0.25\ntree L 2 0.5 0.5\n"
        path = tmp_path / "draws.txt"
        if bad == "tree L 2 0.5 0.5":  # valid, but before any draw line
            path.write_text("# m = 1\n" + bad + "\n" + good)
        else:
            path.write_text(good + bad + "\ntree L 2 0.5 0.5\n")
        with pytest.raises(ValueError, match="bad archive line") as err:
            load_draws(path)
        assert repr(bad) in str(err.value)

    @pytest.mark.parametrize(
        "trees, error",
        [
            (["L 1 0.5"], "leaf vectors of 1 values, expected 2"),
            (["L 0"], "leaf length below 1"),
            (["L 3 0.5 0.5 0.5"], "leaf vectors of 3 values, expected 2"),
            (["L 2 0.5 0.5", "L 1 0.5"], "draw 0: leaf vectors of different lengths"),
            (["L 2 0.5 0.5", None, "L 1 0.5"], "draw 1: leaf vectors of different lengths"),
            ([], "draw 0: a draw without trees"),
            (["L 2 0.5 0.5", None], "draw 1: a draw without trees"),
            (["L 2 0.5 0.5", None, "L 2 1 1", "L 2 1 1"], "draw 1: a draw of 2 trees, expected 1"),
            (["I 3 0.5 L 2 1 1 L 2 1 2"], "a tree rule reads input column 3, but the inputs have only 1"),
        ],
    )
    def test_reprediction_checks_draw_shapes(self, tmp_path, trees, error):
        # Without an n_models header a leaf of the wrong length loads, and
        # re-prediction against two models rejects it instead of
        # broadcasting one weight over both.  Draws must also hold the same
        # number of trees, or the first draw's would be broadcast over the
        # next's.  A leaf of no values never loads.  None starts a new draw.
        lines = ["draw 0 sigma2 0.5"]
        for tree in trees:
            lines.append("draw 1 sigma2 0.5" if tree is None else f"tree {tree}")
        path = tmp_path / "draws.txt"
        path.write_text("\n".join(lines) + "\n")
        grid, grid_means = np.array([0.5]), np.ones((1, 2))
        with pytest.raises(ValueError, match=error):
            predict_from_archive(load_draws(path), grid, grid_means)

    def test_archive_supports_new_grid(self, tmp_path):
        data, ps, _, _ = make_problem()
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
        data, ps, _, _ = make_problem()
        bad = PredictionSet(means=ps.means[:-1])
        with pytest.raises(ValueError, match="align"):
            fit_bmm(data, bad, SamplerConfig(n_burn=1, n_keep=1))

    def test_non_finite_predictions_rejected(self):
        data, ps, _, _ = make_problem()
        ps.means[3, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite predictions"):
            PredictionSet(means=ps.means)

    @pytest.mark.parametrize(
        "change, error",
        [
            ("drop_row", "grid_means has 14 rows, grid 15"),
            ("drop_column", "leaf vectors of 2 values, expected 1"),
            ("add_column", "leaf vectors of 2 values, expected 3"),
            ("nan", "non-finite grid_means"),
            ("inf", "non-finite grid_means"),
        ],
    )
    def test_grid_means_checked_by_predict_mixed(self, tmp_path, change, error):
        # The models' grid means must be (len(grid), K) and finite, whether
        # the draws come from a fit or from an archive.
        data, ps, grid, grid_means = make_problem()
        draws = fit_bmm(data, ps, SamplerConfig(m=2, n_burn=2, n_keep=3, seed=1))
        path = tmp_path / "draws.txt"
        save_draws(draws, path)
        bad = {
            "drop_row": grid_means[:-1],
            "drop_column": grid_means[:, :1],
            "add_column": np.column_stack([grid_means, grid_means[:, 0]]),
            "nan": np.where(np.arange(2) == 1, np.nan, grid_means),
            "inf": np.where(np.arange(2) == 0, np.inf, grid_means),
        }[change]
        with pytest.raises(ValueError, match=error):
            predict_mixed(draws, grid, bad)
        with pytest.raises(ValueError, match=error):
            predict_from_archive(load_draws(path), grid, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected(self, bad):
        # A NaN would take the right-hand leaf of every rule.
        tree = Tree.decode("I 0 0.5 L 1 1 L 1 2")
        grid, grid_means = np.array([0.2, bad, 0.9]), np.ones((3, 1))
        with pytest.raises(ValueError, match="non-finite grid$"):
            predict_mixed(draws_of([[tree]]), grid, grid_means)
        with pytest.raises(ValueError, match="non-finite grid$"):
            predict_from_archive([(1.0, [tree])], grid, grid_means)

    def test_concat_pools_chains(self):
        data, ps, _, _ = make_problem()
        parts = [
            fit_bmm(data, ps, SamplerConfig(m=2, n_burn=5, n_keep=10, seed=s))
            for s in (1, 2)
        ]
        pooled = PosteriorDraws.concat(parts)
        assert pooled.n_kept == 20
        assert pooled.meta["chains"] == 2

    def test_rmse_helper(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))


class TestFitChains:
    CFG = SamplerConfig(m=2, n_burn=5, n_keep=10, seed=4)

    @staticmethod
    def assert_same_draws(got, expected):
        assert encoded(got) == encoded(expected)
        np.testing.assert_array_equal(got.sigma2_trace, expected.sigma2_trace)
        assert (got.n_proposals, got.n_accepted) == (
            expected.n_proposals, expected.n_accepted
        )
        assert got.meta == expected.meta

    def test_one_chain_is_fit_bmm(self):
        data, ps, _, _ = make_problem()
        got = fit_chains(data, ps, self.CFG, 1)
        self.assert_same_draws(got, fit_bmm(data, ps, self.CFG))
        assert "chains" not in got.meta

    def test_chains_pool_in_seed_order(self):
        data, ps, _, _ = make_problem()
        got = fit_chains(data, ps, self.CFG, 2)
        parts = [
            fit_bmm(data, ps, dataclasses.replace(self.CFG, seed=seed))
            for seed in (4, 5)
        ]
        self.assert_same_draws(got, PosteriorDraws.concat(parts))
        assert got.meta["chains"] == 2

    def test_needs_a_chain(self):
        data, ps, _, _ = make_problem()
        with pytest.raises(ValueError, match="chain"):
            fit_chains(data, ps, self.CFG, 0)

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        # One worker beside the caller on any host; every test leaves no
        # worker process behind.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        yield
        assert multiprocessing.active_children() == []

    def test_more_chains_than_workers(self, two_cpus):
        data, ps, _, _ = make_problem()
        got = fit_chains(data, ps, self.CFG, 3)
        parts = [
            fit_bmm(data, ps, dataclasses.replace(self.CFG, seed=seed))
            for seed in (4, 5, 6)
        ]
        self.assert_same_draws(got, PosteriorDraws.concat(parts))

    def test_one_cpu_starts_no_worker(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        data, ps, _, _ = make_problem()
        got = fit_chains(data, ps, self.CFG, 2)
        monkeypatch.undo()
        self.assert_same_draws(got, fit_chains(data, ps, self.CFG, 2))

    @staticmethod
    def count_caller_sweeps(monkeypatch):
        """The list that each sweep run in this process appends to."""
        calls = []
        sweep = Chain.gibbs_sweep

        def counted(self, **kwargs):
            calls.append(kwargs)
            return sweep(self, **kwargs)

        monkeypatch.setattr(Chain, "gibbs_sweep", counted)
        return calls

    def test_caller_runs_chain_zero(self, two_cpus, monkeypatch):
        # A tracer that patches the sampler in the calling process sees
        # exactly one chain's sweeps.
        calls = self.count_caller_sweeps(monkeypatch)
        cfg = dataclasses.replace(self.CFG, thin=2)
        data, ps, _, _ = make_problem()
        fit_chains(data, ps, cfg, 2)
        assert len(calls) == cfg.n_burn + cfg.n_keep * cfg.thin

    def test_caller_shares_chains_with_workers(self, two_cpus, monkeypatch):
        # Four chains over the caller and one worker: each runs two, dealt
        # round-robin, and the pool still comes back in chain order.
        calls = self.count_caller_sweeps(monkeypatch)
        data, ps, _, _ = make_problem()
        got = fit_chains(data, ps, self.CFG, 4)
        assert len(calls) == 2 * (self.CFG.n_burn + self.CFG.n_keep)
        parts = [
            fit_bmm(data, ps, dataclasses.replace(self.CFG, seed=seed))
            for seed in (4, 5, 6, 7)
        ]
        self.assert_same_draws(got, PosteriorDraws.concat(parts))

    @pytest.mark.parametrize("in_worker", [True, False])
    def test_chain_error_reaches_caller(self, two_cpus, monkeypatch, in_worker):
        caller = os.getpid()
        sweep = Chain.gibbs_sweep

        def fails(self, **kwargs):
            if (os.getpid() != caller) == in_worker:
                raise FloatingPointError("chain diverged")
            return sweep(self, **kwargs)

        monkeypatch.setattr(Chain, "gibbs_sweep", fails)
        data, ps, _, _ = make_problem()
        with pytest.raises(FloatingPointError, match="chain diverged"):
            fit_chains(data, ps, self.CFG, 2)


def make_problem_2d(n=40, seed=4, mesh=5):
    """Two linear surfaces mixed along the diagonal of [-1, 1]^2: the data,
    the surfaces at the data, a mesh and the surfaces on it."""
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
    return data, PredictionSet(means=F), G, models(G)


class TestGoldenBytes:
    """Seeded runs must reproduce recorded bytes exactly.

    The SHA-256 values pin the draw archive, the sigma2 trace and the mixed
    trace evaluated from the kept trees of two fixed-seed runs, so a
    refactor of the tree or sampler code that changes any RNG call, row
    order or float sum shows up here.  They were
    recorded with numpy 2.4.6 and its bundled OpenBLAS 0.3.31 (Haswell
    kernels), so they pin that numpy/BLAS build: another build or CPU kernel
    may round dot products differently in the last bit and then needs its
    own values.
    """

    @staticmethod
    def digests(problem, cfg, tmp_path):
        data, ps, grid, grid_means = problem
        draws = fit_bmm(data, ps, cfg)
        path = tmp_path / "draws.txt"
        save_draws(draws, path)
        weights = draws.weights(grid.reshape(len(grid), -1))
        mixed = np.einsum("gk,sgk->sg", grid_means, weights)
        return tuple(
            hashlib.sha256(b).hexdigest()
            for b in (
                path.read_bytes(),
                draws.sigma2_trace.tobytes(),
                mixed.tobytes(),
            )
        )

    def test_1d_birth_death(self, tmp_path):
        cfg = SamplerConfig(m=4, n_burn=20, n_keep=30, seed=123)
        assert self.digests(make_problem(), cfg, tmp_path) == (
            "57d1c654f8be7162cfe57ee48c458b480222fefbe3236ab829dd5c802ef6307f",
            "85eacc4393bed79355ef61289843dfbe4c953177f8cefa67ee316d61feb7e7ce",
            "92b9a3e532e79c5f93de865d495d6cb9ec11da7dd6ae47bada750f068c92fee2",
        )

    def test_2d_midpoints_with_relocation(self, tmp_path):
        cfg = SamplerConfig(
            m=5,
            n_burn=25,
            n_keep=25,
            seed=21,
            min_leaf_n=3,
            cutpoint_method="midpoints",
            cutpoints_per_dim=30,
        )
        assert self.digests(make_problem_2d(), cfg, tmp_path) == (
            "c4bffdf490c8161b6d85c52d24d6001c080aaa8c34994055c3dc8696c043bbb5",
            "ae393b6880a736a2196f4f3b6ffc86bc1a0c3a44454fdb1374af39950a22d2bb",
            "cbfc3272cf54a4e89c35a8272a51c6deac1294e2b652fb7bac7709db53cd3a22",
        )
