import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats
from scipy.integrate import quad

from mixtrees.baselines import bma_predict, bma_weights, model_log_evidence, run_bma
from mixtrees.node_model import NoisePrior


class TestBmaWeights:
    def test_equal_evidence_uniform(self):
        np.testing.assert_allclose(bma_weights([3.0, 3.0, 3.0]), np.full(3, 1 / 3))

    def test_large_gap_gives_one_hot(self):
        w = bma_weights([0.0, -50.0])
        assert w[0] >= 1 - 1e-20
        assert w.sum() == pytest.approx(1.0)

    def test_three_model_direct_ratio_oracle(self):
        log_ev = np.array([1.2, -0.4, 0.9])
        raw = np.exp(log_ev)
        np.testing.assert_allclose(bma_weights(log_ev), raw / raw.sum(), rtol=1e-12)

    def test_priors_shift_weights(self):
        w = bma_weights([0.0, 0.0], log_priors=[np.log(0.9), np.log(0.1)])
        np.testing.assert_allclose(w, [0.9, 0.1], rtol=1e-12)

    @given(
        st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=6),
        st.floats(min_value=-100, max_value=100),
    )
    def test_invariant_to_constant_shift(self, log_ev, shift):
        a = bma_weights(log_ev)
        b = bma_weights(np.asarray(log_ev) + shift)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestModelLogEvidence:
    def test_zero_residuals_beat_any_misfit(self):
        y = np.array([1.0, 2.0, 3.0])
        prior = NoisePrior(5.0, 0.1)
        exact = model_log_evidence(y, y, prior)
        off = model_log_evidence(y, y + 0.5, prior)
        assert exact > off

    def test_scaling_residuals_up_decreases_evidence(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=8)
        prior = NoisePrior(4.0, 0.2)
        base = y + rng.normal(size=8) * 0.3
        vals = [
            model_log_evidence(y, y + c * (base - y), prior) for c in (1.0, 1.5, 2.0)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_single_point_quadrature_oracle(self):
        y = np.array([0.7])
        pred = np.array([0.2])
        nu, lam = 6.0, 0.4
        ours = model_log_evidence(y, pred, NoisePrior(nu, lam))

        def integrand(s2):
            prior = (
                (nu * lam / 2) ** (nu / 2)
                / math.gamma(nu / 2)
                * s2 ** (-(nu / 2 + 1))
                * np.exp(-nu * lam / (2 * s2))
            )
            return stats.norm.pdf(y[0], pred[0], np.sqrt(s2)) * prior

        val, _ = quad(integrand, 1e-8, 200.0, limit=300)
        assert ours == pytest.approx(np.log(val), rel=1e-6)


class TestBmaPredict:
    def test_one_hot_selects_model(self):
        gm = np.column_stack([np.arange(4.0), np.arange(4.0) ** 2])
        np.testing.assert_allclose(bma_predict([0.0, 1.0], gm), gm[:, 1])

    def test_equal_weights_average(self):
        gm = np.column_stack([np.zeros(3), np.ones(3)])
        np.testing.assert_allclose(bma_predict([0.5, 0.5], gm), np.full(3, 0.5))

    def test_stays_in_convex_hull(self):
        rng = np.random.default_rng(2)
        gm = rng.normal(size=(20, 3))
        w = np.array([0.2, 0.5, 0.3])
        mix = bma_predict(w, gm)
        assert np.all(mix <= gm.max(axis=1) + 1e-12)
        assert np.all(mix >= gm.min(axis=1) - 1e-12)

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            bma_predict([0.7, 0.7], np.ones((2, 2)))


class TestRunBma:
    def test_returns_normalized_result(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=10)
        train = np.column_stack([y + 0.01, y + 2.0])
        gm = np.column_stack([np.ones(5), np.zeros(5)])
        res = run_bma(y, train, gm, NoisePrior(5.0, 0.1))
        assert res.posterior_probs.sum() == pytest.approx(1.0)
        assert res.posterior_probs[0] > 0.999
        np.testing.assert_allclose(res.mean, np.ones(5), atol=1e-3)
