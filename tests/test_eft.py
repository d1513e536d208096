from math import factorial
from pathlib import Path

import numpy as np
import pytest

from mixtrees.eft import (
    Q_MAX,
    EftGp,
    expansion_runs,
    extract_coefficients,
    fit_coefficient_gp,
    fit_eft,
    predict_eft,
    predict_exact,
    strong_coefficients,
    strong_expansion,
    taylor_cos,
    taylor_sin,
    taylor_surface_simulator,
    truncation_cov,
    weak_coefficients,
    weak_expansion,
)
from mixtrees.cli import ExperimentConfig
from mixtrees.dataset import linspace_grid, true_system_phi4

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SQRT_2PI = 2.5066282746310005

# 20-digit gamma-function oracle values (mpmath), frozen.
L0_ORACLE = 1.8128049541109542  # Gamma(1/4) / 2
L1_ORACLE = -0.3063541756162944  # -Gamma(3/4) / 4
S2_ORACLE = -7.5198848238930015  # -3 sqrt(2 pi)


class TestCoefficients:
    def test_weak_order_zero(self):
        assert weak_coefficients(0)[0] == pytest.approx(SQRT_2PI, rel=1e-14)

    def test_weak_odd_entries_exactly_zero(self):
        c = weak_coefficients(7)
        assert np.all(c[1::2] == 0.0)

    def test_weak_second_order_gamma_oracle(self):
        assert weak_coefficients(2)[2] == pytest.approx(S2_ORACLE, rel=1e-14)

    def test_strong_leading_terms_gamma_oracle(self):
        c = strong_coefficients(1)
        assert c[0] == pytest.approx(L0_ORACLE, rel=1e-14)
        assert c[1] == pytest.approx(L1_ORACLE, rel=1e-14)

    def test_strong_signs_alternate(self):
        c = strong_coefficients(6)
        assert np.all(np.sign(c) == [1, -1, 1, -1, 1, -1, 1])

    def test_within_four_ulp_of_scipy_gamma(self):
        from scipy.special import gamma

        weak = [
            np.sqrt(2.0) * gamma(t + 0.5) / factorial(t // 2) * (-4.0) ** (t // 2)
            if t % 2 == 0 else 0.0
            for t in range(13)
        ]
        strong = [
            gamma(0.5 * t + 0.25) / (2.0 * factorial(t)) * (-0.5) ** t
            for t in range(13)
        ]
        for got, ref in ((weak_coefficients(12), weak), (strong_coefficients(12), strong)):
            ref = np.array(ref)
            assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))


class TestEvaluateExpansion:
    def test_weak_order_zero_is_constant(self):
        e = weak_expansion(0)
        for x in (0.0, 0.3, 2.0):
            assert e(x) == pytest.approx(SQRT_2PI, rel=1e-14)

    def test_weak_order_two_polynomial(self):
        e = weak_expansion(2)
        # sqrt(2 pi) * (1 - 3 * 0.01)
        assert e(0.1) == pytest.approx(2.4314294263920705, rel=1e-13)

    def test_strong_tends_to_leading_coefficient(self):
        e = strong_expansion(4)
        assert e(1e9) == pytest.approx(L0_ORACLE, rel=1e-8)

    def test_strong_rejects_zero(self):
        with pytest.raises(ValueError):
            strong_expansion(2)(0.0)

    def test_scale_factor_applied(self):
        e = strong_expansion(4, scale=lambda x: x ** -0.5)
        bare = strong_expansion(4)
        x = 0.5
        assert e(x) == pytest.approx(bare(x) / np.sqrt(x), rel=1e-14)

    def test_scaled_strong_tracks_true_system_on_the_right(self):
        # The large-coupling simulator needs the x^(-1/2) prefactor to
        # approximate the integral; with it the order-4 series is accurate
        # near x = 0.5.
        e = strong_expansion(4, scale=lambda x: x ** -0.5)
        assert abs(e(0.5) - true_system_phi4(0.5)) < 0.01

    def test_weak_rejects_nonzero_odd_coefficients(self):
        from mixtrees.eft import Expansion

        with pytest.raises(ValueError):
            Expansion("weak", 1, np.array([1.0, 2.0]))


class TestExtraction:
    def test_weak_round_trip_recovers_coefficients(self):
        e = weak_expansion(4)
        for x in linspace_grid(0.03, 0.50, 4):
            runs = expansion_runs(e, [x])[0]
            rec = extract_coefficients(runs, q=x, yref=1.0)
            np.testing.assert_allclose(rec, e.coefficients, rtol=1e-12, atol=1e-12)

    def test_weak_odd_coefficients_extract_to_zero(self):
        e = weak_expansion(5)
        runs = expansion_runs(e, [0.3])[0]
        rec = extract_coefficients(runs, q=0.3, yref=1.0)
        assert np.allclose(rec[1::2], 0.0, atol=1e-12)

    def test_order_zero_scaling(self):
        assert extract_coefficients([5.0], q=1.0, yref=2.0)[0] == 2.5

    def test_scaled_strong_round_trip(self):
        e = strong_expansion(4, scale=lambda x: x ** -0.5)
        x = 0.4
        runs = expansion_runs(e, [x])[0]
        rec = extract_coefficients(runs, q=1.0 / x, yref=x ** -0.5)
        np.testing.assert_allclose(rec, e.coefficients, rtol=1e-12)

    def test_zero_q_rejected_beyond_order_zero(self):
        with pytest.raises(ValueError):
            extract_coefficients([1.0, 2.0], q=0.0, yref=1.0)

    def test_zero_yref_rejected(self):
        with pytest.raises(ValueError):
            extract_coefficients([1.0], q=0.5, yref=0.0)


def _simple_gp(cbar2=1.0, q=None, yref=None):
    return EftGp(
        cbar2=cbar2,
        ell=1.0,
        q_map=q or (lambda x: x),
        yref_map=yref or (lambda x: 1.0),
        design_coefficients=np.zeros((2, 1)),
    )


class TestTruncationMoments:
    def test_tail_cov_diagonal_value(self):
        gp = _simple_gp(q=lambda x: 0.5)
        # 0.5^4 / (1 - 0.25) = 1/12
        assert truncation_cov(gp, 1, 0.0, 0.0) == pytest.approx(1.0 / 12.0)

    def test_tail_cov_zero_where_q_zero(self):
        gp = _simple_gp()
        assert truncation_cov(gp, 2, 0.0, 0.5) == 0.0

    def test_variance_nondecreasing_in_q(self):
        gp = _simple_gp()
        qs = np.linspace(0.0, 0.99, 30)
        vals = [truncation_cov(gp, 2, q, q) for q in qs]
        assert np.all(np.diff(vals) >= 0)

    def test_symmetry(self):
        gp = _simple_gp(q=lambda x: 0.8 * x, yref=lambda x: 1.0 + x)
        assert truncation_cov(gp, 3, 0.4, 0.9) == pytest.approx(
            truncation_cov(gp, 3, 0.9, 0.4), rel=1e-15
        )

    def test_capping_keeps_variance_finite_and_large(self):
        gp = _simple_gp(q=lambda x: 1.0 / x)
        v = truncation_cov(gp, 4, 0.1, 0.1)  # q = 10 before the cap
        assert np.isfinite(v)
        assert v == pytest.approx(Q_MAX ** 10 / (1 - Q_MAX ** 2))

    def test_psd_on_grids_where_q_below_one(self):
        gp = _simple_gp(q=lambda x: x, yref=lambda x: 1.0 + 0.5 * x)
        grid = np.linspace(0.05, 0.9, 10)
        K = np.array([[truncation_cov(gp, 2, a, b) for b in grid] for a in grid])
        assert np.linalg.eigvalsh(K).min() >= -1e-8


class TestFitEft:
    def test_zero_coefficients_shrink_to_prior_scale(self):
        C = np.zeros((4, 3))
        cbar2, _ = fit_coefficient_gp(C, np.linspace(0.0, 1.0, 4))
        m_total = 12
        assert cbar2 == pytest.approx(5.0 / (5.0 + m_total - 2.0), rel=1e-6)
        assert cbar2 < 1.0

    def test_duplicate_design_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            fit_coefficient_gp(np.zeros((3, 2)), [0.1, 0.1, 0.3])

    def test_too_few_design_points_rejected(self):
        with pytest.raises(ValueError):
            fit_coefficient_gp(np.zeros((1, 2)), [0.1])

    def test_fit_invariant_to_design_reordering(self):
        e = weak_expansion(4)
        xs = np.array([0.03, 0.18, 0.34, 0.50])
        gp1 = fit_eft(e, xs, lambda x: x, lambda x: 1.0)
        gp2 = fit_eft(e, xs[::-1], lambda x: x, lambda x: 1.0)
        assert gp1.cbar2 == pytest.approx(gp2.cbar2, rel=1e-10)
        assert gp1.ell == pytest.approx(gp2.ell, rel=1e-10)

    def test_monte_carlo_recovery_of_known_scale(self):
        # Coefficient curves drawn from a GP with unit variance: the fitted
        # scale should usually land within 50% once n_c * (N+1) >= 20.
        rng = np.random.default_rng(123)
        xs = np.linspace(0.0, 1.0, 6)
        ell_true = 0.3
        d2 = (xs[:, None] - xs[None, :]) ** 2
        R = np.exp(-0.5 * d2 / ell_true ** 2) + 1e-10 * np.eye(6)
        L = np.linalg.cholesky(R)
        hits, estimates = 0, []
        n_rep = 60
        for _ in range(n_rep):
            C = (L @ rng.standard_normal((6, 5)))  # 5 curves: 30 samples
            cbar2, _ = fit_coefficient_gp(C, xs)
            estimates.append(cbar2)
            hits += abs(cbar2 - 1.0) <= 0.5
        assert hits / n_rep >= 0.8
        assert np.mean(estimates) == pytest.approx(1.0, abs=0.25)


def cho_solve_fit(C, xs, nu0=5.0, lambda0=1.0, n_ell=50, nugget=1e-8):
    """(cbar2, ell) of :func:`fit_coefficient_gp` through scipy's Cholesky
    solve, the reference for the numpy forward substitution."""
    from scipy.linalg import cho_factor, cho_solve

    d2 = (xs[:, None] - xs[None, :]) ** 2
    width = np.sqrt(d2.max())
    nu_post = nu0 + C.size
    best = (-np.inf, None, None)
    for ell in np.geomspace(0.01 * width, 10.0 * width, n_ell):
        cf = cho_factor(np.exp(-0.5 * d2 / ell ** 2) + nugget * np.eye(len(xs)), lower=True)
        logdet = 2.0 * np.sum(np.log(np.diag(cf[0])))
        quad_sum = float(np.sum(C * cho_solve(cf, C)))
        score = -0.5 * C.shape[1] * logdet - 0.5 * nu_post * np.log(nu0 * lambda0 + quad_sum)
        if score > best[0]:
            best = (score, ell, quad_sum)
    _, ell, quad_sum = best
    return (nu0 * lambda0 + quad_sum) / (nu_post - 2.0), ell


def shipped_gp_models():
    """(config, section) of every truncation-GP model in the shipped configs."""
    models = []
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        cfg = ExperimentConfig(path)
        models += [
            (path.name, s) for s in cfg.model_sections if cfg.build_model(s)[3] is not None
        ]
    return models


class TestCoefficientGpReference:
    @pytest.mark.parametrize("config,section", shipped_gp_models())
    def test_matches_cho_solve_fit(self, config, section):
        _, exp, _, (q_map, yref_map, design) = ExperimentConfig(
            CONFIG_DIR / config
        ).build_model(section)
        gp = fit_eft(exp, design, q_map, yref_map)
        cbar2, ell = cho_solve_fit(gp.design_coefficients, design)
        assert gp.ell == ell
        assert gp.cbar2 == pytest.approx(cbar2, rel=1e-12, abs=0)

    def test_non_finite_coefficient_rejected(self):
        C = np.zeros((3, 2))
        C[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            fit_coefficient_gp(C, [0.1, 0.2, 0.3])


@pytest.fixture(scope="module")
def weak_fit():
    e = weak_expansion(2)
    gp = fit_eft(e, linspace_grid(0.03, 0.50, 4), lambda x: x, lambda x: 1.0)
    return e, gp


class TestPredictEft:

    def test_zero_mean_gp_prediction_equals_raw_expansion(self, weak_fit):
        e, gp = weak_fit
        grid = linspace_grid(0.03, 0.50, 7)
        pred = predict_eft(gp, e, grid)
        np.testing.assert_allclose(pred.mean, [e(x) for x in grid], rtol=1e-13)

    def test_variance_vanishes_as_q_tends_to_zero(self, weak_fit):
        e, gp = weak_fit
        pred = predict_eft(gp, e, [1e-8, 0.25])
        assert pred.variance[0] < 1e-40
        assert pred.variance[1] > 0

    def test_spot_value_recomposed_by_hand(self):
        # Independent recomposition of mean and variance for a hand-built GP.
        e = weak_expansion(2)
        gp = _simple_gp(cbar2=2.0, q=lambda x: x, yref=lambda x: 1.5)
        x = 0.4
        pred = predict_eft(gp, e, [x])
        expect_mean = e(x)  # the tail has mean zero
        expect_var = 2.0 * 1.5 ** 2 * x ** 6 / (1 - x ** 2)
        assert pred.mean[0] == pytest.approx(expect_mean, rel=1e-12)
        assert pred.variance[0] == pytest.approx(expect_var, rel=1e-12)

    def test_weak2_accurate_left_diverging_right(self, weak_fit):
        # Qualitative shape: the order-2 small-coupling prediction hugs the
        # true system below x ~ 0.1 and departs beyond x ~ 0.4.
        e, gp = weak_fit
        left = linspace_grid(0.03, 0.0999, 10)
        right = linspace_grid(0.4001, 0.50, 10)
        pred_l = predict_eft(gp, e, left)
        pred_r = predict_eft(gp, e, right)
        truth_l = np.array([true_system_phi4(x) for x in left])
        truth_r = np.array([true_system_phi4(x) for x in right])
        assert np.all(np.abs(pred_l.mean - truth_l) < 0.05)
        assert np.all(np.abs(pred_r.mean - truth_r) > 0.05)

    def test_capped_flag_reported(self):
        e = strong_expansion(4, scale=lambda x: x ** -0.5)
        gp = fit_eft(e, linspace_grid(2.0, 8.0, 4), lambda x: 1 / x, lambda x: x ** -0.5)
        pred = predict_eft(gp, e, [0.1, 4.0])
        assert pred.capped.tolist() == [True, False]

    def test_exact_prediction_zero_variance(self):
        sim = taylor_surface_simulator(np.pi, 7, np.pi, 10)
        grid = np.array([[0.0, 0.0], [1.0, -1.0]])
        pred = predict_exact(sim, grid)
        assert pred.mean.tolist() == [sim(grid[0]), sim(grid[1])]
        assert np.all(pred.variance == 0)
        assert np.all(~pred.capped)

    def test_exact_prediction_calls_series_per_scalar(self):
        e = weak_expansion(2)
        grid = linspace_grid(0.03, 0.50, 5)
        assert predict_exact(e, grid).mean.tolist() == [e(x) for x in grid]

    @pytest.mark.parametrize("predict", ["exact", "eft"])
    def test_series_rejects_a_2d_point(self, weak_fit, predict):
        # A series takes one scalar; an (n, 2) grid must not be flattened
        # into 2n scalars.
        e, gp = weak_fit
        grid = np.array([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(ValueError):
            predict_exact(e, grid) if predict == "exact" else predict_eft(gp, e, grid)

    def test_eft_grid_must_be_1d(self, weak_fit):
        e, gp = weak_fit
        with pytest.raises(ValueError, match="1-d"):
            predict_eft(gp, e, np.array([[0.1], [0.3]]))


class TestTaylorSurface:
    def test_taylor_sin_converges_at_center(self):
        assert taylor_sin(np.pi, np.pi, 3) == pytest.approx(np.sin(np.pi), abs=1e-15)

    def test_taylor_matches_function_nearby(self):
        x = np.pi - 0.3
        assert taylor_sin(x, np.pi, 13) == pytest.approx(np.sin(x), abs=1e-12)
        assert taylor_cos(x, np.pi, 10) == pytest.approx(np.cos(x), abs=1e-10)

    def test_simulator_accurate_near_its_centers(self):
        h2 = taylor_surface_simulator(-np.pi, 13, -np.pi, 6)
        pt = np.array([-np.pi + 0.4, -np.pi + 0.4])
        truth = np.sin(pt[0]) + np.cos(pt[1])
        assert h2(pt) == pytest.approx(truth, abs=1e-4)

    def test_simulator_diverges_far_from_centers(self):
        h1 = taylor_surface_simulator(np.pi, 7, np.pi, 10)
        pt = np.array([-np.pi, -np.pi])
        truth = np.sin(pt[0]) + np.cos(pt[1])
        assert abs(h1(pt) - truth) > 10.0
