import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixtrees.calibration import (
    SIGMA2_FLOOR,
    calibrate_sigma2_prior,
    informative_leaf_mean,
    informative_tau,
    noninformative_leaf_prior,
    pilot_sigma2,
    precision_weights,
)


class TestNoninformativePrior:
    def test_single_tree_unit_k(self):
        lp = noninformative_leaf_prior(1, 1.0, n_models=2)
        assert np.all(lp.mean == 0.5)
        assert lp.sd == 0.5

    def test_ten_tree_reference_values(self):
        lp = noninformative_leaf_prior(10, 5.0, n_models=2)
        assert np.all(lp.mean == pytest.approx(0.05))
        assert lp.sd == pytest.approx(1.0 / (10.0 * np.sqrt(10.0)))

    def test_induced_weight_prior(self):
        # Summing m iid leaves: mean m*beta = 0.5, sd sqrt(m)*tau = 1/(2k);
        # with k=1 the interval [0, 1] sits one sd out on each side.
        for m, k in [(1, 1.0), (10, 5.0), (25, 2.0)]:
            lp = noninformative_leaf_prior(m, k, n_models=3)
            assert m * lp.mean[0] == pytest.approx(0.5)
            assert np.sqrt(m) * lp.sd == pytest.approx(1.0 / (2.0 * k))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            noninformative_leaf_prior(0, 1.0, 1)
        with pytest.raises(ValueError):
            noninformative_leaf_prior(1, 0.0, 1)


class TestPrecisionWeights:
    def test_equal_variances_are_uniform(self):
        assert precision_weights([1.0, 1.0]).tolist() == [0.5, 0.5]

    def test_one_three_case(self):
        np.testing.assert_allclose(precision_weights([1.0, 3.0]), [0.75, 0.25])

    def test_single_model(self):
        assert precision_weights([4.2]).tolist() == [1.0]

    def test_rowwise_on_matrix(self):
        w = precision_weights([[1.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(w, [[0.5, 0.5], [0.75, 0.25]])

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            precision_weights([1.0, 0.0])

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=8)
    )
    def test_always_on_simplex(self, variances):
        w = precision_weights(variances)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestInformativePrior:
    def test_tau_formula(self):
        assert informative_tau(1, 1.0) == 0.5
        assert informative_tau(10, 5.0) == pytest.approx(0.01)

    def test_tau_relation_to_noninformative(self):
        for m, k in [(4, 2.0), (10, 5.0)]:
            assert informative_tau(m, k) == pytest.approx(
                noninformative_leaf_prior(m, k, 1).sd / np.sqrt(m)
            )

    def test_constant_weights_average_to_themselves(self):
        w = np.tile([0.75, 0.25], (6, 1))
        mean = informative_leaf_mean([0, 2, 5], w, m=10)
        np.testing.assert_allclose(mean, [0.075, 0.025])

    def test_two_point_average(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        mean = informative_leaf_mean([0, 1], w, m=1)
        np.testing.assert_allclose(mean, [0.5, 0.5])

    def test_random_membership_against_bruteforce(self):
        rng = np.random.default_rng(31)
        w = precision_weights(rng.uniform(0.1, 3.0, size=(40, 3)))
        members = rng.choice(40, size=11, replace=False)
        m = 7
        got = informative_leaf_mean(members, w, m)
        brute = np.zeros(3)
        for i in members:
            brute += w[i]
        brute /= m * len(members)
        np.testing.assert_allclose(got, brute, rtol=1e-12)

    def test_structure_recovery_when_trees_identical(self):
        # m identical trees: scaled by m and summed, the leaf means recover
        # the average precision weight of the region.
        rng = np.random.default_rng(4)
        w = precision_weights(rng.uniform(0.5, 2.0, size=(12, 2)))
        members = np.arange(5)
        m = 9
        summed = m * informative_leaf_mean(members, w, m)
        np.testing.assert_allclose(summed, w[members].mean(axis=0), rtol=1e-12)

    def test_empty_node_rejected(self):
        with pytest.raises(ValueError):
            informative_leaf_mean([], np.ones((3, 2)), 1)


class TestSigma2Calibration:
    def test_pilot_is_max_of_min_squared_errors(self):
        y = np.array([0.0, 1.0, 2.0])
        preds = np.column_stack([y + 0.1, y + 0.2])
        assert pilot_sigma2(preds, y) == pytest.approx(0.04)

    def test_mean_matching_inverts_prior_mean(self):
        # nu=10, pilot 0.04 -> lambda = 0.032; prior mean nu*lam/(nu-2) = 0.04
        y = np.zeros(3)
        preds = np.column_stack([np.full(3, 0.2), np.full(3, 0.1)])
        lam = calibrate_sigma2_prior(preds, y, nu=10.0, match="mean")
        assert lam == pytest.approx(0.032)
        assert 10 * lam / 8 == pytest.approx(0.04)

    def test_mode_matching_inverts_prior_mode(self):
        y = np.zeros(2)
        preds = np.full((2, 1), 0.2)
        lam = calibrate_sigma2_prior(preds, y, nu=10.0, match="mode")
        assert 10 * lam / 12 == pytest.approx(0.04)

    def test_exact_interpolation_falls_back_with_warning(self):
        y = np.array([1.0, 2.0])
        preds = np.column_stack([[1.0, 5.0]])  # hits y[0] exactly
        with pytest.warns(UserWarning, match="zero"):
            lam = calibrate_sigma2_prior(preds, y, nu=10.0)
        assert lam == SIGMA2_FLOOR

    def test_mean_matching_needs_nu_above_two(self):
        with pytest.raises(ValueError):
            calibrate_sigma2_prior(np.ones((2, 1)), np.zeros(2), nu=2.0, match="mean")

    def test_unknown_match_rejected(self):
        with pytest.raises(ValueError):
            calibrate_sigma2_prior(np.ones((2, 1)), np.zeros(2), nu=5.0, match="median")

