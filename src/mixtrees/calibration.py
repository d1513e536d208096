"""Prior calibration for the mixing weights and the error variance.

The leaf priors are chosen so that each model weight (a sum over m trees)
prefers [0, 1]: centered at 1/2 with [0, 1] sitting k standard deviations
out.  The informative variant recenters each leaf at the average
truncation-precision weight of the training points it contains.  The
variance prior scale is backed out from the best per-model squared errors.
"""

from __future__ import annotations

import warnings

import numpy as np

from .node_model import LeafPrior

SIGMA2_FLOOR = 1e-6


def noninformative_leaf_prior(m: int, k: float, n_models: int) -> LeafPrior:
    """Leaf prior with constant mean 0.5/m and sd 1/(2 k sqrt(m)).

    Summed over m trees this puts each weight at N(0.5, 1/(2k)^2), so 0 and
    1 are k standard deviations from the center.
    """
    if m < 1 or k <= 0:
        raise ValueError("m >= 1 and k > 0 required")
    return LeafPrior(mean=np.full(n_models, 0.5 / m), sd=1.0 / (2.0 * k * np.sqrt(m)))


def informative_tau(m: int, k: float) -> float:
    """Leaf sd 1/(2 k m): per-tree intervals of width 1/m."""
    if m < 1 or k <= 0:
        raise ValueError("m >= 1 and k > 0 required")
    return 1.0 / (2.0 * k * m)


def precision_weights(variances) -> np.ndarray:
    """Normalized inverse variances; rows of an (n, K) input are independent."""
    v = np.asarray(variances, dtype=float)
    if np.any(v <= 0):
        raise ValueError("precision weighting requires positive variances")
    inv = 1.0 / v
    return inv / inv.sum(axis=-1, keepdims=True)


def informative_leaf_mean(
    member_indices, point_weights: np.ndarray, m: int
) -> np.ndarray:
    """Average precision weight of a node's training points, divided by m."""
    idx = np.asarray(member_indices)
    if idx.size == 0:
        raise ValueError("informative prior mean needs a nonempty node")
    w = np.atleast_2d(np.asarray(point_weights, dtype=float))
    return w[idx].mean(axis=0) / m


def pilot_sigma2(predictions: np.ndarray, y: np.ndarray) -> float:
    """Largest over models of each model's smallest squared training error.

    Every model is presumed accurate somewhere, so these per-model minima
    bound the observational noise from above.
    """
    preds = np.atleast_2d(np.asarray(predictions, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if preds.shape[0] != y.size:
        raise ValueError("prediction rows must match observations")
    sq = (y[:, None] - preds) ** 2
    return float(sq.min(axis=0).max())


def calibrate_sigma2_prior(
    predictions: np.ndarray, y: np.ndarray, nu: float, match: str = "mode"
) -> float:
    """Scale lambda such that the pilot error variance is the prior mean or
    mode.  A zero pilot (some model interpolates a point exactly for every
    model) falls back to a tiny fixed scale."""
    sigma2_hat = pilot_sigma2(predictions, y)
    if sigma2_hat == 0.0:
        warnings.warn(
            "pilot error variance is exactly zero; "
            f"falling back to lambda = {SIGMA2_FLOOR}",
            stacklevel=2,
        )
        return SIGMA2_FLOOR
    if match == "mean":
        if nu <= 2:
            raise ValueError("mean matching requires nu > 2")
        return sigma2_hat * (nu - 2.0) / nu
    if match == "mode":
        return sigma2_hat * (nu + 2.0) / nu
    raise ValueError(f"match must be 'mean' or 'mode', got {match!r}")
