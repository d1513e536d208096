"""Global-weight Bayesian model averaging baseline.

Each model's evidence is the Gaussian likelihood at its fixed mean
prediction with the error variance integrated against a scaled
inverse-chi-squared prior, which reduces to a Student-type closed form in
the residual sum of squares.  The averaged curve is the convex combination
of the model means under the posterior model probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .node_model import NoisePrior


@dataclass
class BmaResult:
    log_evidences: np.ndarray
    posterior_probs: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        if not np.isclose(self.posterior_probs.sum(), 1.0):
            raise ValueError("posterior model probabilities must sum to one")


def bma_weights(log_evidences, log_priors=None) -> np.ndarray:
    """Posterior model probabilities: stable softmax of evidence + prior."""
    log_ev = np.asarray(log_evidences, dtype=float)
    if log_priors is None:
        log_priors = np.zeros_like(log_ev)
    score = log_ev + np.asarray(log_priors, dtype=float)
    score = score - score.max()
    w = np.exp(score)
    return w / w.sum()


def model_log_evidence(y, predictions, noise: NoisePrior) -> float:
    """Log marginal likelihood of y around a fixed mean curve.

    With mean fixed at the model prediction and sigma2 ~ nu*lambda/chi2_nu,
    the marginal is proportional to (nu*lambda + SSE)^(-(nu+n)/2).
    """
    y = np.asarray(y, dtype=float).ravel()
    pred = np.asarray(predictions, dtype=float).ravel()
    if pred.size != y.size:
        raise ValueError("prediction length must match observations")
    n = y.size
    sse = float(np.sum((y - pred) ** 2))
    nu, lam = noise.shape, noise.scale
    return float(
        -0.5 * n * np.log(2.0 * np.pi)
        + 0.5 * nu * np.log(0.5 * nu * lam)
        - math.lgamma(0.5 * nu)
        + math.lgamma(0.5 * (nu + n))
        - 0.5 * (nu + n) * np.log(0.5 * (nu * lam + sse))
    )


def bma_predict(weights, grid_means) -> np.ndarray:
    """Pointwise convex combination of the model mean curves."""
    w = np.asarray(weights, dtype=float)
    gm = np.atleast_2d(np.asarray(grid_means, dtype=float))
    if w.size != gm.shape[1]:
        raise ValueError("one weight per model required")
    if np.any(w < 0) or not np.isclose(w.sum(), 1.0):
        raise ValueError("weights must lie on the simplex")
    return gm @ w


def run_bma(y, train_means, grid_means, noise: NoisePrior) -> BmaResult:
    """Evidence, weights, and averaged curve for a set of models."""
    train_means = np.atleast_2d(np.asarray(train_means, dtype=float))
    log_ev = np.array(
        [model_log_evidence(y, train_means[:, l], noise) for l in range(train_means.shape[1])]
    )
    probs = bma_weights(log_ev)
    return BmaResult(
        log_evidences=log_ev,
        posterior_probs=probs,
        mean=bma_predict(probs, grid_means),
    )
