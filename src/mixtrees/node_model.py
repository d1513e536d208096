"""Conjugate linear model at a terminal node.

Within a node the residuals are Gaussian around ``design @ mu`` with a
N(beta, tau^2 I) prior on the K-vector ``mu``, so the marginal likelihood,
the full conditional of ``mu``, and the full conditional of the error
variance all have closed forms.  Everything derives from one Cholesky
factorization of the K x K posterior precision (``_factor``); the ``_raw``
variants skip argument validation, can take that factor precomputed, and
are what the sampler's inner loop calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class NodeData:
    """Residual vector and its (n_p, K) design matrix for one node."""

    residuals: np.ndarray
    design: np.ndarray

    def __post_init__(self):
        self.residuals = np.asarray(self.residuals, dtype=float).ravel()
        self.design = np.atleast_2d(np.asarray(self.design, dtype=float))
        if self.design.shape[0] != self.residuals.size:
            raise ValueError("design rows must match residuals")
        if self.residuals.size < 1:
            raise ValueError("node must contain at least one observation")
        if not (
            np.all(np.isfinite(self.residuals)) and np.all(np.isfinite(self.design))
        ):
            raise ValueError("non-finite node data")


@dataclass
class LeafPrior:
    """Independent Gaussian prior N(mean, sd^2 I) on a leaf vector."""

    mean: np.ndarray
    sd: float

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if self.sd <= 0:
            raise ValueError("prior sd must be positive")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("non-finite prior mean")


@dataclass
class NoisePrior:
    """Scaled inverse-chi-squared prior shape/scale for the error variance."""

    shape: float
    scale: float

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("shape and scale must be positive")


def _gram(design):
    """The K(K+1)/2 column dots ``design[:, j] @ design[:, i]``, j <= i, row
    by row: the data part of the posterior precision."""
    cols = [design[:, i] for i in range(design.shape[1])]
    return [float(cols[j] @ cols[i]) for i in range(len(cols)) for j in range(i + 1)]


def _factor(resid, design, gram, mean, sd, sigma2):
    """Cholesky rows L of the posterior precision A^-1, and u = L^-1 b.

    K is the number of models being mixed, so the K x K algebra runs in
    Python floats, off the LAPACK dispatch path.  Only the length-n dots
    (``gram`` and ``design[:, i] @ resid``) are numpy reductions.
    """
    tau_prec = 1.0 / sd ** 2
    dots = iter(gram)
    chol, b = [], []
    for i in range(design.shape[1]):
        row = []
        for j in range(i + 1):
            lj = row if j == i else chol[j]
            s = next(dots) / sigma2
            if j == i:
                s += tau_prec
            for p in range(j):
                s -= row[p] * lj[p]
            row.append(math.sqrt(s) if j == i else s / lj[j])
        chol.append(row)
        b.append(mean[i] * tau_prec + float(design[:, i] @ resid) / sigma2)
    return chol, _solve_lower(chol, b)


def _solve_lower(chol, v):
    """x with chol @ x = v, for the lower-triangular rows ``chol``."""
    x = []
    for i, row in enumerate(chol):
        s = v[i]
        for p in range(i):
            s -= row[p] * x[p]
        x.append(s / row[i])
    return x


def _solve_upper_t(chol, v):
    """x with chol.T @ x = v, for the lower-triangular rows ``chol``."""
    k = len(v)
    x = [0.0] * k
    for i in reversed(range(k)):
        s = v[i]
        for p in range(i + 1, k):
            s -= chol[p][i] * x[p]
        x[i] = s / chol[i][i]
    return x


def _log_ml_raw(resid, design, mean, sd, sigma2, factor=None) -> float:
    """``factor``, when given, is ``_factor`` of these same arguments."""
    chol, u = factor or _factor(resid, design, _gram(design), mean, sd, sigma2)
    # |A| = 1 / |A^-1|; chol factors A^-1.
    log_det_a = -2.0 * sum([np.log(row[i]) for i, row in enumerate(chol)])
    u = np.array(u)  # a BLAS dot fuses multiply-adds; Python floats would not
    bab = float(u @ u)
    rss = float(resid @ resid)
    bb = float(mean @ mean)
    return (
        -0.5 * resid.size * (LOG_2PI + np.log(sigma2))
        - 0.5 * mean.size * np.log(sd ** 2)
        + 0.5 * log_det_a
        - 0.5 * (rss / sigma2 + bb / sd ** 2 - bab)
    )


def _sample_leaf_raw(resid, design, mean, sd, sigma2, rng, factor=None) -> np.ndarray:
    """``factor``, when given, is ``_factor`` of these same arguments."""
    chol, u = factor or _factor(resid, design, _gram(design), mean, sd, sigma2)
    # x ~ N(0, A): x = L^-T z with L L^T = A^-1.
    z = rng.standard_normal(len(u)).tolist()
    post_mean, noise = _solve_upper_t(chol, u), _solve_upper_t(chol, z)
    return np.array([m + e for m, e in zip(post_mean, noise)])


def log_marginal_likelihood(nd: NodeData, lp: LeafPrior, sigma2: float) -> float:
    """Log of the node likelihood with the leaf vector integrated out."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    return _log_ml_raw(nd.residuals, nd.design, lp.mean, lp.sd, sigma2)


def leaf_posterior(nd: NodeData, lp: LeafPrior, sigma2: float):
    """Full-conditional mean and covariance of the leaf vector."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    chol, u = _factor(nd.residuals, nd.design, _gram(nd.design), lp.mean, lp.sd, sigma2)
    eye = np.eye(lp.mean.size).tolist()
    cov = np.array([_solve_upper_t(chol, _solve_lower(chol, e)) for e in eye])
    cov = 0.5 * (cov + cov.T)
    return np.array(_solve_upper_t(chol, u)), cov


def sample_leaf(
    nd: NodeData, lp: LeafPrior, sigma2: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw the leaf vector from its full conditional."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    return _sample_leaf_raw(nd.residuals, nd.design, lp.mean, lp.sd, sigma2, rng)


def sample_sigma2(
    total_sse: float, n: int, noise: NoisePrior, rng: np.random.Generator
) -> float:
    """Draw the error variance from its scaled inverse-chi-squared conditional.

    The posterior has shape n + nu and scale (SSE + nu*lambda) / (n + nu).
    """
    if total_sse < 0:
        raise ValueError("sum of squared errors must be nonnegative")
    nu_post = n + noise.shape
    lam_post = (total_sse + noise.shape * noise.scale) / nu_post
    return float(nu_post * lam_post / rng.chisquare(nu_post))
