"""Conjugate linear model at a terminal node.

Within a node the residuals are Gaussian around ``design @ mu`` with a
N(beta, tau^2 I) prior on the K-vector ``mu``, so the marginal likelihood,
the full conditional of ``mu``, and the full conditional of the error
variance all have closed forms.  Everything derives from one Cholesky
factorization of the K x K posterior precision (``_factor``).  The
``_raw`` variants are what the sampler's inner loop calls: they skip
argument validation, take the design as a contiguous (K, n_p) array and the
prior mean as K Python floats, and can take that factor precomputed.  The
public functions validate their arguments and call the same ``_raw``
variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


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
    """The K x K Gram matrix ``design @ design.T`` of a (K, n_p) design, as
    rows of Python floats: the data part of the posterior precision."""
    return (design @ design.T).tolist()


def _factor(resid, design, gram, mean, sd, sigma2):
    """Cholesky rows L of the posterior precision A^-1, and u = L^-1 b.

    ``design`` is (K, n_p) and ``mean`` a sequence of K floats.  K is the
    number of models being mixed, so the K x K algebra runs in Python
    floats, off the LAPACK dispatch path; the K linear terms of b are one
    matvec.  The forward solve for u runs row by row with the factor.
    """
    tau_prec = 1.0 / sd ** 2
    lin = (design @ resid).tolist()
    chol, u = [], []
    for i, gram_row in enumerate(gram):
        row = []
        for j in range(i + 1):
            lj = row if j == i else chol[j]
            s = gram_row[j] / sigma2
            if j == i:
                s += tau_prec
            for p in range(j):
                s -= row[p] * lj[p]
            row.append(math.sqrt(s) if j == i else s / lj[j])
        chol.append(row)
        s = mean[i] * tau_prec + lin[i] / sigma2
        for p in range(i):
            s -= row[p] * u[p]
        u.append(s / row[i])
    return chol, u


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
    log_det_a, bab, bb = 0.0, 0.0, 0.0
    for i, row in enumerate(chol):
        log_det_a -= 2.0 * math.log(row[i])
        bab += u[i] * u[i]
        bb += mean[i] * mean[i]
    rss = float(resid @ resid)
    var = sd ** 2
    return (
        -0.5 * resid.size * (LOG_2PI + math.log(sigma2))
        - 0.5 * len(u) * math.log(var)
        + 0.5 * log_det_a
        - 0.5 * (rss / sigma2 + bb / var - bab)
    )


def _sample_leaf_raw(resid, design, mean, sd, sigma2, z, factor=None) -> np.ndarray:
    """The leaf draw for the K standard normals ``z``; ``factor``, when
    given, is ``_factor`` of the other arguments."""
    chol, u = factor or _factor(resid, design, _gram(design), mean, sd, sigma2)
    # The mean L^-T u plus x ~ N(0, A), x = L^-T z with L L^T = A^-1: one
    # solve of L^T against u + z.
    return np.array(_solve_upper_t(chol, [a + b for a, b in zip(u, z)]))


def _args(nd: NodeData, lp: LeafPrior, sigma2: float):
    """The kernel's (resid, design, mean, sd, sigma2) for a node and prior."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    design = np.ascontiguousarray(nd.design.T)
    return nd.residuals, design, lp.mean.tolist(), lp.sd, sigma2


def log_marginal_likelihood(nd: NodeData, lp: LeafPrior, sigma2: float) -> float:
    """Log of the node likelihood with the leaf vector integrated out."""
    return _log_ml_raw(*_args(nd, lp, sigma2))


def leaf_posterior(nd: NodeData, lp: LeafPrior, sigma2: float):
    """Full-conditional mean and covariance of the leaf vector."""
    resid, design, mean, sd, sigma2 = _args(nd, lp, sigma2)
    chol, u = _factor(resid, design, _gram(design), mean, sd, sigma2)
    eye = np.eye(lp.mean.size).tolist()
    cov = np.array([_solve_upper_t(chol, _solve_lower(chol, e)) for e in eye])
    cov = 0.5 * (cov + cov.T)
    return np.array(_solve_upper_t(chol, u)), cov


def sample_leaf(
    nd: NodeData, lp: LeafPrior, sigma2: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw the leaf vector from its full conditional."""
    z = rng.standard_normal(nd.design.shape[1]).tolist()
    return _sample_leaf_raw(*_args(nd, lp, sigma2), z)


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
