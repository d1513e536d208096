"""Finite-order series simulators and their truncation-error model.

Each simulator is a truncated series expansion of the system it
approximates.  The omitted tail is modeled as a Gaussian process whose
mean and covariance follow from giving the dimensionless series
coefficients a common GP prior: the tail then has the closed geometric-sum
form in the expansion parameter Q(x) and scale y_ref(x).  Fitting learns
the coefficient scale (conjugate update) and correlation length (grid
maximum likelihood) from evaluations of the series at a handful of design
inputs; no observational data is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gamma
from typing import Callable, Optional

import numpy as np

# |Q| is clipped to this bound inside the geometric-sum formulas; beyond it
# the tail model diverges and the capped value yields a finite, very large
# variance instead.
Q_MAX = 0.995

# Coefficient-GP fit: the scaled-inverse-chi-squared prior on cbar2 (NU0
# degrees of freedom, scale LAMBDA0), the number of correlation lengths
# tried, and the diagonal jitter of the correlation matrix.
NU0 = 5.0
LAMBDA0 = 1.0
N_ELL = 50
NUGGET = 1e-8


def weak_coefficients(n_s: int) -> np.ndarray:
    """Series coefficients of the small-coupling expansion, orders 0..n_s.

    Odd orders are exactly zero; even order t carries
    sqrt(2) * Gamma(t + 1/2) / (t/2)! * (-4)^(t/2).  ``math.gamma`` is
    within 3 ulp of the exact Gamma at t + 1/2 and t/2 + 1/4, the arguments
    of both series, for every t < 60.
    """
    if n_s < 0:
        raise ValueError("order must be nonnegative")
    out = np.zeros(n_s + 1)
    for t in range(0, n_s + 1, 2):
        half = t // 2
        out[t] = np.sqrt(2.0) * gamma(t + 0.5) / factorial(half) * (-4.0) ** half
    return out


def strong_coefficients(n_l: int) -> np.ndarray:
    """Series coefficients of the large-coupling expansion, orders 0..n_l.

    Order t carries Gamma(t/2 + 1/4) / (2 t!) * (-1/2)^t.
    """
    if n_l < 0:
        raise ValueError("order must be nonnegative")
    return np.array(
        [
            gamma(0.5 * t + 0.25) / (2.0 * factorial(t)) * (-0.5) ** t
            for t in range(n_l + 1)
        ]
    )


@dataclass
class Expansion:
    """A finite-order series simulator of one scalar input.

    ``weak`` sums coefficients[t] * x^t and ``strong`` sums
    coefficients[t] * x^(-t).  ``scale``, when set, multiplies the series
    value; the large-coupling simulator of the quartic system needs
    scale(x) = x^(-1/2) to approximate the integral it truncates.
    """

    kind: str
    order: int
    coefficients: np.ndarray
    scale: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.kind not in ("weak", "strong"):
            raise ValueError(f"unknown expansion kind {self.kind!r}")
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.order + 1,):
            raise ValueError("coefficients must have length order + 1")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("non-finite coefficient")
        if self.kind == "weak" and np.any(self.coefficients[1::2] != 0.0):
            raise ValueError("weak expansion must have zero odd coefficients")

    def __call__(self, x) -> float:
        """Value of the simulator at one input: a scalar, or an array of one
        value."""
        x = float(np.asarray(x).reshape(()))
        val = float(self.coefficients @ _series_powers(self, x))
        if self.scale is not None:
            val *= float(self.scale(x))
        return val


def weak_expansion(order: int, scale: Optional[Callable] = None) -> Expansion:
    return Expansion("weak", order, weak_coefficients(order), scale=scale)


def strong_expansion(order: int, scale: Optional[Callable] = None) -> Expansion:
    return Expansion("strong", order, strong_coefficients(order), scale=scale)


def _series_powers(e: Expansion, x: float) -> np.ndarray:
    t = np.arange(e.order + 1)
    if e.kind == "weak":
        return np.asarray(x, dtype=float) ** t
    if x == 0.0:
        raise ValueError("strong expansion undefined at x = 0")
    return np.asarray(x, dtype=float) ** (-t)


def expansion_runs(e: Expansion, xs) -> np.ndarray:
    """Evaluations of every sub-order simulator h^(0)..h^(N) at each input.

    Returns an (n, N+1) matrix; column k is the order-k partial sum (times
    the scale factor when present).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float)).ravel()
    runs = np.empty((xs.size, e.order + 1))
    for i, x in enumerate(xs):
        terms = e.coefficients * _series_powers(e, x)
        runs[i] = np.cumsum(terms)
        if e.scale is not None:
            runs[i] *= float(e.scale(x))
    return runs


def extract_coefficients(runs, q: float, yref: float) -> np.ndarray:
    """Recover dimensionless coefficients from successive sub-order runs.

    ``runs`` holds h^(0),...,h^(N) at a single design input.  The order-0
    coefficient is h^(0)/yref and order k >= 1 is
    (h^(k) - h^(k-1)) / (yref q^k).
    """
    runs = np.asarray(runs, dtype=float)
    if yref == 0.0:
        raise ValueError("yref must be nonzero")
    n = runs.size
    if n > 1 and q == 0.0:
        raise ValueError("q must be nonzero to extract coefficients of order >= 1")
    out = np.empty(n)
    out[0] = runs[0] / yref
    for k in range(1, n):
        out[k] = (runs[k] - runs[k - 1]) / (yref * q ** k)
    return out


@dataclass
class EftGp:
    """Fitted truncation-error model for one simulator.

    The coefficient GP has mean zero, so the tail adds no mean.  ``cbar2``
    is the coefficient variance, ``ell`` the squared-exponential correlation
    length.  ``q_map``/``yref_map`` give the expansion parameter and scale
    at any input; the extracted coefficient matrix is kept for reference.
    """

    cbar2: float
    ell: float
    q_map: Callable[[float], float]
    yref_map: Callable[[float], float]
    design_coefficients: np.ndarray

    def __post_init__(self):
        if self.cbar2 <= 0 or self.ell <= 0:
            raise ValueError("cbar2 and ell must be positive")


def _clip_q(q: float) -> float:
    return float(np.sign(q)) * Q_MAX if abs(q) > Q_MAX else q


def truncation_cov(gp: EftGp, order: int, x, xp) -> float:
    """Tail covariance cbar2 * yref(x) yref(x') (QQ')^(N+1) / (1 - QQ')."""
    q1 = _clip_q(float(gp.q_map(x)))
    q2 = _clip_q(float(gp.q_map(xp)))
    qq = q1 * q2
    num = qq ** (order + 1)
    return gp.cbar2 * float(gp.yref_map(x)) * float(gp.yref_map(xp)) * num / (1.0 - qq)


def _forward_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^-1 B for a lower-triangular L, by forward substitution."""
    Z = np.empty_like(B)
    for i in range(L.shape[0]):
        Z[i] = (B[i] - L[i, :i] @ Z[:i]) / L[i, i]
    return Z


def fit_coefficient_gp(
    coeffs: np.ndarray, design_inputs: np.ndarray
) -> tuple[float, float]:
    """Estimate (cbar2, ell) from an (n_c, N+1) coefficient matrix.

    Each coefficient column is treated as a zero-mean draw from
    GP(0, cbar2 * exp(-(x-x')^2 / (2 ell^2))).  ``ell`` maximizes the
    marginal likelihood (cbar2 integrated against its conjugate
    scaled-inverse-chi-squared prior) on a log grid of N_ELL points spanning
    [0.01, 10] times the design width; ``cbar2`` is then the conjugate
    posterior mean at the selected ``ell``.  The quadratic form
    sum(C * R^-1 C) is the squared norm of L^-1 C, where R = L L^T.
    """
    C = np.atleast_2d(np.asarray(coeffs, dtype=float))
    X = np.asarray(design_inputs, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n_c = X.shape[0]
    if n_c < 2:
        raise ValueError("need at least 2 design inputs")
    if C.shape[0] != n_c:
        raise ValueError("coefficient rows must match design inputs")
    if not np.all(np.isfinite(C)):
        raise ValueError("coefficients must be finite")
    d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1)
    if np.any(d2[~np.eye(n_c, dtype=bool)] == 0.0):
        raise ValueError("degenerate design: duplicate inputs")
    width = np.sqrt(d2.max())
    n_curves = C.shape[1]
    m_total = C.size
    nu_post = NU0 + m_total

    best = (-np.inf, None, None)
    for ell in np.geomspace(0.01 * width, 10.0 * width, N_ELL):
        R = np.exp(-0.5 * d2 / ell ** 2) + NUGGET * np.eye(n_c)
        L = np.linalg.cholesky(R)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        Z = _forward_solve(L, C)
        quad_sum = float(np.sum(Z * Z))
        score = -0.5 * n_curves * logdet - 0.5 * nu_post * np.log(NU0 * LAMBDA0 + quad_sum)
        if score > best[0]:
            best = (score, ell, quad_sum)
    _, ell_hat, quad_sum = best
    lambda_post = (NU0 * LAMBDA0 + quad_sum) / nu_post
    cbar2 = nu_post * lambda_post / (nu_post - 2.0)
    return float(cbar2), float(ell_hat)


def fit_eft(
    e: Expansion,
    design_inputs,
    q_map: Callable[[float], float],
    yref_map: Callable[[float], float],
) -> EftGp:
    """Fit the truncation-error GP of one simulator from its own runs.

    Evaluates the sub-order series at the design inputs, extracts the
    dimensionless coefficients, and estimates (cbar2, ell).  The GP mean is
    fixed at zero.
    """
    xs = np.atleast_1d(np.asarray(design_inputs, dtype=float)).ravel()
    runs = expansion_runs(e, xs)
    C = np.vstack(
        [
            extract_coefficients(runs[i], float(q_map(x)), float(yref_map(x)))
            for i, x in enumerate(xs)
        ]
    )
    cbar2, ell = fit_coefficient_gp(C, xs)
    return EftGp(
        cbar2=cbar2, ell=ell, q_map=q_map, yref_map=yref_map, design_coefficients=C
    )


@dataclass
class EftPrediction:
    """Pointwise prediction of one simulator over a grid.

    ``mean`` is the simulator's value (the tail has mean zero), ``variance``
    the tail variance, and ``capped`` flags grid points where the expansion
    parameter was clipped to Q_MAX.
    """

    mean: np.ndarray
    variance: np.ndarray
    capped: np.ndarray

    def __post_init__(self):
        if np.any(self.variance < 0):
            raise ValueError("negative prediction variance")


def predict_eft(gp: EftGp, e: Expansion, grid) -> EftPrediction:
    """Posterior mean/variance of the series at each scalar of ``grid``."""
    xs = np.atleast_1d(np.asarray(grid, dtype=float))
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("grid must be a nonempty 1-d array of inputs")
    mean = np.array([e(x) for x in xs])
    var = np.array([truncation_cov(gp, e.order, x, x) for x in xs])
    capped = np.array([abs(float(gp.q_map(x))) > Q_MAX for x in xs])
    return EftPrediction(mean=mean, variance=var, capped=capped)


def predict_exact(simulator: Callable, grid) -> EftPrediction:
    """Prediction for a simulator with no tail model: exact mean, zero
    variance.  ``simulator`` is called on each element of ``grid``: a scalar
    of a 1-d grid, or a row of an (n, d) grid."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    mean = np.array([simulator(x) for x in grid], dtype=float)
    return EftPrediction(
        mean=mean,
        variance=np.zeros(mean.shape),
        capped=np.zeros(mean.shape, dtype=bool),
    )


def taylor_sin(x: float, center: float, order: int) -> float:
    """Truncated Taylor series of sin about ``center``."""
    derivs = (np.sin(center), np.cos(center), -np.sin(center), -np.cos(center))
    u = float(x) - center
    return float(sum(derivs[j % 4] / factorial(j) * u ** j for j in range(order + 1)))


def taylor_cos(x: float, center: float, order: int) -> float:
    """Truncated Taylor series of cos about ``center``."""
    derivs = (np.cos(center), -np.sin(center), -np.cos(center), np.sin(center))
    u = float(x) - center
    return float(sum(derivs[j % 4] / factorial(j) * u ** j for j in range(order + 1)))


def taylor_surface_simulator(
    sin_center: float, sin_order: int, cos_center: float, cos_order: int
) -> Callable:
    """2-d simulator: Taylor sum for sin(x1) plus Taylor sum for cos(x2),
    a function of one point (x1, x2).

    Used for the multi-dimensional mixing example; accurate near its
    expansion centers and divergent far from them.  No tail model is
    postulated, so predictions carry zero variance.
    """

    def simulator(point) -> float:
        x1, x2 = point
        return taylor_sin(x1, sin_center, sin_order) + taylor_cos(
            x2, cos_center, cos_order
        )

    return simulator


# Named input maps usable from experiment config files.
Q_MAPS: dict[str, Callable[[float], float]] = {
    "x": lambda x: float(x),
    "inv_x": lambda x: 1.0 / float(x),
}

YREF_MAPS: dict[str, Callable[[float], float]] = {
    "one": lambda x: 1.0,
    "inv_sqrt_x": lambda x: float(x) ** -0.5,
}
