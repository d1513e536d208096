"""Synthetic observation generation and delimited-table I/O.

The two benchmark systems implemented here are the partition function of
the zero-dimensional quartic theory (a 1-d integral in the coupling
constant) and a 2-d trigonometric surface.  Observations are the system
value plus iid Gaussian noise, generated from an explicit seed so every
dataset is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad


class TableFormatError(ValueError):
    """Raised when a data table cannot be parsed."""


@dataclass
class Dataset:
    """Observations ``(x_i, y_i)`` with generation provenance.

    ``inputs`` is an (n, d) array, ``outputs`` an (n,) array.  ``noise_sd``
    and ``seed`` record how the outputs were produced; they are carried
    through file round trips.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.inputs = np.atleast_1d(np.asarray(self.inputs, dtype=float))
        if self.inputs.ndim == 1:
            self.inputs = self.inputs[:, None]
        self.outputs = np.asarray(self.outputs, dtype=float)
        if self.inputs.shape[0] != self.outputs.shape[0]:
            raise ValueError(
                f"inputs ({self.inputs.shape[0]}) and outputs "
                f"({self.outputs.shape[0]}) must have equal length"
            )
        if self.inputs.shape[0] < 1:
            raise ValueError("dataset must contain at least one observation")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("non-finite input coordinate")
        if not np.all(np.isfinite(self.outputs)):
            raise ValueError("non-finite output")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def true_system_phi4(x: float) -> float:
    """Partition-function integral exp(-u^2/2 - x^2 u^4) over the real line.

    Evaluated by adaptive quadrature split at +-10 (the integrand is below
    1e-21 outside that range for every x); absolute tolerance 1e-10.
    """
    x2 = float(x) ** 2

    def integrand(u):
        return np.exp(-0.5 * u * u - x2 * u ** 4)

    core, _ = quad(integrand, -10.0, 10.0, epsabs=1e-11, epsrel=1e-12, limit=200)
    left, _ = quad(integrand, -np.inf, -10.0, epsabs=1e-12)
    right, _ = quad(integrand, 10.0, np.inf, epsabs=1e-12)
    return core + left + right


def true_system_2d(x1: float, x2: float) -> float:
    """sin(x1) + cos(x2)."""
    return float(np.sin(x1) + np.cos(x2))


def linspace_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced points with the endpoints included."""
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    if not lo < hi:
        raise ValueError("grid requires lo < hi")
    return np.linspace(lo, hi, n)


def generate_observations(system, inputs, noise_sd: float, seed: int) -> Dataset:
    """Evaluate ``system`` on every input point and add Gaussian noise.

    ``system`` is called as ``system(*row)``, so a 1-d system takes one
    scalar and a 2-d system takes two.  The same seed always yields an
    identical dataset.
    """
    inputs = np.atleast_1d(np.asarray(inputs, dtype=float))
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    if inputs.shape[0] == 0:
        raise ValueError("inputs must be nonempty")
    if noise_sd < 0:
        raise ValueError("noise_sd must be nonnegative")
    clean = np.array([float(system(*row)) for row in inputs])
    if not np.all(np.isfinite(clean)):
        bad = int(np.flatnonzero(~np.isfinite(clean))[0])
        raise ValueError(f"system evaluation not finite at input index {bad}")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_sd, size=clean.shape) if noise_sd > 0 else 0.0
    return Dataset(inputs=inputs, outputs=clean + noise, noise_sd=noise_sd, seed=seed)


def write_table(ds: Dataset, path) -> None:
    """Write a dataset as a comma-delimited table with header ``x1,...,xd,y``.

    Values are printed with 17 significant digits so the round trip through
    ``read_table`` is exact in float64.  Provenance (noise_sd, seed) is kept
    in leading comment lines.
    """
    d = ds.dim
    header = ",".join([f"x{i + 1}" for i in range(d)] + ["y"])
    with open(path, "w") as fh:
        fh.write(f"# noise_sd = {ds.noise_sd:.17g}\n")
        fh.write(f"# seed = {ds.seed}\n")
        fh.write(header + "\n")
        for row, y in zip(ds.inputs, ds.outputs):
            cells = [f"{v:.17g}" for v in row] + [f"{y:.17g}"]
            fh.write(",".join(cells) + "\n")


def read_table(path) -> Dataset:
    """Parse a table written by :func:`write_table`.

    Raises :class:`TableFormatError` naming the offending line for malformed
    rows, inconsistent column counts, or non-numeric or non-finite cells.
    """
    noise_sd = 0.0
    seed = 0
    rows = []
    ncol = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    key = key.strip()
                    try:
                        if key == "noise_sd":
                            noise_sd = float(val)
                        elif key == "seed":
                            seed = int(val)
                    except ValueError:
                        raise TableFormatError(
                            f"line {lineno}: bad metadata value {val.strip()!r}"
                        ) from None
                continue
            cells = [c.strip() for c in line.split(",")]
            if ncol is None:
                # Header row: x1,...,xd,y
                if cells[-1] != "y":
                    raise TableFormatError(
                        f"line {lineno}: expected header ending in 'y', got {line!r}"
                    )
                ncol = len(cells)
                continue
            if len(cells) != ncol:
                raise TableFormatError(
                    f"line {lineno}: expected {ncol} columns, found {len(cells)}"
                )
            try:
                row = [float(c) for c in cells]
            except ValueError:
                raise TableFormatError(
                    f"line {lineno}: non-numeric cell in {line!r}"
                ) from None
            if not np.all(np.isfinite(row)):
                raise TableFormatError(f"line {lineno}: non-finite cell in {line!r}")
            rows.append(row)
    if ncol is None or not rows:
        raise TableFormatError("no observations")
    arr = np.array(rows)
    return Dataset(inputs=arr[:, :-1], outputs=arr[:, -1], noise_sd=noise_sd, seed=seed)
