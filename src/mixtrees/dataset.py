"""Synthetic observation generation and the one delimited-table format.

The two benchmark systems implemented here are the partition function of
the zero-dimensional quartic theory (a 1-d integral in the coupling
constant) and a 2-d trigonometric surface.  Observations are the system
value plus iid Gaussian noise, generated from an explicit seed so every
dataset is reproducible bit for bit.

Every table the package writes has one format, written by :func:`write_csv`
and read by :func:`read_csv`: ``# key = value`` metadata lines, a header of
distinct column names, then comma-separated rows with floats at 17
significant digits (exact in float64) and integers as integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
        if not 0 <= self.noise_sd < np.inf:
            raise ValueError("noise_sd must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


# Trapezoid nodes t = 0, 0.1, ..., 10 of the phi4 truth integral.
_PHI4_NODES = np.arange(101) / 10.0


def true_system_phi4(x: float) -> float:
    """Partition-function integral exp(-u^2/2 - x^2 u^4) over the real line.

    The integrand is even, so the integral is twice the half-line one,
    evaluated by the trapezoid rule on the fixed nodes u = t / s with
    t = 0, 0.1, ..., 10 and s = max(1, sqrt|x|): 2 h (f(0)/2 + f(u_1) + ...)
    with h = 0.1 / s, the sum correctly rounded by ``math.fsum``.  The
    scale s keeps the nodes on the integrand's width, which is 1 for small
    x and shrinks as 1/sqrt(x) once the quartic term dominates.  The
    integrand is entire and decays fast, so the rule converges
    exponentially in 1/h (Trefethen & Weideman 2014): it is within 1 ulp of
    the Bessel closed form for x = 0 and x in [1e-8, 1e3].  The tail beyond
    the last node is below half an ulp of the integral: the integrand there
    is below exp(-50) for s = 1 and below exp(-1e4) otherwise.
    """
    x2 = float(x) ** 2
    s = max(1.0, math.sqrt(abs(x)))
    u = _PHI4_NODES / s
    f = np.exp(-0.5 * u * u - x2 * u ** 4)
    f[0] *= 0.5
    return 0.2 / s * math.fsum(f)


def true_system_2d(x1: float, x2: float) -> float:
    """sin(x1) + cos(x2)."""
    return float(np.sin(x1) + np.cos(x2))


def linspace_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced points with the endpoints included."""
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError("grid requires finite lo < hi")
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
    if not 0 <= noise_sd < np.inf:
        raise ValueError("noise_sd must be finite and nonnegative")
    clean = np.array([float(system(*row)) for row in inputs])
    if not np.all(np.isfinite(clean)):
        bad = int(np.flatnonzero(~np.isfinite(clean))[0])
        raise ValueError(f"system evaluation not finite at input index {bad}")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_sd, size=clean.shape) if noise_sd > 0 else 0.0
    return Dataset(inputs=inputs, outputs=clean + noise, noise_sd=noise_sd, seed=seed)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def write_csv(path, header: list[str], columns: list, meta: dict) -> None:
    """Write ``meta`` as comment lines, then ``header`` and the columns' rows.

    A header and columns that differ in count, or columns that differ in
    length, raise ValueError before the file is opened.
    """
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} column names for {len(columns)} columns")
    rows = [",".join(_fmt(v) for v in row) + "\n" for row in zip(*columns, strict=True)]
    with open(path, "w") as fh:
        for key, val in meta.items():
            fh.write(f"# {key} = {val}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(rows)


def read_csv(path, need=()):
    """Returns (meta dict, header list, columns dict of float arrays).

    Raises :class:`TableFormatError` naming ``path`` and the line for a
    duplicate column name, a wrong cell count or a non-numeric or non-finite
    cell, naming the column when one of ``need`` is missing, and for a table
    without rows.
    """
    meta, header, rows, linenos = {}, None, [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, eq, val = line[1:].partition("=")
                if eq:
                    meta[key.strip()] = val.strip()
                continue
            cells = line.split(",")
            if header is None:
                header = [c.strip() for c in cells]
                if len(set(header)) != len(header):
                    raise TableFormatError(
                        f"{path}, line {lineno}: duplicate column name in {line!r}"
                    )
                continue
            if len(cells) != len(header):
                raise TableFormatError(
                    f"{path}, line {lineno}: expected {len(header)} columns, "
                    f"found {len(cells)}"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise TableFormatError(
                    f"{path}, line {lineno}: non-numeric cell in {line!r}"
                ) from None
            linenos.append(lineno)
    if not rows:
        raise TableFormatError(f"{path}: no observations (the table has no rows)")
    arr = np.array(rows)
    finite = np.isfinite(arr)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise TableFormatError(
            f"{path}, line {linenos[i]}: non-finite cell in column {header[j]!r}"
        )
    for name in need:
        if name not in header:
            raise TableFormatError(f"{path}: no column {name!r}")
    return meta, header, {name: arr[:, i] for i, name in enumerate(header)}


def write_table(ds: Dataset, path) -> None:
    """Write a dataset as a table with header ``x1,...,xd,y``; its provenance
    (noise_sd, seed) goes in the metadata lines."""
    header = [f"x{i + 1}" for i in range(ds.dim)] + ["y"]
    columns = [ds.inputs[:, i] for i in range(ds.dim)] + [ds.outputs]
    write_csv(path, header, columns, {"noise_sd": f"{ds.noise_sd:.17g}", "seed": ds.seed})


def read_table(path) -> Dataset:
    """Parse a table written by :func:`write_table`: the column ``y`` is the
    output and every other column, in header order, an input."""
    meta, header, cols = read_csv(path, need=("y",))
    try:
        noise_sd = float(meta.get("noise_sd", 0.0))
        seed = int(meta.get("seed", 0))
    except ValueError as exc:
        raise TableFormatError(f"{path}: bad metadata value: {exc}") from None
    inputs = [cols[name] for name in header if name != "y"]
    if not inputs:
        raise TableFormatError(f"{path}: no input column")
    return Dataset(np.column_stack(inputs), cols["y"], noise_sd=noise_sd, seed=seed)
