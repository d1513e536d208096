"""Checks one finished `mixtrees mix` run and times re-prediction from its archive.

Runs as a long-lived worker so the import is paid once per benchmark run:
each stdin line is a JSON request ``{"config": PATH, "out": RUN_DIR}`` and
each reply is one JSON line on stdout.  A reply carries ``errors`` (empty
when every check passed), the SHA-256 of each byte-reproducible table, the
re-prediction time (median of three), and the accuracy and mixing figures
of the run.

Checks: every value in ``mix_grid.csv``, ``sigma2_trace.csv`` and
``draws.txt`` is finite, and ``load_draws`` + ``predict_from_archive`` over
the run's evaluation grid reproduce the mean, band, weight and weight-sum
columns of ``mix_grid.csv`` exactly.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np
import scipy

from mixtrees import cli, sampler

TABLES = ("mix_grid.csv", "sigma2_trace.csv", "draws.txt")
REPREDICT_REPEATS = 3


# --------------------------------------------------------------------------
# bulk effective sample size (Vehtari, Gelman, Simpson, Carpenter & Buerkner
# 2021, Bayesian Analysis 16(2): rank-normalised split chains)


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, by FFT."""
    n = x.shape[1]
    centered = x - x.mean(axis=1, keepdims=True)
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(centered, size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), size, axis=1)[:, :n] / n


def _ess(chains: np.ndarray) -> float:
    """ESS of an (m, n) array of chains, Geyer's initial monotone sequence."""
    m, n = chains.shape
    acov = _autocovariance(chains)
    mean_var = float(np.mean(acov[:, 0])) * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += float(np.var(chains.mean(axis=1), ddof=1))
    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - np.mean(acov[:, 1])) / var_plus
    rho[1] = rho_odd
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0.0:
        rho_even = 1.0 - (mean_var - np.mean(acov[:, t + 1])) / var_plus
        rho_odd = 1.0 - (mean_var - np.mean(acov[:, t + 2])) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1] = rho_even
            rho[t + 2] = rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = 0.5 * (rho[t - 1] + rho[t])
        t += 2
    draws = m * n
    tau = -1.0 + 2.0 * float(np.sum(rho[: max_t + 1])) + rho[max_t + 1]
    return draws / max(tau, 1.0 / np.log10(draws))


def bulk_ess(chains: np.ndarray) -> float:
    """Bulk ESS of an (m, n) array: split each chain, rank-normalise, ESS."""
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    half = chains.shape[1] // 2
    split = np.concatenate([chains[:, :half], chains[:, -half:]])
    _, inverse, counts = np.unique(split, return_inverse=True, return_counts=True)
    average_rank = np.cumsum(counts) - 0.5 * (counts - 1)
    ranks = average_rank[inverse.reshape(split.shape)]
    unit = NormalDist()
    z = np.array([unit.inv_cdf(p) for p in ((ranks - 0.375) / (split.size + 0.25)).ravel()])
    return _ess(z.reshape(split.shape))


# --------------------------------------------------------------------------
# checks


class Verifier:
    def __init__(self):
        self._grids = {}

    def _grid(self, config: str):
        """Evaluation grid and per-model grid predictions, computed once per config."""
        if config not in self._grids:
            cfg = cli.ExperimentConfig(Path(config))
            data = cfg.build_dataset()
            grid = cfg.eval_grid(data)
            names, _, _, grid_means, _, _ = cfg.model_predictions(data, grid)
            self._grids[config] = (cfg, grid, grid_means, names)
        return self._grids[config]

    def check(self, config: str, out: str) -> dict:
        cfg, grid, grid_means, names = self._grid(config)
        run = Path(out)
        errors = []
        hashes = {t: hashlib.sha256((run / t).read_bytes()).hexdigest() for t in TABLES}
        _, _, cols = cli.read_csv(run / "mix_grid.csv")
        _, _, trace = cli.read_csv(run / "sigma2_trace.csv")
        for table, columns in (("mix_grid.csv", cols), ("sigma2_trace.csv", trace)):
            if not all(np.all(np.isfinite(c)) for c in columns.values()):
                errors.append(f"non-finite value in {table}")

        times = []
        for _ in range(REPREDICT_REPEATS):
            t0 = time.perf_counter()
            ensembles = sampler.load_draws(run / "draws.txt")
            summary = sampler.predict_from_archive(ensembles, grid, grid_means)
            times.append(time.perf_counter() - t0)
        repredict_s = statistics.median(times)

        sigma2 = np.array([s for s, _ in ensembles])
        leaves = [t.n_leaves() for _, trees in ensembles for t in trees]
        leaf_values = [leaf.value for _, trees in ensembles for t in trees for leaf in t.leaves()]
        if not (np.all(np.isfinite(sigma2)) and np.all(np.isfinite(leaf_values))):
            errors.append("non-finite value in draws.txt")
        if not np.array_equal(sigma2, trace["sigma2"]):
            errors.append("draws.txt sigma2 differs from sigma2_trace.csv")
        expected = {
            "mean": summary.mean, "lo95": summary.lo, "hi95": summary.hi,
            "wsum_mean": summary.wsum_mean, "wsum_lo95": summary.wsum_lo,
            "wsum_hi95": summary.wsum_hi,
        }
        for i, name in enumerate(names):
            expected[f"w_{name}_mean"] = summary.weight_mean[:, i]
            expected[f"w_{name}_lo95"] = summary.weight_lo[:, i]
            expected[f"w_{name}_hi95"] = summary.weight_hi[:, i]
        for column, values in expected.items():
            if column not in cols or not np.array_equal(cols[column], values):
                errors.append(f"re-prediction differs from mix_grid.csv column {column}")

        n_keep = cfg.sampler_config().n_keep
        chains = sigma2.reshape(-1, n_keep) if sigma2.size % n_keep == 0 else None
        if chains is None:
            errors.append(f"{sigma2.size} kept draws do not split into chains of {n_keep}")
        return {
            "errors": errors,
            "hashes": hashes,
            "repredict_s": repredict_s,
            "archive_mb": (run / "draws.txt").stat().st_size / 1e6,
            "rmse": sampler.rmse(cols["mean"], cols["truth"]),
            "wsum_min": float(cols["wsum_mean"].min()),
            "wsum_max": float(cols["wsum_mean"].max()),
            "leaves_mean": float(np.mean(leaves)),
            "ess_sigma2": bulk_ess(chains) if chains is not None else float("nan"),
            "chains": 0 if chains is None else chains.shape[0],
        }


def versions() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mixtrees_source": str(Path(cli.__file__).resolve().parent),
    }


def main() -> None:
    verifier = Verifier()
    print(json.dumps(versions()), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        try:
            reply = verifier.check(request["config"], request["out"])
        except Exception as exc:  # report, keep serving: run.py counts the run failed
            reply = {"errors": [f"check raised {type(exc).__name__}: {exc}"]}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
