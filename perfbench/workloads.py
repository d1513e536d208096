"""Benchmark workloads: each one writes a `mixtrees mix` config from a seed.

Seed 0 reproduces the shipped configs' seeds (dataset 42, sampler 7); seed n
shifts both by n.  Sweep counts are scaled down from the shipped configs so
one run fits the benchmark's time budget, keeping each config's burn:keep
shape.
"""

from __future__ import annotations

from pathlib import Path

DATASET_SEED = 42
SAMPLER_SEED = 7

_PHI4_DATA = {
    "system": "phi4",
    "grid_lo": "0.03",
    "grid_hi": "0.50",
    "grid_n": "20",
    "noise_sd": "0.005",
}

_SINCOS_DATA = {
    "system": "sincos2d",
    "n": "80",
    "x1_lo": "-3.14159265358979312",
    "x1_hi": "3.14159265358979312",
    "x2_lo": "-3.14159265358979312",
    "x2_hi": "3.14159265358979312",
    "noise_sd": "0.1",
}

_GP_DESIGN = {
    "truncation": "gp",
    "n_design": "4",
    "design_lo": "0.03",
    "design_hi": "0.50",
}


def _weak(order):
    return {"kind": "weak", "order": str(order), "scale": "one", "q_map": "x",
            "yref_map": "one", **_GP_DESIGN}


def _strong(order):
    return {"kind": "strong", "order": str(order), "scale": "inv_sqrt_x",
            "q_map": "inv_x", "yref_map": "inv_sqrt_x", **_GP_DESIGN}


_TAYLOR_H1 = {"kind": "taylor_surface", "sin_center": "pi", "sin_order": "7",
              "cos_center": "pi", "cos_order": "10", "truncation": "none"}
_TAYLOR_H2 = {"kind": "taylor_surface", "sin_center": "-pi", "sin_order": "13",
              "cos_center": "-pi", "cos_order": "6", "truncation": "none"}


def _sampler(trees, nu, n_burn, n_keep, chains):
    return {"trees": str(trees), "k": "5.0", "informative": "false",
            "nu": str(nu), "lambda": "auto", "lambda_match": "mode",
            "n_burn": str(n_burn), "n_keep": str(n_keep), "thin": "1",
            "min_leaf_n": "5", "cutpoint_method": "midpoints",
            "chains": str(chains)}


# name -> (dataset section, {model name: section}, sampler section, evaluation)
WORKLOADS = {
    # example1a, 2 chains at its 2:5 burn:keep ratio.
    "phi4-mix": (
        _PHI4_DATA,
        {"weak2": _weak(2), "strong4": _strong(4)},
        _sampler(10, 40, 60, 150, 2),
        {"grid_n": "300"},
    ),
    # example2, 1 chain at its 1:1 ratio; no truncation GP.
    "sincos2d-mix": (
        _SINCOS_DATA,
        {"h1": _TAYLOR_H1, "h2": _TAYLOR_H2},
        _sampler(30, 10, 60, 60, 1),
        {"mesh_per_dim": "18"},
    ),
    # example1b's models on a dense grid: short burn-in, long kept phase.
    "phi4-archive": (
        _PHI4_DATA,
        {"weak4": _weak(4), "strong4": _strong(4)},
        _sampler(10, 40, 40, 250, 1),
        {"grid_n": "2000"},
    ),
}


def config_text(name: str, seed: int) -> str:
    """INI text of workload ``name`` at benchmark seed ``seed``."""
    data, models, samp, evaluation = WORKLOADS[name]
    sections = [
        ("experiment", {"name": name}),
        ("dataset", {**data, "seed": str(DATASET_SEED + seed)}),
        *((f"model.{m}", sec) for m, sec in models.items()),
        ("sampler", {**samp, "seed": str(SAMPLER_SEED + seed)}),
        ("evaluation", evaluation),
    ]
    lines = []
    for title, body in sections:
        lines.append(f"[{title}]")
        lines.extend(f"{k} = {v}" for k, v in body.items())
        lines.append("")
    return "\n".join(lines)


def write_config(name: str, seed: int, path: Path) -> Path:
    path = Path(path)
    path.write_text(config_text(name, seed))
    return path
