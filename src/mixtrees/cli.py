"""Experiment driver: config-file in, reproducible tables out.

Subcommands: ``simulate`` writes a dataset table, ``fit-eft`` writes each
simulator's prediction table, ``mix`` runs the tree-mixing sampler and
writes posterior summaries plus a raw draw archive, ``bma`` writes the
model-averaging baseline, and ``report`` rebuilds the human-readable
summary from a finished run directory.  Every table carries the config
hash and seed, and identical configs reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import baselines, dataset as ds, eft, sampler
from .dataset import read_csv, write_csv


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


SYSTEMS = {
    "phi4": (ds.true_system_phi4, 1),
    "sincos2d": (ds.true_system_2d, 2),
}

_PI_LITERALS = {"pi": math.pi, "-pi": -math.pi}


@contextmanager
def _settings(where: str):
    """Report a ValueError that the library raises on config values as a
    ConfigError naming ``where``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"bad {where} settings: {exc}") from exc


def _parse_center(text: str) -> float:
    key = text.strip().lower()
    if key in _PI_LITERALS:
        return _PI_LITERALS[key]
    return float(text)


def _parse_bool(text: str) -> bool:
    key = text.strip().lower()
    if key in ("true", "1", "yes", "on"):
        return True
    if key in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_lambda(text: str) -> float | None:
    return None if text.strip().lower() == "auto" else float(text)


# [sampler] key -> (SamplerConfig field, parser); a key left out keeps its default.
SAMPLER_KEYS = {
    "trees": ("m", int),
    "k": ("k", float),
    "informative": ("informative", _parse_bool),
    "nu": ("nu", float),
    "lambda": ("lam", _parse_lambda),
    "lambda_match": ("lam_match", str),
    "n_burn": ("n_burn", int),
    "n_keep": ("n_keep", int),
    "thin": ("thin", int),
    "seed": ("seed", int),
    "cutpoints": ("cutpoints_per_dim", int),
    "cutpoint_method": ("cutpoint_method", str),
    "min_leaf_n": ("min_leaf_n", int),
}


# --------------------------------------------------------------------------
# configuration


class ExperimentConfig:
    """Typed view over the INI experiment file."""

    def __init__(self, path: Path):
        self.path = Path(path)
        if not self.path.exists():
            raise ConfigError(f"config file not found: {path}")
        raw = self.path.read_bytes()
        self.config_hash = hashlib.sha256(raw).hexdigest()[:16]
        parser = configparser.ConfigParser()
        try:
            parser.read_string(raw.decode())
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        self.parser = parser
        if "experiment" not in parser or "name" not in parser["experiment"]:
            raise ConfigError("missing [experiment] name")
        self.name = parser["experiment"]["name"]
        self.model_sections = [s for s in parser.sections() if s.startswith("model.")]

    def _get(self, section, key, cast, default=None):
        if section not in self.parser or key not in self.parser[section]:
            if default is not None:
                return default
            raise ConfigError(f"missing [{section}] {key}")
        try:
            return cast(self.parser[section][key])
        except ValueError as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc

    # ---- dataset -------------------------------------------------------

    def dataset_seed(self) -> int:
        return self._get("dataset", "seed", int, 0)

    def system(self):
        name = self._get("dataset", "system", str)
        if name not in SYSTEMS:
            raise ConfigError(f"unknown system {name!r}")
        return SYSTEMS[name]

    def build_dataset(self, seed_override=None) -> ds.Dataset:
        sec = self.parser["dataset"] if "dataset" in self.parser else {}
        if "file" in sec:
            if seed_override is not None:
                raise ConfigError("--seed cannot apply to the table of [dataset] file")
            path = Path(sec["file"])
            if not path.exists():
                raise ConfigError(f"dataset file not found: {path}")
            return ds.read_table(path)
        with _settings("[dataset]"):
            system, dim = self.system()
            noise_sd = self._get("dataset", "noise_sd", float)
            seed = self.dataset_seed() if seed_override is None else seed_override
            if dim == 1:
                grid = ds.linspace_grid(
                    self._get("dataset", "grid_lo", float),
                    self._get("dataset", "grid_hi", float),
                    self._get("dataset", "grid_n", int),
                )
                return ds.generate_observations(system, grid, noise_sd, seed)
            n = self._get("dataset", "n", int)
            lo = np.array([self._get("dataset", f"x{v}_lo", float) for v in (1, 2)])
            hi = np.array([self._get("dataset", f"x{v}_hi", float) for v in (1, 2)])
            if not np.isfinite([lo, hi]).all():
                raise ValueError("input bounds must be finite")
            design_rng = np.random.default_rng(seed)
            points = design_rng.uniform(lo, hi, size=(n, 2))
            # Pass a distinct stream for the noise so design and noise decouple.
            return ds.generate_observations(system, points, noise_sd, seed + 1)

    def eval_grid(self, data: ds.Dataset) -> np.ndarray:
        with _settings("[evaluation]"):
            lo, hi = data.inputs.min(axis=0), data.inputs.max(axis=0)
            if data.dim == 1:
                n = self._get("evaluation", "grid_n", int, 300)
                return ds.linspace_grid(float(lo[0]), float(hi[0]), n)[:, None]
            per_dim = self._get("evaluation", "mesh_per_dim", int, 18)
            axes = [ds.linspace_grid(lo[v], hi[v], per_dim) for v in range(data.dim)]
            mesh = np.meshgrid(*axes, indexing="ij")
            return np.column_stack([m.ravel() for m in mesh])

    # ---- models ----------------------------------------------------------

    def build_model(self, section: str):
        """Returns (name, simulator, input dimension, truncation), where
        truncation is None or the (q_map, yref_map, design inputs) of the
        tail GP of a series."""
        with _settings(f"[{section}]"):
            sec = self.parser[section]
            name = section.split(".", 1)[1]
            kind = sec.get("kind")
            if kind in ("weak", "strong"):
                dim = 1
                order = self._get(section, "order", int)
                scale_name = sec.get("scale", "one")
                if scale_name not in eft.YREF_MAPS:
                    raise ConfigError(f"unknown scale {scale_name!r} in [{section}]")
                scale = None if scale_name == "one" else eft.YREF_MAPS[scale_name]
                sim = (
                    eft.weak_expansion(order, scale=scale)
                    if kind == "weak"
                    else eft.strong_expansion(order, scale=scale)
                )
            elif kind == "taylor_surface":
                dim = 2
                sim = eft.taylor_surface_simulator(
                    _parse_center(sec.get("sin_center", "0")),
                    self._get(section, "sin_order", int),
                    _parse_center(sec.get("cos_center", "0")),
                    self._get(section, "cos_order", int),
                )
            else:
                raise ConfigError(f"unknown model kind {kind!r} in [{section}]")

            truncation = sec.get("truncation", "gp" if dim == 1 else "none")
            if truncation not in ("gp", "none"):
                raise ConfigError(f"truncation must be 'gp' or 'none' in [{section}]")
            if truncation == "none":
                return name, sim, dim, None
            if dim != 1:
                raise ConfigError(
                    f"truncation = gp needs a weak or strong series in [{section}]"
                )
            q_name = sec.get("q_map", "x")
            y_name = sec.get("yref_map", "one")
            if q_name not in eft.Q_MAPS:
                raise ConfigError(f"unknown q_map {q_name!r} in [{section}]")
            if y_name not in eft.YREF_MAPS:
                raise ConfigError(f"unknown yref_map {y_name!r} in [{section}]")
            design = ds.linspace_grid(
                self._get(section, "design_lo", float),
                self._get(section, "design_hi", float),
                self._get(section, "n_design", int),
            )
            return name, sim, dim, (eft.Q_MAPS[q_name], eft.YREF_MAPS[y_name], design)

    def model_predictions(self, data: ds.Dataset, grid: np.ndarray):
        """Per-model predictions at training points and on the grid.

        Every model is built, and its input dimension checked against the
        dataset's, before any is evaluated; a non-finite prediction raises
        ValueError naming the model's section.
        """
        if not self.model_sections:
            raise ConfigError("no [model.*] sections found")
        models = [self.build_model(section) for section in self.model_sections]
        for section, (_, _, dim, _) in zip(self.model_sections, models):
            if dim != data.dim:
                raise ConfigError(
                    f"[{section}] takes {dim}-d input, the dataset is {data.dim}-d"
                )
        names, train_mean, train_var, grid_mean, grid_var, capped = [], [], [], [], [], []
        train_x = data.inputs[:, 0] if data.dim == 1 else data.inputs
        grid_x = grid[:, 0] if data.dim == 1 else grid
        for section, (name, sim, _, truncation) in zip(self.model_sections, models):
            if truncation is None:
                p_train = eft.predict_exact(sim, train_x)
                p_grid = eft.predict_exact(sim, grid_x)
            else:
                q_map, yref_map, design = truncation
                gp = eft.fit_eft(sim, design, q_map, yref_map)
                p_train = eft.predict_eft(gp, sim, train_x)
                p_grid = eft.predict_eft(gp, sim, grid_x)
            if not all(
                np.isfinite(p.mean).all() and np.isfinite(p.variance).all()
                for p in (p_train, p_grid)
            ):
                raise ValueError(f"non-finite prediction from [{section}]")
            names.append(name)
            train_mean.append(p_train.mean)
            train_var.append(p_train.variance)
            grid_mean.append(p_grid.mean)
            grid_var.append(p_grid.variance)
            capped.append(p_grid.capped)
        return (
            names,
            np.column_stack(train_mean),
            np.column_stack(train_var),
            np.column_stack(grid_mean),
            np.column_stack(grid_var),
            np.column_stack(capped),
        )

    def prediction_set(
        self, data: ds.Dataset, grid: np.ndarray, scfg: sampler.SamplerConfig
    ):
        """Model names, the sampler's ``PredictionSet`` (carrying the
        training-point variances when ``scfg`` uses the informative prior)
        and the models' (len(grid), K) means on the grid."""
        names, train_mean, train_var, grid_mean, _, _ = self.model_predictions(data, grid)
        ps = sampler.PredictionSet(
            means=train_mean, variances=train_var if scfg.informative else None
        )
        return names, ps, grid_mean

    # ---- sampler ----------------------------------------------------------

    def sampler_config(self, seed_override=None) -> sampler.SamplerConfig:
        section = self.parser["sampler"] if "sampler" in self.parser else {}
        own = set(section) - set(self.parser.defaults())  # not [DEFAULT]'s keys
        unknown = sorted(own - set(SAMPLER_KEYS) - {"chains"})
        if unknown:
            raise ConfigError(f"unknown [sampler] keys: {', '.join(unknown)}")
        settings = {
            name: self._get("sampler", key, parse)
            for key, (name, parse) in SAMPLER_KEYS.items()
            if key in section
        }
        if seed_override is not None:
            settings["seed"] = seed_override
        with _settings("[sampler]"):
            return sampler.SamplerConfig(**settings)

    def n_chains(self, override=None) -> int:
        chains = override
        if chains is None:
            chains = self._get("sampler", "chains", int, 1)
        if chains < 1:
            raise ConfigError(f"need at least one chain, got {chains}")
        return chains

    def output_dir(self, override=None) -> Path:
        if override is not None:
            base = Path(override)
        else:
            base = Path(self._get("output", "dir", str, "runs"))
        out = base / self.name
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        return out


# --------------------------------------------------------------------------
# commands


def _grid_columns(grid: np.ndarray):
    names = [f"x{v + 1}" for v in range(grid.shape[1])]
    return names, [grid[:, v] for v in range(grid.shape[1])]


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, seed_override=None) -> None:
    data = cfg.build_dataset(seed_override)
    ds.write_table(data, out_dir / "dataset.csv")
    with open(out_dir / "dataset.meta", "w") as fh:
        fh.write(f"config_hash = {cfg.config_hash}\n")
        fh.write(f"experiment = {cfg.name}\n")
        fh.write(f"n = {data.n}\n")
        fh.write(f"dim = {data.dim}\n")
        fh.write(f"noise_sd = {data.noise_sd:.17g}\n")
        fh.write(f"seed = {data.seed}\n")
    print(f"wrote {out_dir / 'dataset.csv'} ({data.n} rows)")


def cmd_fit_eft(cfg: ExperimentConfig, out_dir: Path) -> None:
    data = cfg.build_dataset()
    grid = cfg.eval_grid(data)
    names, _, _, grid_mean, grid_var, capped = cfg.model_predictions(data, grid)
    meta = {"config_hash": cfg.config_hash, "seed": cfg.dataset_seed()}
    gnames, gcols = _grid_columns(grid)
    for i, name in enumerate(names):
        path = out_dir / f"eft_{name}.csv"
        write_csv(
            path,
            gnames + ["mean", "variance", "capped"],
            gcols + [grid_mean[:, i], grid_var[:, i], capped[:, i]],
            meta,
        )
        print(f"wrote {path}")


def _grid_truth_columns(cfg: ExperimentConfig, grid: np.ndarray):
    """Grid columns, then the true system on the grid when the config names one."""
    names, cols = _grid_columns(grid)
    try:
        system, _ = cfg.system()
    except ConfigError:
        return names, cols
    return names + ["truth"], cols + [np.array([system(*row) for row in grid])]


def _summary_lines(meta: dict, grid_cols, sigma2: np.ndarray) -> list[str]:
    lines = [f"{k} = {v}" for k, v in meta.items()]
    mean = grid_cols["mean"]
    lo, hi = grid_cols["lo95"], grid_cols["hi95"]
    lines.append(f"mean_band_width = {np.mean(hi - lo):.6g}")
    if "truth" in grid_cols:
        truth = grid_cols["truth"]
        lines.append(f"rmse_mixed_vs_truth = {sampler.rmse(mean, truth):.6g}")
        covered = np.mean((truth >= lo) & (truth <= hi))
        lines.append(f"truth_coverage_95 = {covered:.6g}")
    wsum = grid_cols["wsum_mean"]
    lines.append(f"wsum_mean_min = {wsum.min():.6g}")
    lines.append(f"wsum_mean_max = {wsum.max():.6g}")
    lines.append(f"sigma2_posterior_mean = {sigma2.mean():.6g}")
    qlo, qhi = np.quantile(sigma2, [0.025, 0.975])
    lines.append(f"sigma2_posterior_lo95 = {qlo:.6g}")
    lines.append(f"sigma2_posterior_hi95 = {qhi:.6g}")
    return lines


def cmd_mix(cfg: ExperimentConfig, out_dir: Path, seed_override=None, chains=None) -> None:
    scfg = cfg.sampler_config(seed_override)
    chains = cfg.n_chains(chains)
    data = cfg.build_dataset()
    grid = cfg.eval_grid(data)
    names, ps, grid_means = cfg.prediction_set(data, grid, scfg)
    draws = sampler.fit_chains(data, ps, scfg, chains)
    summary = sampler.predict_mixed(draws, grid, grid_means)

    meta = {
        "config_hash": cfg.config_hash,
        "experiment": cfg.name,
        "seed": scfg.seed,
        "chains": chains,
    }
    header, cols = _grid_truth_columns(cfg, grid)
    header += ["mean", "lo95", "hi95"]
    cols += [summary.mean, summary.lo, summary.hi]
    for i, name in enumerate(names):
        header += [f"w_{name}_mean", f"w_{name}_lo95", f"w_{name}_hi95"]
        cols += [
            summary.weight_mean[:, i],
            summary.weight_lo[:, i],
            summary.weight_hi[:, i],
        ]
    header += ["wsum_mean", "wsum_lo95", "wsum_hi95"]
    cols += [summary.wsum_mean, summary.wsum_lo, summary.wsum_hi]
    write_csv(out_dir / "mix_grid.csv", header, cols, meta)

    write_csv(
        out_dir / "sigma2_trace.csv",
        ["draw", "sigma2"],
        [np.arange(draws.n_kept), draws.sigma2_trace],
        meta,
    )
    sampler.save_draws(draws, out_dir / "draws.txt")
    with open(out_dir / "run_meta.txt", "w") as fh:
        for key, val in meta.items():
            fh.write(f"{key} = {val}\n")
        fh.write(f"n_train = {data.n}\n")
        fh.write(f"n_models = {len(names)}\n")
        fh.write(f"models = {','.join(names)}\n")
        fh.write(f"trees = {scfg.m}\n")
        fh.write(f"kept_draws = {draws.n_kept}\n")
        fh.write(f"n_proposals = {draws.n_proposals}\n")
        fh.write(f"n_accepted = {draws.n_accepted}\n")
        fh.write(f"acceptance_rate = {draws.acceptance_rate:.6g}\n")
        fh.write(f"lambda = {draws.meta['lam']:.17g}\n")
    report_text = _build_report(out_dir)
    (out_dir / "mix_summary.txt").write_text(report_text)
    print(report_text, end="")


def cmd_bma(cfg: ExperimentConfig, out_dir: Path) -> None:
    scfg = cfg.sampler_config()
    data = cfg.build_dataset()
    grid = cfg.eval_grid(data)
    names, train_mean, _, grid_mean, _, _ = cfg.model_predictions(data, grid)
    result = baselines.run_bma(
        data.outputs, train_mean, grid_mean,
        scfg.noise_prior(train_mean, data.outputs),
    )
    meta = {"config_hash": cfg.config_hash, "seed": cfg.dataset_seed()}
    write_csv(
        out_dir / "bma_weights.csv",
        ["model", "log_evidence", "weight"],
        [np.arange(len(names)), result.log_evidences, result.posterior_probs],
        dict(meta, models=",".join(names)),
    )
    header, cols = _grid_truth_columns(cfg, grid)
    write_csv(
        out_dir / "bma_curve.csv", header + ["mean"], cols + [result.mean], meta
    )
    print(f"wrote {out_dir / 'bma_weights.csv'}")
    for name, w in zip(names, result.posterior_probs):
        print(f"  weight[{name}] = {w:.6g}")


def _build_report(run_dir: Path) -> str:
    run_dir = Path(run_dir)
    grid_path = run_dir / "mix_grid.csv"
    if not grid_path.exists():
        raise FileNotFoundError(f"no mix run found in {run_dir}")
    meta = {}
    meta_path = run_dir / "run_meta.txt"
    if meta_path.exists():
        for line in meta_path.read_text().splitlines():
            key, _, val = line.partition("=")
            meta[key.strip()] = val.strip()
    _, _, grid_cols = read_csv(grid_path, need=("mean", "lo95", "hi95", "wsum_mean"))
    _, _, s_cols = read_csv(run_dir / "sigma2_trace.csv", need=("sigma2",))
    lines = _summary_lines(meta, grid_cols, s_cols["sigma2"])
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mixtrees", description="simulator-mixing experiment driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "fit-eft", "mix", "bma"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None, help="output directory root")
        if name in ("simulate", "mix"):
            p.add_argument("--seed", type=int, default=None, help="override run seed")
        if name == "mix":
            p.add_argument("--chains", type=int, default=None)
    p_report = sub.add_parser("report")
    p_report.add_argument("run_dir")
    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            print(_build_report(args.run_dir), end="")
            return 0
        cfg = ExperimentConfig(Path(args.config))
        out_dir = cfg.output_dir(args.out)
        if args.command == "simulate":
            cmd_simulate(cfg, out_dir, args.seed)
        elif args.command == "fit-eft":
            cmd_fit_eft(cfg, out_dir)
        elif args.command == "mix":
            cmd_mix(cfg, out_dir, args.seed, args.chains)
        elif args.command == "bma":
            cmd_bma(cfg, out_dir)
        return 0
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
