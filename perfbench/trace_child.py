"""One traced `mixtrees mix` run, then a traced re-prediction from its archive.

Wraps the public functions and methods of each module under the name its
caller looks up, without editing the package: ``sampler`` imports the
proposal and node-model kernels by name, so those are patched on
``mixtrees.sampler``; ``Tree`` and ``Chain`` methods are patched on the
class; the CLI reaches the truth function through ``cli.SYSTEMS``.  Every
wrapped call becomes a span (name, parent, start, end, one number) kept in
memory.  When the run ends the spans are written to ``SPANS`` as
tab-separated text and reduced to per-layer metrics in ``METRICS`` (JSON).

    python3 perfbench/trace_child.py CONFIG OUT_ROOT SPANS METRICS
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

_t0 = time.perf_counter()
from mixtrees import cli, dataset, eft, sampler, trees  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402


class Tracer:
    """In-memory spans with parent ids; ``value`` is one number per span."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []
        self.counts = Counter()
        self._stack = [-1]
        self.enabled = True

    def wrap(self, name, fn, value=None):
        """``fn`` recorded as span ``name``; ``value(args, kwargs, result)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(0.0)
            self.values.append(0.0)
            self._stack.append(sid)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[sid] = time.perf_counter()
                self._stack.pop()
            if value is not None:
                self.values[sid] = value(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, value=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), value))

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\tvalue\n")
            for sid, row in enumerate(
                zip(self.parents, self.names, self.starts, self.ends, self.values)
            ):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%.17g\n" % ((sid,) + row))


def _rows(args, kwargs, result):
    return len(args[0])


def install(tracer: Tracer) -> None:
    """Patch every traced entry point of the `mix` path."""
    t = tracer
    t.patch(cli, "write_csv", "cli.write_csv")
    for key, (system, dim) in list(cli.SYSTEMS.items()):
        cli.SYSTEMS[key] = (t.wrap("dataset.truth", system), dim)
    t.patch(dataset, "generate_observations", "dataset.generate")
    t.patch(eft, "fit_eft", "eft.fit")
    t.patch(eft, "predict_eft", "eft.predict", lambda a, k, r: len(a[2]))
    t.patch(eft, "predict_exact", "eft.predict", lambda a, k, r: len(a[1]))

    valid = lambda a, k, r: float(r.valid)  # noqa: E731
    t.patch(sampler, "propose_birth", "trees.birth", valid)
    t.patch(sampler, "propose_death", "trees.death", valid)
    t.patch(sampler, "propose_rule_change", "trees.change", valid)
    t.patch(trees.Tree, "partition", "trees.partition", lambda a, k, r: len(a[1]))
    for method in ("copy", "node_bounds", "evaluate", "encode"):
        t.patch(trees.Tree, method, f"trees.{method}")
    trees.Tree.decode = classmethod(t.wrap("trees.decode", trees.Tree.decode.__func__))

    t.patch(sampler, "_log_ml_raw", "node_model.log_ml", _rows)
    t.patch(sampler, "_sample_leaf_raw", "node_model.leaf", _rows)
    t.patch(sampler, "sample_sigma2", "node_model.sigma2")

    t.patch(sampler.Chain, "gibbs_sweep", "sampler.sweep",
            lambda a, k, r: float(k.get("warmup", False)))
    t.patch(sampler.Chain, "_redraw_leaves", "sampler.redraw")
    for fn in ("fit_bmm", "predict_mixed", "save_draws", "load_draws",
               "predict_from_archive"):
        t.patch(sampler, fn, f"sampler.{fn}")

    try_accept = sampler.Chain._try_accept

    def counted(self, j, prop, resid, log_kind):
        accepted = try_accept(self, j, prop, resid, log_kind)
        t.counts[prop.kind] += accepted
        return accepted

    sampler.Chain._try_accept = counted


def layer_metrics(t: Tracer) -> dict:
    """Per-layer counts and times; ``self_s`` subtracts child spans."""
    names = np.array(t.names)
    parents = np.array(t.parents)
    dur = np.array(t.ends) - np.array(t.starts)
    values = np.array(t.values)
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
    own = dur - child

    out = {"cli.import_s": IMPORT_S}

    def add(name, *fields):
        sel = names == name
        total = int(values[sel].sum())  # valid proposals, rows or points
        stats = {
            "calls": int(sel.sum()),
            "busy_s": float(dur[sel].sum()),
            "self_s": float(own[sel].sum()),
            "valid": total,
            "rows": total,
            "points": total,
        }
        for field in fields:
            out[f"{name}.{field}"] = stats[field]

    add("cli.write_csv", "calls", "busy_s")
    add("dataset.truth", "calls", "busy_s")
    add("dataset.generate", "busy_s")
    add("eft.fit", "calls", "busy_s")
    add("eft.predict", "calls", "points", "busy_s")
    for kind in ("birth", "death", "change"):
        add(f"trees.{kind}", "calls", "valid", "busy_s", "self_s")
    add("trees.partition", "calls", "rows", "busy_s", "self_s")
    for method in ("copy", "node_bounds", "evaluate", "encode", "decode"):
        add(f"trees.{method}", "calls", "busy_s")
    add("node_model.log_ml", "calls", "rows", "busy_s")
    add("node_model.leaf", "calls", "rows", "busy_s")
    add("node_model.sigma2", "calls", "busy_s")

    sweeps = names == "sampler.sweep"
    for phase, is_warmup in (("warmup", 1.0), ("kept", 0.0)):
        ms = 1e3 * dur[sweeps & (values == is_warmup)]
        out[f"sampler.sweep_ms.{phase}_n"] = int(ms.size)
        out[f"sampler.sweep_ms.{phase}_p50"] = float(np.percentile(ms, 50))
        out[f"sampler.sweep_ms.{phase}_p99"] = float(np.percentile(ms, 99))
    add("sampler.redraw", "busy_s", "self_s")
    add("sampler.fit_bmm", "busy_s", "self_s")
    for fn in ("predict_mixed", "save_draws", "load_draws", "predict_from_archive"):
        add(f"sampler.{fn}", "busy_s")
    for kind in ("birth", "death", "change"):
        valid = out[f"trees.{kind}.valid"]
        out[f"sampler.accept.{kind}.accepted"] = int(t.counts[kind])
        out[f"sampler.accept.{kind}"] = t.counts[kind] / valid if valid else 0.0
    return out


def main(config: str, out_root: str, spans_path: str, metrics_path: str) -> None:
    tracer = Tracer()
    install(tracer)
    code = cli.main(["mix", "--config", config, "--out", out_root])
    mix_end = time.perf_counter()
    if code != 0:
        sys.exit(code)

    tracer.enabled = False
    cfg = cli.ExperimentConfig(Path(config))
    data = cfg.build_dataset()
    grid = cfg.eval_grid(data)
    grid_means = cfg.model_predictions(data, grid)[3]
    tracer.enabled = True
    ensembles = sampler.load_draws(Path(out_root) / cfg.name / "draws.txt")
    sampler.predict_from_archive(ensembles, grid, grid_means)
    tracer.enabled = False

    tracer.write(Path(spans_path))
    metrics = layer_metrics(tracer)
    metrics["post_mix_s"] = time.perf_counter() - mix_end
    Path(metrics_path).write_text(json.dumps(metrics))


if __name__ == "__main__":
    main(*sys.argv[1:5])
