"""Benchmark of `mixtrees mix` on seeded workloads.

    python3 perfbench/run.py --workload phi4-mix --seed 0 --seconds 36 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/``.  ``--seed n`` generates the workload's configs at seeds 3n..3n+2
(see ``workloads.py``); every program run reads only such a config and
writes to a work directory that is removed afterwards.

``--trace 0`` runs `mixtrees mix` at the three seeds in turn, each in a fresh
interpreter, twice over and then while the next run fits in ``--seconds``,
and checks each finished run (``verify.py``); the first cycle also times
the set-up alone (``setup_child.py``).  It reports the medians of the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced runs
(``trace_child.py``) at the first seed and reports the per-layer metrics and
the tracing overhead.  Metric names and units come from ``BENCHMARK.json``.

A run fails on a non-zero exit, a non-finite output or a failed check: the
re-prediction from ``draws.txt`` must reproduce ``mix_grid.csv``, and every
run at one seed (traced or not) must write the same ``mix_grid.csv``,
``sigma2_trace.csv`` and ``draws.txt`` bytes.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` as JSON; the lines above
it give sample counts, quartiles and the machine record.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PY = sys.executable
SEEDS_PER_RUN = 3
CHILD_TIMEOUT_S = 150.0


class Child:
    """Outcome of one child process: exit code, spawn time, wall, peak RSS."""

    def __init__(self, argv: list[str], log: Path, env: dict):
        with open(log, "a") as fh:
            self.start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak; RUSAGE_CHILDREN would give
                # the largest child so far.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - self.start
        self.code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0


class VerifierClient:
    """The long-lived ``verify.py`` worker, one JSON line each way."""

    def __init__(self, log: Path, env: dict):
        self._log = open(log, "a")
        self.proc = subprocess.Popen([PY, str(HERE / "verify.py")], env=env, cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        self.versions = self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("verifier exited; see its log")
        return json.loads(line)

    def check(self, config: Path, out: Path) -> dict:
        self.proc.stdin.write(json.dumps({"config": str(config), "out": str(out)}) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Bench:
    """Runs and checks one workload at each of its seeds."""

    def __init__(self, workload: str, seeds: list[int], work: Path, verifier, env):
        self.workload = workload
        self.work = work
        self.verifier = verifier
        self.env = env
        self.log = work / "children.log"
        self.configs = [write_config(workload, s, work / f"{workload}-{s}.cfg")
                        for s in seeds]
        self.out_root = work / "out"
        self.reference = {}
        self.figures = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def child(self, argv: list[str]) -> Child:
        self.attempted += 1
        return Child([PY, *argv], self.log, self.env)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def checked(self, config: Path, child: Child):
        """Check a finished mix run, and its bytes against the first run of
        the same config; the run's output directory is deleted afterwards.
        Returns the verifier's report, or None when the run failed."""
        out = self.out_root / self.workload
        try:
            if child.code != 0:
                self.fail(f"mix exited with {child.code}")
                return None
            report = self.verifier.check(config, out)
            errors = report["errors"]
            if not errors and report["hashes"] != self.reference.setdefault(
                config, report["hashes"]
            ):
                errors.append("outputs differ between runs at one seed")
            if errors:
                self.fail("; ".join(errors))
                return None
            self.figures[config] = report
            return report
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def mix(self, config: Path):
        argv = ["-m", "mixtrees.cli", "mix", "--config", str(config),
                "--out", str(self.out_root)]
        child = self.child(argv)
        return child, self.checked(config, child)

    def end_to_end(self, seconds: float) -> dict:
        """Runs the seeds in turn: two full cycles, so every seed's bytes are
        compared, then more runs while the next one fits in ``seconds``.
        Set-up is timed in the first cycle only."""
        samples = {k: [] for k in ("wall_s", "setup_s", "repredict_s",
                                   "peak_rss_mb", "archive_mb")}
        n = len(self.configs)
        last = [0.0] * n  # duration of each seed's latest run, checks included
        start = time.perf_counter()
        for i in itertools.count():
            config = self.configs[i % n]
            began = time.perf_counter()
            if i >= 2 * n and began + last[i % n] - start > seconds:
                return samples
            if i < n:
                setup = self.child([str(HERE / "setup_child.py"), str(config)])
                if setup.code == 0:
                    samples["setup_s"].append(setup.wall)
                else:
                    self.fail(f"set-up exited with {setup.code}")
                began = time.perf_counter()
            child, report = self.mix(config)
            if report is not None:
                samples["wall_s"].append(child.wall)
                samples["peak_rss_mb"].append(child.rss_mb)
                samples["repredict_s"].append(report["repredict_s"])
                samples["archive_mb"].append(report["archive_mb"])
            last[i % n] = time.perf_counter() - began

    def per_layer(self, seconds: float) -> dict:
        """Alternates untraced and traced runs of the first seed."""
        config = self.configs[0]
        samples = {"plain_wall_s": [], "traced_wall_s": []}
        layers = self.work / "layers.json"
        argv = [str(HERE / "trace_child.py"), str(config), str(self.out_root),
                str(self.work / "spans.tsv"), str(layers)]
        start = time.perf_counter()
        pair_s = 0.0
        for pairs in itertools.count():
            began = time.perf_counter()
            if pairs and began + pair_s - start > seconds:
                break
            child, report = self.mix(config)
            if report is not None:
                samples["plain_wall_s"].append(child.wall)
            traced = self.child(argv)
            if self.checked(config, traced) is not None:
                layer = json.loads(layers.read_text())
                # Spawn to exit, less the traced re-prediction and span output.
                samples["traced_wall_s"].append(traced.wall - layer.pop("post_mix_s"))
                for key, value in layer.items():
                    samples.setdefault(key, []).append(value)
            pair_s = time.perf_counter() - began
        report = self.figures.get(config, {})
        for key, name in (("rmse", "sampler.rmse"), ("ess_sigma2", "sampler.ess_sigma2"),
                          ("wsum_min", "sampler.wsum_min"), ("wsum_max", "sampler.wsum_max"),
                          ("leaves_mean", "trees.leaves_mean")):
            if key in report:
                samples[name] = [report[key]]
        if samples["plain_wall_s"] and samples["traced_wall_s"]:
            samples["trace.overhead_s"] = [statistics.median(samples["traced_wall_s"])
                                           - statistics.median(samples["plain_wall_s"])]
        for key, values in samples.items():
            if values and isinstance(values[0], int) and len(set(values)) > 1:
                self.errors.append(f"count {key} differs between traced runs: {values}")
        return samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def machine_record(versions: dict, args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions, "commit": commit,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mixtrees" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no mixtrees source under {SRC} or no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    seeds = [args.seed * SEEDS_PER_RUN + k for k in range(SEEDS_PER_RUN)]
    try:
        verifier = VerifierClient(work / "verify.log", env)
        try:
            bench = Bench(args.workload, seeds, work, verifier, env)
            if args.trace:
                samples = bench.per_layer(args.seconds)
            else:
                samples = bench.end_to_end(args.seconds)
        finally:
            verifier.close()
        if bench.errors:
            for log in (bench.log, work / "verify.log"):
                if log.is_file():
                    tail = log.read_text().splitlines()[-20:]
                    print(f"--- {log.name}\n" + "\n".join(tail), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print("# machine " + json.dumps(machine_record(verifier.versions, args)))
    for config, report in bench.figures.items():
        print(f"# {config.stem}: " + ", ".join(
            f"{k} = {report[k]:.6g}" for k in
            ("rmse", "wsum_min", "wsum_max", "leaves_mean", "ess_sigma2", "chains")))
    for message in sorted(set(bench.errors)):
        print(f"# FAILED: {message} ({bench.errors.count(message)}x)")

    metrics = {}
    print(f"# {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4} unit")
    for m in declared:
        values = samples.get(m["name"])
        if not values:
            bench.errors.append(f"no samples of {m['name']}")
            continue
        # Counts repeat exactly; keep them whole numbers.
        value = values[0] if len(set(values)) == 1 else statistics.median(values)
        q1, q3 = quartiles(values)
        print(f"# {m['name']:<36} {value:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{len(values):>4} {m['unit']}")
        if len(values) > 1:
            print(f"#   samples: {' '.join(f'{v:.4g}' for v in values)}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = not bench.errors
    result = {"correct": correct, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
