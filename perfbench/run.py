#!/usr/bin/env python3
"""perchsim benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--results FILE] [--spans FILE]

Runs the workload again and again in this process for about S seconds
(closed loop, one client, no extra threads) and checks every run's output.
Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
host seconds per workload run), ``setup_s`` (median of fresh interpreters
doing the workload's set-up, two before each run) and ``peak_rss_mb``.
With ``--trace 1`` runs alternate traced and untraced, and the metrics are
the per-layer ones from the traced runs (medians per workload run) plus the
tracing overhead.
``--results`` appends a JSON record with provenance, for report.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from typing import Dict, List, Tuple

import workloads as wl

# Fresh-interpreter set-up probes before each workload run: spread over the
# whole measurement, so that set-up and run times see the same host.
SETUP_PROBES_PER_RUN = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", metavar="FILE",
                        help="append a JSON record of this run")
    parser.add_argument("--spans", metavar="FILE",
                        help="write the traced spans as JSON lines")
    return parser.parse_args(argv)


def provenance() -> Dict[str, object]:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"  # the checkout need not be a git repository
    loc = 0
    for path in sorted(wl.SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            loc += sum(1 for _ in handle)
    return {
        "git_rev": rev,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "src_loc": loc,
    }


def quartiles(values: List[float], unit: str) -> Dict[str, object]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def cross_check(workload: wl.Workload, layer: Dict[str, float],
                counts: Dict[str, int]) -> List[str]:
    """Traced call counts that must equal counts read from the outputs."""
    pairs = [("plant.plant_step.calls", counts["trajectory_rows"])]
    if workload.name == "leg_design":
        # one leg batch per design speed (3) per PSO evaluation round
        pairs.append(("leg.simulate_impact_batch.calls",
                      3 * counts["pso_rows"]))
    if workload.name == "sweep_catalog":
        pairs.append(("touchdown.evaluate_touchdown.calls",
                      counts["envelope_cells"]))
    return [f"{name} = {layer[name]} but outputs give {want}"
            for name, want in pairs if layer[name] != want]


class Runner:
    """Runs one workload repeatedly and accounts for failed runs."""

    def __init__(self, workload: wl.Workload, seed: int, cli):
        self.workload, self.seed, self.cli = workload, seed, cli
        self.reference = wl.reference_for(workload, seed, wl.load_expected())
        self.attempted = 0
        self.failed = 0

    def execute(self) -> wl.RunResult:
        self.attempted += 1
        return wl.execute(self.cli, self.workload, self.seed)

    def judge(self, result: wl.RunResult, extra: List[str] = ()) -> bool:
        """Check one run and say whether it passed; the first correct run
        at an unrecorded seed becomes the reference for the rest."""
        problems = wl.check(self.workload, self.seed, result, self.reference)
        problems += [] if result.error else list(extra)
        for problem in problems:
            print(f"perfbench: run {self.attempted}: {problem}",
                  file=sys.stderr)
        if problems:
            self.failed += 1
            return False
        if self.reference is None:
            self.reference = wl.reference_of(result)
        return True

    def run(self) -> Tuple[wl.RunResult, bool]:
        result = self.execute()
        return result, self.judge(result)


def passed_or_all(passed: List[float], every: List[float]) -> List[float]:
    """The samples of passed runs.  Only when no run passed (and the result
    is marked incorrect) the failed runs' samples stand in, so that a
    figure can still be printed."""
    return passed or every


def measure_end_to_end(runner: Runner, seconds: float):
    name = runner.workload.name
    env = wl.pin_environment(dict(os.environ))
    setup, walls, every_wall, throughput = [], [], [], []
    start = time.perf_counter()
    while runner.attempted == 0 or time.perf_counter() - start < seconds:
        setup += [wl.setup_probe_seconds(name, env)
                  for _ in range(SETUP_PROBES_PER_RUN)]
        result, passed = runner.run()
        every_wall.append(result.wall_s)
        if not passed:  # a crashed run is short: it would read as a gain
            continue
        walls.append(result.wall_s)
        if name == "perch_ensemble":
            sim_s = result.counts["trajectory_rows"] \
                / wl.TRAJECTORY_ROWS_PER_SIM_S
            throughput.append(sim_s / result.wall_s)
        elif name == "leg_design":
            evals = wl.OPTIMIZE_PARTICLES * result.counts["pso_rows"]
            throughput.append(evals / result.wall_s)
    walls = passed_or_all(walls, every_wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {"wall_s": quartiles(walls, "s"),
              "setup_s": quartiles(setup, "s"),
              "failed_ratio": runner.failed / runner.attempted}
    if name == "perch_ensemble" and throughput:
        report["sim_s_per_host_s"] = quartiles(throughput, "s/s")
    if name == "leg_design" and throughput:
        report["cost_evals_per_s"] = quartiles(throughput, "1/s")
    return metrics, report


def measure_layers(runner: Runner, seconds: float, spans_path=None):
    from tracer import UNITS, Tracer  # imports numpy: after pinning threads

    counted = [k for k, unit in UNITS.items()
               if unit in ("count", "bytes", "ratio") and k != "trace.overhead"]
    tracer = Tracer()
    traced, untraced, per_run, all_spans = [], [], [], []
    every_traced, every_untraced, every_run = [], [], []
    start = time.perf_counter()
    while len(every_untraced) == 0 or time.perf_counter() - start < seconds:
        if len(every_traced) > len(every_untraced):
            result, passed = runner.run()
            every_untraced.append(result.wall_s)
            if passed:
                untraced.append(result.wall_s)
            continue
        with tracer.installed():
            result = runner.execute()
        spans, layer = tracer.drain()
        layer["harness.files_written"] = result.counts["files"]
        layer["harness.bytes_written"] = result.counts["bytes"]
        problems = cross_check(runner.workload, layer, result.counts)
        if per_run:
            changed = [k for k in counted if layer[k] != per_run[0][k]]
            if changed:
                problems.append(f"traced counts differ between runs: {changed}")
        every_traced.append(result.wall_s)
        every_run.append(layer)
        if runner.judge(result, problems):
            traced.append(result.wall_s)
            per_run.append(layer)
        if spans_path:
            all_spans.extend(spans)
    traced = passed_or_all(traced, every_traced)
    untraced = passed_or_all(untraced, every_untraced)
    per_run = passed_or_all(per_run, every_run)
    metrics = {}
    for key, unit in UNITS.items():
        if not key.startswith("trace."):
            values = [layer[key] for layer in per_run]
            metrics[key] = (statistics.median(values), unit)
    traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in all_spans:
                handle.write(json.dumps(span) + "\n")
    report = {"traced_runs": len(traced), "untraced_runs": len(untraced),
              "failed_ratio": runner.failed / runner.attempted}
    return metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    wl.pin_environment()
    workload = wl.WORKLOADS[args.workload]
    try:
        cli = wl.setup(workload.name)
    except (wl.BenchError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    prov = provenance()
    print("perfbench: " + " ".join(
        f"{k}={v}" for k, v in dict(workload=workload.name, seed=args.seed,
                                     trace=args.trace, **prov).items()))
    runner = Runner(workload, args.seed, cli)
    try:
        if args.trace:
            metrics, report = measure_layers(runner, args.seconds, args.spans)
        else:
            metrics, report = measure_end_to_end(runner, args.seconds)
    except wl.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for key, value in report.items():
        if isinstance(value, dict):
            print(f"  {key:<42} {value['median']:.6g} {value['unit']}  "
                  f"(median; q1 {value['q1']:.6g}, q3 {value['q3']:.6g}, "
                  f"n {value['n']})")
    for key, (value, unit) in metrics.items():
        if key not in report:
            print(f"  {key:<42} {value:.6g} {unit}")
    print(f"  {'failed_ratio':<42} {report['failed_ratio']:.6g} ratio "
          f"({runner.failed}/{runner.attempted})")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.results:
        record = dict(workload=workload.name, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, provenance=prov, report=report,
                      result=result)
        with open(args.results, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
