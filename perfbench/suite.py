#!/usr/bin/env python3
"""Run every workload several times, interleaved, then report.

    python3 perfbench/suite.py --runs 10 --seconds 30 --out RESULTS.jsonl
        [--trace 0|1]

Round r runs each workload once with seed r, one process at a time,
rotating which workload goes first so that slow drift of the host hits
every workload alike.  Each run appends its record to RESULTS.jsonl;
the summary at the end is ``report.py RESULTS.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import report
import workloads as wl

RUN_PY = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, metavar="RESULTS.jsonl")
    args = parser.parse_args(argv)
    out = str(Path(args.out).resolve())  # run.py runs from the checkout root
    names = list(wl.WORKLOADS)

    status = 0
    for r in range(args.runs):
        seed = wl.DEFAULT_SEED + r
        for i in range(len(names)):
            name = names[(r + i) % len(names)]
            cmd = [sys.executable, str(RUN_PY), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--results", out]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=wl.ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"round {r} {name}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            brief = " ".join(f"{k}={v['value']:.5g}"
                             for k, v in list(result["metrics"].items())[:3])
            print(f"round {r} seed {seed} {name}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed {brief}",
                  flush=True)
            if not result["correct"]:
                sys.stderr.write(proc.stderr)
                status = 1
    report.report([out])
    return status


if __name__ == "__main__":
    sys.exit(main())
