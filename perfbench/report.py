#!/usr/bin/env python3
"""Summarise or compare benchmark result files.

    python3 perfbench/report.py RESULTS.jsonl            # one set
    python3 perfbench/report.py BASE.jsonl NEW.jsonl     # two sets

A result file holds one JSON record per ``run.py --results`` call.  For
each workload and metric this prints the median, the quartiles and the
sample count over the runs in the file, and the spread (q3 - q1) / median.
Given two files it adds the new median as a ratio of the base median.  It
is a report, not a gate: it always exits 0 when the files can be read.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

from run import quartiles

Key = Tuple[str, int, str]  # workload, trace flag, metric


def load(path: str):
    """(values per key, units per key, provenance set, failed, attempted)."""
    values: Dict[Key, List[float]] = defaultdict(list)
    units: Dict[Key, str] = {}
    provenance = set()
    failed = attempted = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            workload, trace = record["workload"], record["trace"]
            result = record["result"]
            failed += result["failed"]
            attempted += result["attempted"]
            provenance.add(json.dumps(record["provenance"], sort_keys=True))
            for name, metric in result["metrics"].items():
                values[workload, trace, name].append(metric["value"])
                units[workload, trace, name] = metric["unit"]
            # per-run medians of the figures printed beside the metrics
            for name, summary in record["report"].items():
                if isinstance(summary, dict) and name not in result["metrics"]:
                    values[workload, trace, name].append(summary["median"])
                    units[workload, trace, name] = summary["unit"]
            values[workload, trace, "failed_ratio"].append(
                result["failed"] / result["attempted"])
            units[workload, trace, "failed_ratio"] = "ratio"
    return values, units, provenance, failed, attempted


def stats(values: List[float]) -> Dict[str, float]:
    summary = quartiles(values, "")
    med = summary["median"]
    summary["spread"] = (summary["q3"] - summary["q1"]) / med if med else 0.0
    return summary


def report(paths: List[str], out=None) -> None:
    out = out or sys.stdout
    sets = [load(p) for p in paths]
    for path, (_, _, provenance, failed, attempted) in zip(paths, sets):
        print(f"{path}: {failed}/{attempted} workload runs failed", file=out)
        for prov in sorted(provenance):
            print(f"  provenance {prov}", file=out)
    base_values, units = sets[0][0], sets[0][1]
    new_values = sets[1][0] if len(sets) > 1 else None
    header = f"{'workload':<15} {'t':>1} {'metric':<44} {'unit':<6} " \
             f"{'median':>11} {'q1':>11} {'q3':>11} {'n':>3} {'spread':>7}"
    if new_values is not None:
        header += f" {'new median':>11} {'new/base':>8}"
    print(header, file=out)
    for key in sorted(base_values):
        workload, trace, name = key
        s = stats(base_values[key])
        line = (f"{workload:<15} {trace:>1} {name:<44} {units[key]:<6} "
                f"{s['median']:>11.5g} {s['q1']:>11.5g} {s['q3']:>11.5g} "
                f"{s['n']:>3} {s['spread']:>7.3f}")
        if new_values is not None and key in new_values:
            new = stats(new_values[key])["median"]
            ratio = new / s["median"] if s["median"] else float("nan")
            line += f" {new:>11.5g} {ratio:>8.3f}"
        print(line, file=out)


if __name__ == "__main__":
    if not 1 <= len(sys.argv) - 1 <= 2:
        sys.exit(__doc__)
    report(sys.argv[1:])
