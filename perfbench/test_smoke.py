"""Smoke test of the benchmark's own code on one short pass.

    python3 -m pytest -q perfbench/test_smoke.py

Runs the cheapest workload once untraced and once traced (about 15 s in
all), checks the result line against BENCHMARK.json, and checks that the
benchmark refuses to run without the program sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import report
import workloads as wl

RUN_PY = wl.BENCH_DIR / "run.py"
SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "results.jsonl"
    out = {}
    for trace in ("0", "1", "1"):
        proc = run_bench(wl.ROOT, "--workload", "sweep_catalog", "--seed", "5",
                         "--seconds", "0", "--trace", trace,
                         "--results", str(path))
        assert proc.returncode == 0, proc.stderr
        out.setdefault(trace, []).append(json.loads(
            proc.stdout.strip().splitlines()[-1]))
    return path, out


def test_untraced_result_line(results):
    _, out = results
    result = out["0"][0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_traced_counts_match_outputs_and_repeat(results):
    _, out = results
    first, second = out["1"]
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = first["metrics"]
    passes = wl.WORKLOADS["sweep_catalog"].passes
    assert metrics["touchdown.evaluate_touchdown.calls"]["value"] == 1764 * passes
    assert metrics["plant.plant_step.calls"]["value"] == 0
    for name, metric in metrics.items():
        if metric["unit"] == "count":
            assert second["metrics"][name]["value"] == metric["value"], name


def test_report_reads_results(results, capsys):
    path, _ = results
    report.report([str(path), str(path)])
    text = capsys.readouterr().out
    assert "sweep_catalog" in text and "wall_s" in text


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "leg_design", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_digest_mismatch_fails_run(tmp_path):
    workload = wl.WORKLOADS["sweep_catalog"]
    reference = wl.load_expected()[workload.name]
    forged = dict(reference, digests=dict(reference["digests"]))
    forged["digests"]["Envelope/summary.txt"] = "0" * 64
    cli = wl.setup(workload.name)
    result = wl.execute(cli, workload, 0)
    assert wl.check(workload, 0, result, reference) == []
    assert wl.check(workload, 0, result, forged)


def test_missing_program_names_stop_the_run(monkeypatch):
    from tracer import Tracer

    wl.setup("leg_design")
    from perchsim import claw, leg
    monkeypatch.delattr(claw, "holding_torque")
    with pytest.raises(wl.BenchError):
        with Tracer().installed():
            pass
    monkeypatch.delattr(leg, "_baselines")
    with pytest.raises(wl.BenchError):
        wl.setup("leg_design")
