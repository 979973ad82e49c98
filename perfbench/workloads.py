"""The three benchmark workloads and the checks on their outputs.

Every workload drives the user entry point, ``perchsim.cli.main([...])``,
in-process.  One *workload run* is one or more CLI invocations; its output
files are hashed and checked after the timed region.  The program is loaded
from ``src/`` of the checkout that holds this directory and from nowhere
else, so a directory without the sources fails instead of measuring some
other installed copy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
EXPECTED_PATH = BENCH_DIR / "expected.json"

# Seed at which every output digest is compared with expected.json.
DEFAULT_SEED = 0

# Environment every measured interpreter runs with: one BLAS/OpenMP thread
# and FullPerch's serial path (PERCHSIM_THREADS unset).
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
CLEARED_ENV = ("PERCHSIM_THREADS",)

# Flight-plant rows are written at the 120 Hz control rate.
TRAJECTORY_ROWS_PER_SIM_S = 120.0
# Swarm size fixed by the Optimize scenario.
OPTIMIZE_PARTICLES = 20


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no program sources)."""


def pin_environment(env=None):
    """Apply the pinned thread settings to ``env`` (default: os.environ)."""
    env = os.environ if env is None else env
    for key in CLEARED_ENV:
        env.pop(key, None)
    env.update(PINNED_ENV)
    return env


def load_program():
    """Import ``perchsim.cli`` from this checkout's ``src/``."""
    if not (SRC / "perchsim" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import perchsim.cli  # noqa: E402  (path set up above)
    loaded = Path(perchsim.cli.__file__).resolve()
    if SRC not in loaded.parents:
        raise BenchError(f"perchsim was imported from {loaded}, not {SRC}")
    return perchsim.cli


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: Tuple[str, ...]
    seeded: bool
    passes: int = 1

    def argv(self, scenario: str, seed: int, out: Path) -> List[str]:
        args = [scenario, "--out", str(out)]
        if self.seeded:
            args += ["--seed", str(seed)]
        return args


# Why each workload is here: README.md and BENCHMARK.json.  Eight passes
# make a sweep_catalog run take a few seconds, like the other two.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("perch_ensemble", ("FullPerch",), seeded=True),
    Workload("leg_design", ("Optimize",), seeded=True),
    Workload("sweep_catalog",
             ("ClawSweep", "ImpactSuite", "Envelope", "LauncherProfile"),
             seeded=False, passes=8),
)}


def setup(name: str):
    """Lazy one-time set-up a workload triggers before its first run.

    Imports the CLI and, for ``leg_design``, builds the leg-cost
    normalization baselines that every ``Optimize`` invocation pays once.
    The same steps, and nothing of the benchmark, are timed by
    ``SETUP_PROBE``.
    """
    cli = load_program()
    if name == "leg_design":
        from perchsim import leg
        if not hasattr(leg, "_baselines"):
            raise BenchError("perchsim.leg._baselines is gone: update "
                             "setup() and SETUP_PROBE to the new set-up")
        leg._baselines()
    return cli


# What setup() does, run in a fresh interpreter: argv is (src dir, workload).
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import perchsim.cli
if sys.argv[2] == "leg_design":
    import perchsim.leg
    perchsim.leg._baselines()
"""


def setup_probe_seconds(name: str, env: Dict[str, str]) -> float:
    """Wall time of a fresh interpreter that does only the set-up of
    workload ``name``, loading the program and no benchmark code."""
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to
    # 50 ms, which would quantize the measurement
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), name],
                          env=env)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited {proc.returncode}")
    return seconds


# ---------------------------------------------------------------------------
# One workload run


@dataclass
class RunResult:
    wall_s: float
    exit_codes: List[Dict[str, int]]  # one map per pass
    digests: List[Dict[str, str]]  # one map per pass
    counts: Dict[str, int]
    error: Optional[str] = None


def _pass_dir(run_dir: Path, p: int) -> Path:
    return run_dir / f"pass{p}"


def execute(cli, workload: Workload, seed: int) -> RunResult:
    """Run the workload once in a fresh output directory, then hash it."""
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    exit_codes: List[Dict[str, int]] = []
    error = None
    try:
        t0 = time.perf_counter()
        try:
            for p in range(workload.passes):
                exit_codes.append({})
                for scenario in workload.scenarios:
                    out = _pass_dir(run_dir, p) / scenario
                    exit_codes[p][scenario] = cli.main(
                        workload.argv(scenario, seed, out))
        except Exception as exc:  # a crashed run is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        digests = [_digest_tree(_pass_dir(run_dir, p))
                   for p in range(workload.passes)]
        return RunResult(wall_s=wall, exit_codes=exit_codes, digests=digests,
                         counts=scan_outputs(run_dir), error=error)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _digest_tree(root: Path) -> Dict[str, str]:
    return {str(path.relative_to(root)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _csv_rows(path: Path) -> List[List[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))[1:]


def scan_outputs(run_dir: Path) -> Dict[str, int]:
    """Counts derived from the files a run wrote."""
    counts = dict(files=0, bytes=0, trajectory_rows=0, pso_rows=0,
                  envelope_cells=0)
    for path in run_dir.rglob("*"):
        if not path.is_file():
            continue
        counts["files"] += 1
        counts["bytes"] += path.stat().st_size
        if path.name.startswith("run_") and path.suffix == ".csv":
            counts["trajectory_rows"] += len(_csv_rows(path))
        elif path.name == "pso_log.csv":
            counts["pso_rows"] += len(_csv_rows(path))
        elif path.name.startswith("envelope_") and path.suffix == ".csv":
            counts["envelope_cells"] += len(_csv_rows(path))
    return counts


# ---------------------------------------------------------------------------
# Correctness


def load_expected() -> Dict[str, dict]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def reference_for(workload: Workload, seed: int,
                  expected: Dict[str, dict]) -> Optional[dict]:
    """The recorded outputs this run must reproduce, if any are recorded.

    Seedless workloads and the default seed have recorded digests; at any
    other seed the first run of the invocation becomes the reference.
    """
    if not workload.seeded or seed == DEFAULT_SEED:
        return expected[workload.name]
    return None


def reference_of(result: RunResult) -> dict:
    return {"exit_codes": result.exit_codes[0], "digests": result.digests[0]}


def check(workload: Workload, seed: int, result: RunResult,
          reference: Optional[dict]) -> List[str]:
    """Problems with one run; an empty list means the run is correct."""
    if result.error is not None:
        return [result.error]
    problems = [f"pass{p} {scenario} exited {rc}"
                for p, codes in enumerate(result.exit_codes)
                for scenario, rc in codes.items() if rc not in (0, 1)]
    if reference is not None:
        for p, (codes, digests) in enumerate(zip(result.exit_codes,
                                                 result.digests)):
            if codes != reference["exit_codes"]:
                problems.append(f"pass{p} exit codes {codes} != "
                                f"{reference['exit_codes']}")
            if digests != reference["digests"]:
                bad = sorted(k for k in set(digests) | set(reference["digests"])
                             if digests.get(k) != reference["digests"].get(k))
                problems.append(f"pass{p} digest mismatch: {', '.join(bad)}")
    return problems + _semantic_problems(workload, seed, result)


def _semantic_problems(workload: Workload, seed: int,
                       result: RunResult) -> List[str]:
    """Checks that hold at every seed, before any digest is trusted."""
    c = result.counts
    if workload.name == "perch_ensemble":
        want = {f"FullPerch/run_{s}.csv" for s in range(seed, seed + 9)}
        missing = want - set(result.digests[0])
        if missing or c["trajectory_rows"] < 9:
            return [f"missing trajectories: {sorted(missing)}"]
    elif workload.name == "leg_design":
        if c["pso_rows"] != 26:
            return [f"pso_log.csv has {c['pso_rows']} rows, expected 26"]
    elif workload.name == "sweep_catalog":
        if c["envelope_cells"] != 1764 * workload.passes:
            return [f"{c['envelope_cells']} envelope cells"]
    return []


def record_expected() -> None:
    """Run each workload once at the default seed and store its outputs."""
    pin_environment()
    recorded = {}
    for workload in WORKLOADS.values():
        cli = setup(workload.name)
        result = execute(cli, workload, DEFAULT_SEED)
        problems = check(workload, DEFAULT_SEED, result, None)
        if problems:
            raise BenchError(f"{workload.name}: {problems}")
        if any(d != result.digests[0] for d in result.digests) or any(
                c != result.exit_codes[0] for c in result.exit_codes):
            raise BenchError(f"{workload.name}: passes differ")
        recorded[workload.name] = reference_of(result)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    # python3 perfbench/workloads.py --record : rewrite expected.json
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: workloads.py --record")
    record_expected()
