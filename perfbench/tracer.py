"""Per-layer spans recorded from outside the program.

The tracer replaces each traced public function with a timing wrapper at
every module binding that refers to it (``autopilot`` imports
``plant_step`` by name, ``harness`` imports ``run_mission`` by name, ...),
and puts the originals back afterwards.  Spans stay in memory; self time is
a span's duration minus the durations of its direct children, computed when
the spans are summarised.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

import numpy as np

from workloads import BenchError

# (module, function) pairs wrapped in a traced run; layers are modules.
TRACED = (
    ("plant", "plant_step"),
    ("leg", "simulate_impact_batch"),
    ("leg", "leg_cost_batch"),
    ("perception", "render_scan"),
    ("perception", "detect_branch"),
    ("autopilot", "run_mission"),
    ("touchdown", "evaluate_touchdown"),
    ("touchdown", "sweep_envelope"),
    ("claw", "holding_torque"),
    ("claw", "diameter_sweep"),
    ("pso", "pso_minimize"),
    ("harness", "run_scenario"),
    ("cli", "main"),
)

# Each plant_step integrates one 120 Hz period with 8 RK4 substeps at
# 960 Hz, i.e. 32 right-hand-side evaluations.
RHS_EVALS_PER_PLANT_STEP = 32

Span = Tuple[str, float, float, int]  # name, start, end, parent index


def _observe_impact_batch(counts, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    lanes = np.broadcast(*(np.asarray(a[k]) for k in (
        "link_length", "leg_mass", "spring_rate", "total_mass", "speed",
        "misalignment_z"))).size
    steps = int(round(a["t_max"] / a["dt"]))
    counts["leg.simulate_impact_batch.lane_steps"] += lanes * steps


def _observe_detect(counts, fn, args, kwargs, result):
    counts["perception.detect_branch.hits"] += result is not None


def _observe_mission(counts, fn, args, kwargs, result):
    counts["autopilot.perched"] += result.outcome.value == "Perched"


def _observe_cost(counts, fn, args, kwargs, result):
    counts["pso.cost_evals"] += len(np.atleast_1d(result))


def _observe_pso(counts, fn, args, kwargs, result):
    history = result.history
    counts["pso.gbest_improvements"] += sum(
        b < a for a, b in zip(history, history[1:]))


# Counts taken from a traced call's arguments and result.
OBSERVERS = {
    "leg.simulate_impact_batch": _observe_impact_batch,
    "perception.detect_branch": _observe_detect,
    "autopilot.run_mission": _observe_mission,
    "leg.leg_cost_batch": _observe_cost,
    "pso.pso_minimize": _observe_pso,
}


class Tracer:
    """Spans and counts of the traced calls since the last drain()."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(counts, fn, args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding of each traced function, then restore them."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "perchsim" or n.startswith("perchsim.")]
        patched = []
        try:
            for mod_name, fn_name in TRACED:
                home = sys.modules.get(f"perchsim.{mod_name}")
                if not hasattr(home, fn_name):
                    raise BenchError(f"perchsim.{mod_name}.{fn_name} is gone: "
                                     "update TRACED to the program")
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def drain(self) -> Tuple[List[Span], Dict[str, float]]:
        """Summarise and clear the spans and counts recorded so far."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, summarise(spans, counts)


def summarise(spans: List[Span], counts: Dict[str, int]) -> Dict[str, float]:
    """Per-function calls and self time plus the derived per-layer figures."""
    calls: Counter = Counter()
    child: Dict[int, float] = defaultdict(float)
    for name, start, end, parent in spans:
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_s: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        self_s[name] += end - start - child[index]

    out: Dict[str, float] = {}
    for mod_name, fn_name in TRACED:
        name = f"{mod_name}.{fn_name}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]

    def ratio(num, den):
        return num / den if den else 0.0

    plant_calls = calls["plant.plant_step"]
    rhs = RHS_EVALS_PER_PLANT_STEP * plant_calls
    lane_steps = counts.get("leg.simulate_impact_batch.lane_steps", 0)
    td_calls = calls["touchdown.evaluate_touchdown"]
    out.update({
        "plant.plant_step.us_per_call":
            1e6 * ratio(self_s["plant.plant_step"], plant_calls),
        "plant.rhs_evals": rhs,
        "plant.us_per_rhs_eval": 1e6 * ratio(self_s["plant.plant_step"], rhs),
        "leg.simulate_impact_batch.lane_steps": lane_steps,
        "leg.simulate_impact_batch.ns_per_lane_step":
            1e9 * ratio(self_s["leg.simulate_impact_batch"], lane_steps),
        "perception.detect_branch.hit_ratio":
            ratio(counts.get("perception.detect_branch.hits", 0),
                  calls["perception.detect_branch"]),
        "autopilot.perched_ratio":
            ratio(counts.get("autopilot.perched", 0),
                  calls["autopilot.run_mission"]),
        "touchdown.evaluate_touchdown.us_per_call":
            1e6 * ratio(self_s["touchdown.evaluate_touchdown"], td_calls),
        "pso.cost_evals": counts.get("pso.cost_evals", 0),
        "pso.gbest_improvements": counts.get("pso.gbest_improvements", 0),
    })
    return out


def _units() -> Dict[str, str]:
    table = {}
    for mod_name, fn_name in TRACED:
        table[f"{mod_name}.{fn_name}.calls"] = "count"
        table[f"{mod_name}.{fn_name}.self_s"] = "s"
    table.update({
        "plant.plant_step.us_per_call": "us",
        "plant.rhs_evals": "count",
        "plant.us_per_rhs_eval": "us",
        "leg.simulate_impact_batch.lane_steps": "count",
        "leg.simulate_impact_batch.ns_per_lane_step": "ns",
        "perception.detect_branch.hit_ratio": "ratio",
        "autopilot.perched_ratio": "ratio",
        "touchdown.evaluate_touchdown.us_per_call": "us",
        "pso.cost_evals": "count",
        "pso.gbest_improvements": "count",
        "harness.files_written": "count",
        "harness.bytes_written": "bytes",
        "trace.traced_wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead": "ratio",
    })
    return table


# Unit of every per-layer metric a traced run reports.
UNITS = _units()
