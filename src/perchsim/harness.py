"""Experiment orchestration: scenarios, launcher kinematics, CSV reports.

Each scenario runs one canned experiment (claw sweep, impact suite, flight
test, perch ensemble, touchdown envelopes, leg-design optimization, or
launcher profile), writes deterministic CSV artifacts plus a plain-text
summary, and reports whether its success criteria were met.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import claw as clawmod
from . import leg as legmod
from .autopilot import (
    DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
    DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM,
    DEFAULT_SEEDS,
    TRAJECTORY_COLUMNS,
    MissionConfig,
    MissionResult,
    StageReport,
    Termination,
    run_stage,
)
from .claw import ROBOT_CLAW, BranchSpec
from .config import (MAX_SEED, ConfigError, Value, check_ranges, ranged,
                     ranged_as)
from .pso import PsoConfig, pso_minimize
from .touchdown import PerchOutcome, sweep_envelope

__all__ = [
    "Scenario",
    "RunConfig",
    "LaunchProfile",
    "launch_profile",
    "run_scenario",
    "ConfigError",
    "EXIT_SUCCESS",
    "EXIT_CRITERIA_FAILED",
    "EXIT_CONFIG_ERROR",
]

EXIT_SUCCESS = 0
EXIT_CRITERIA_FAILED = 1
EXIT_CONFIG_ERROR = 2


class Scenario(enum.Enum):
    CLAW_SWEEP = "ClawSweep"
    IMPACT_SUITE = "ImpactSuite"
    FLIGHT_ONLY = "FlightOnly"
    SOFT_BRANCH = "SoftBranch"
    FULL_PERCH = "FullPerch"
    ENVELOPE = "Envelope"
    OPTIMIZE = "Optimize"
    LAUNCHER_PROFILE = "LauncherProfile"


@dataclass(frozen=True)
class LaunchProfile:
    target_speed_mps: float = ranged_as(MissionConfig, "launch_speed_mps")
    rail_length_m: float = ranged(1.6, "(0, inf)")
    lateral_offset_m: float = ranged_as(MissionConfig,
                                        "launch_lateral_offset_m")

    def __post_init__(self):
        check_ranges(self)
        if not math.isfinite(self.acceleration_mps2):
            raise ValueError("LaunchProfile.rail_length_m gives an infinite "
                             f"acceleration, got {self.rail_length_m!r}")

    @property
    def acceleration_mps2(self) -> float:
        """Constant-acceleration rail profile: a = v^2 / (2 L)."""
        return self.target_speed_mps ** 2 / (2.0 * self.rail_length_m)


def launch_profile(*args, **kwargs) -> LaunchProfile:
    """The rail profile ``LaunchProfile(*args, **kwargs)``, for one launch;
    a value it rejects is a `ConfigError`."""
    try:
        return LaunchProfile(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_SECTIONS = {"mission": MissionConfig, "branch": BranchSpec,
             "launcher": LaunchProfile}

# Every key a config file may set.  A key ``section.field`` sets the field
# of that name on the section's class in `_SECTIONS`; a field that no key
# sets keeps its default, unless `READS` gives it a starting value.  The
# launcher takes its speed and lateral offset from the mission's.
OVERRIDES: Tuple[str, ...] = (
    "mission.launch_speed_mps",
    "mission.pitch_setpoint_deg",
    "mission.altitude_setpoint_m",
    "mission.launch_lateral_offset_m",
    "mission.launch_altitude_offset_m",
    "mission.disturbance_sigma_force_n",
    "mission.disturbance_sigma_moment_nm",
    "mission.soft_branch",
    "branch.diameter_m",
    "branch.x_m",
    "branch.z_m",
    "launcher.rail_length_m",
)

# The keys each scenario reads, each with the value it starts from before
# the config file's (None: its field's default).  A field a stage sets is
# not read: stage 2 sets the launch altitude offset and the soft branch,
# stage 3 the soft branch.  FullPerch starts at the default gust level.
_PERCH = [key for key in OVERRIDES if key != "launcher.rail_length_m"]
_SOFT = [key for key in _PERCH if key != "mission.soft_branch"]
READS: Dict[Scenario, Dict[str, Optional[float]]] = {
    Scenario.CLAW_SWEEP: {},
    Scenario.IMPACT_SUITE: {},
    Scenario.FLIGHT_ONLY: dict.fromkeys(
        key for key in _SOFT if key != "mission.launch_altitude_offset_m"),
    Scenario.SOFT_BRANCH: dict.fromkeys(_SOFT),
    Scenario.FULL_PERCH: {
        **dict.fromkeys(_PERCH),
        "mission.disturbance_sigma_force_n": DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
        "mission.disturbance_sigma_moment_nm":
            DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM},
    Scenario.ENVELOPE: {"branch.diameter_m": None},
    Scenario.OPTIMIZE: {},
    Scenario.LAUNCHER_PROFILE: dict.fromkeys((
        "mission.launch_speed_mps", "mission.launch_lateral_offset_m",
        "launcher.rail_length_m")),
}


def _typed(key: str, value: Value):
    """``value`` as the type of the default of the field ``key`` sets: a
    bool, or a finite float (an int is accepted for a float)."""
    section, name = key.split(".")
    kind = type(_SECTIONS[section].__dataclass_fields__[name].default)
    if kind is bool and type(value) is bool:
        return value
    if (kind is float and type(value) in (int, float)
            and abs(value) <= sys.float_info.max):
        return float(value)
    expected = "true or false" if kind is bool else "a finite number"
    raise ConfigError(f"{key} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """One run's scenario, output directory, seed and config-file
    overrides.  The mission and launcher they describe are built here, so
    a scenario rejects a bad value, or a key it does not read, before it
    starts."""

    scenario: Scenario
    out_dir: str = "."
    # FullPerch flies this seed and the next eight (stage 4)
    seed: int = ranged(0, f"[0, {MAX_SEED - len(DEFAULT_SEEDS) + 1}]",
                       integer=True)
    overrides: Dict[str, Value] = field(default_factory=dict)
    # the mission is checked on the full airframe (a development stage may
    # then fix some of its fields)
    mission: MissionConfig = field(init=False)
    launcher: LaunchProfile = field(init=False)

    def __post_init__(self):
        try:
            check_ranges(self)
            unknown = set(self.overrides) - set(OVERRIDES)
            if unknown:
                raise ConfigError(
                    f"unknown config keys: {', '.join(sorted(unknown))}")
            reads = READS[self.scenario]
            unread = set(self.overrides) - set(reads)
            if unread:
                raise ConfigError(f"{self.scenario.value} does not read "
                                  f"config keys: {', '.join(sorted(unread))}")
            starts = {key: start for key, start in reads.items()
                      if start is not None}
            sections = {section: {} for section in _SECTIONS}
            for key, value in {**starts, **self.overrides}.items():
                section, name = key.split(".")
                sections[section][name] = _typed(key, value)
            mission = MissionConfig(branch=BranchSpec(**sections["branch"]),
                                    seed=self.seed, **sections["mission"])
            launcher = LaunchProfile(
                target_speed_mps=mission.launch_speed_mps,
                lateral_offset_m=mission.launch_lateral_offset_m,
                **sections["launcher"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "mission", mission)
        object.__setattr__(self, "launcher", launcher)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence],
               fmt: Callable[[object], str] = _fmt) -> None:
    """A header line, then one line per row of its values written by
    ``fmt``, each line's fields joined by commas.  No field holds a comma,
    quote or line break, so none is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines([",".join(map(fmt, row)) + "\n" for row in rows])


# A scenario's criteria verdict and its own lines of summary.txt, which
# `run_scenario` frames with the scenario's name and the verdict.
Verdict = Tuple[bool, List[str]]


def _write_trajectory(path: Path, result: MissionResult) -> None:
    """One CSV row per control cycle, one column per `TRAJECTORY_COLUMNS`
    name.  ``tolist`` gives the trajectory's values as Python floats, so
    ``repr`` writes each as `_fmt` would, without its per-value call."""
    _write_csv(path, TRAJECTORY_COLUMNS, result.trajectory.tolist(), repr)


def _divergence_lines(result: MissionResult) -> List[str]:
    """The summary line saying when the airframe tumbled, if it did."""
    if result.termination is Termination.DIVERGED:
        return [f"diverged_t_s = {result.end_t_s!r}"]
    return []


def _scenario_claw_sweep(cfg: RunConfig, out: Path) -> Verdict:
    # start above the spike-contact geometric minimum (3.6 cm)
    diameters = np.arange(0.04, 0.1101, 0.005)
    rows = clawmod.diameter_sweep(ROBOT_CLAW, diameters)
    _write_csv(out / "claw_sweep.csv",
               ("diameter_m", "contact_force_n", "holding_torque_nm"), rows)
    branch6 = BranchSpec()
    contact = clawmod.contact_force(ROBOT_CLAW, branch6)
    release = clawmod.release_force(ROBOT_CLAW)
    hold = clawmod.holding_torque(ROBOT_CLAW, branch6)
    ok = (abs(contact - 56.8) / 56.8 <= 0.05
          and abs(release - 11.4) / 11.4 <= 0.15
          and hold >= 2.0)
    return ok, [
        f"contact_force_6cm_n = {contact:.3f}",
        f"release_force_n = {release:.3f}",
        f"holding_torque_nm = {hold:.4f}",
    ]


def _scenario_impact_suite(cfg: RunConfig, out: Path) -> Verdict:
    speeds = np.arange(2.0, 4.01, 0.25)
    misalignments = (-0.03, 0.0, 0.03)
    rows = legmod.impact_sweep(legmod.ROBOT_LEG, speeds, misalignments)
    _write_csv(out / "impact_suite.csv",
               ("speed_mps", "misalignment_m", "peak_force_n",
                "time_to_bounce_ms"), rows)
    peak = max(r[2] for r in rows)
    ok = peak < 150.0
    return ok, [f"max_peak_force_n = {peak:.2f}"]


def _one_mission_stage(stage: int, cfg: RunConfig, out: Path) -> StageReport:
    """Run a development stage that flies one mission; write its trajectory."""
    report = run_stage(stage, cfg.mission)
    _write_trajectory(out / "trajectory.csv", report.missions[0])
    return report


def _scenario_flight_only(cfg: RunConfig, out: Path) -> Verdict:
    report = _one_mission_stage(2, cfg, out)
    return report.passed, [
        f"altitude_error_m = {report.metrics['altitude_error_m']:.4f}",
        *_divergence_lines(report.missions[0]),
    ]


def _scenario_soft_branch(cfg: RunConfig, out: Path) -> Verdict:
    report = _one_mission_stage(3, cfg, out)
    return report.passed, [
        f"locked = {bool(report.metrics['locked'])}",
        f"peak_force_n = {report.metrics['peak_force_n']:.2f}",
        *_divergence_lines(report.missions[0]),
    ]


def _scenario_full_perch(cfg: RunConfig, out: Path) -> Verdict:
    report = run_stage(4, cfg.mission)
    summary_rows = []
    # the stage flies consecutive seeds from the config's
    for seed, result in enumerate(report.missions, start=cfg.seed):
        _write_trajectory(out / f"run_{seed}.csv", result)
        c = result.crossing
        crossing = ((math.nan,) * 5 if c is None else
                    (c.vx_mps, c.yaw_deg, c.pitch_deg, c.y_m, c.altitude_m))
        peak = result.impact.peak_force_n if result.impact else math.nan
        summary_rows.append((seed, result.outcome.value, *crossing, peak))
    _write_csv(out / "ensemble.csv",
               ("seed", "outcome", "vx_mps", "psi_deg", "theta_deg",
                "y_m", "z_m", "peak_force_n"), summary_rows)
    return report.passed, [
        f"perched = {report.metrics['perched']}/{report.metrics['runs']}"]


def _scenario_envelope(cfg: RunConfig, out: Path) -> Verdict:
    hold = clawmod.holding_torque(ROBOT_CLAW, cfg.mission.branch)
    thetas = np.arange(40.0, 90.01, 2.5)
    speeds = np.arange(0.0, 8.01, 0.25)
    psis = np.arange(-25.0, 25.01, 1.0)
    speed_grid, yaw_grid = sweep_envelope(thetas, speeds, psis, hold)
    _write_csv(out / "envelope_speed.csv",
               ("theta_leg_deg", "speed_mps", "outcome"),
               [(float(t), float(v), speed_grid[i, j].value)
                for i, t in enumerate(thetas) for j, v in enumerate(speeds)])
    _write_csv(out / "envelope_yaw.csv",
               ("theta_leg_deg", "psi_branch_deg", "outcome"),
               [(float(t), float(p), yaw_grid[i, j].value)
                for i, t in enumerate(thetas) for j, p in enumerate(psis)])
    perched_any = any(o is PerchOutcome.PERCHED for o in speed_grid.ravel())
    return perched_any, []


def _scenario_optimize(cfg: RunConfig, out: Path) -> Verdict:
    pso_cfg = PsoConfig(bounds=legmod.DESIGN_BOUNDS, particles=20,
                        iterations=25, seed=cfg.seed)
    result = pso_minimize(legmod.leg_cost_batch, pso_cfg)
    _write_csv(out / "pso_log.csv", ("iteration", "best_cost"),
               list(enumerate(result.history)))
    monotone = all(b <= a for a, b in zip(result.history,
                                          result.history[1:]))
    return monotone, [
        f"best_cost = {result.best_cost!r}",
        "best_x = " + " ".join(repr(float(v)) for v in result.best_x),
    ]


def _scenario_launcher_profile(cfg: RunConfig, out: Path) -> Verdict:
    profile = cfg.launcher
    _write_csv(out / "launcher.csv",
               ("target_speed_mps", "rail_length_m", "acceleration_mps2",
                "lateral_offset_m"),
               [(profile.target_speed_mps, profile.rail_length_m,
                 profile.acceleration_mps2, profile.lateral_offset_m)])
    return True, [f"acceleration_mps2 = {profile.acceleration_mps2!r}"]


_SCENARIOS = {
    Scenario.CLAW_SWEEP: _scenario_claw_sweep,
    Scenario.IMPACT_SUITE: _scenario_impact_suite,
    Scenario.FLIGHT_ONLY: _scenario_flight_only,
    Scenario.SOFT_BRANCH: _scenario_soft_branch,
    Scenario.FULL_PERCH: _scenario_full_perch,
    Scenario.ENVELOPE: _scenario_envelope,
    Scenario.OPTIMIZE: _scenario_optimize,
    Scenario.LAUNCHER_PROFILE: _scenario_launcher_profile,
}


def run_scenario(cfg: RunConfig) -> int:
    """Execute one scenario; returns the CLI exit code."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ok, lines = _SCENARIOS[cfg.scenario](cfg, out)
    with open(out / "summary.txt", "w", encoding="utf-8") as handle:
        handle.write("\n".join([f"scenario = {cfg.scenario.value}", *lines,
                                f"criteria_met = {ok}"]) + "\n")
    return EXIT_SUCCESS if ok else EXIT_CRITERIA_FAILED
