"""Flight control stack and perch mission sequencer.

Three parallel loops run at 120 Hz: a pitch PI driving the elevator, a yaw
PID driving the rudder (fed by a lateral guidance law that steers the
launch offset back onto the branch line), and an altitude PID trimming the
flap frequency (the derivative term damps the post-launch zoom climb).  A
fourth loop steers the leg: the line-scan detection is fused with the
along-track range into a branch-height estimate and the hip slews, under
its rate limit, to the angle that puts the claw on the branch.  The flapping
stops for good once the airframe comes within `GLIDE_STOP_RANGE_M` of the
branch, and the flight ends when it reaches the branch's x.

`run_stage` holds the four development stages, each defined once:
launcher-only claw tests (1), flight without the appendage (2), soft-branch
contact (3) and the full perch ensemble (4).  They are run in that order,
each building on the last; the harness scenarios `FlightOnly`, `SoftBranch`
and `FullPerch` run stages 2-4.

A `MissionConfig` holds what a run varies; the robot's fixed parts and the
mission time limit are module constants, read where they are used: the
claw `ROBOT_CLAW` and its spring (`claw.SPRING_*`), `ROBOT_LEG`,
`ROBOT_SENSOR` (one frame per control cycle), the loop gains, hip slew
rate and gust time constant, the touchdown pivot (`touchdown.START_ANGLE_*`,
`ROTATION_BUDGET_DEG`, `YAW_HOLD_POWER`) and `MAX_MISSION_TIME_S`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import MISSING, dataclass, field, replace
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import claw as clawmod
from . import leg as legmod
from .claw import ROBOT_CLAW, BranchSpec
from .config import MAX_SEED, check_ranges, philox_stream, ranged
from .leg import ROBOT_LEG, ImpactRecord
from .perception import (
    PIXELS,
    ROBOT_SENSOR,
    SENSOR_MOUNT_DEG,
    SensorPose,
    detect_branch,
    render_scan,
)
from .plant import (
    AIRFRAME_MASS_KG,
    APPENDAGE_MASS_KG,
    CONTROL_RATE_HZ,
    AttitudeDivergence,
    ControlCommand,
    RobotState,
    plant_step,
    trim_state,
)
from .touchdown import PerchOutcome, TouchdownState, evaluate_touchdown

__all__ = [
    "LoopGains",
    "PidState",
    "pid_step",
    "Termination",
    "MissionConfig",
    "Autopilot",
    "run_mission",
    "run_ensemble",
    "MissionResult",
    "TRAJECTORY_COLUMNS",
    "run_stage",
    "StageReport",
    "DEFAULT_SEEDS",
    "MAX_MISSION_TIME_S",
]

DT = 1.0 / CONTROL_RATE_HZ
DEFAULT_SEEDS = tuple(range(9))
GLIDE_STOP_RANGE_M = 0.2
LAUNCH_SPEED_CAP_MPS = 5.0
# a mission that has not crossed, struck the ground or diverged by then ends
MAX_MISSION_TIME_S = 12.0
# Gust level sized so the default 9-seed ensemble lands near a 6/9 perch
# rate, with the failed runs exiting the crossing-state envelope.
DEFAULT_DISTURBANCE_SIGMA_FORCE_N = 0.2
DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM = 0.003
# correlation time of the first-order gust filter
DISTURBANCE_TAU_S = 0.3
# Sensor noise rows and gust normals are drawn this many frames or cycles at
# a time.  A numpy Generator carries nothing from one call to the next, so a
# block holds the same bits as one draw per frame or cycle.
NOISE_BLOCK_FRAMES = 64
GUST_BLOCK_CYCLES = 128


@dataclass(frozen=True)
class LoopGains:
    kp: float = ranged(MISSING, "(-inf, inf)")
    ki: float = ranged(0.0, "(-inf, inf)")
    kd: float = ranged(0.0, "(-inf, inf)")
    out_min: float = ranged(-20.0, "(-inf, inf)")
    out_max: float = ranged(20.0, "(-inf, inf)")
    integrator_clamp: float = ranged(10.0, "[0, inf)")

    def __post_init__(self):
        check_ranges(self)
        if self.out_min >= self.out_max:
            raise ValueError("output window must be non-empty")
        window = self.out_max - self.out_min
        if self.ki != 0.0 and abs(self.ki) * self.integrator_clamp > window:
            raise ValueError("integrator clamp exceeds the output window")


class PidState(NamedTuple):
    integral: float = 0.0
    prev_error: float = 0.0
    initialized: bool = False


def pid_step(gains: LoopGains, setpoint: float, measurement: float,
             dt: float, state: PidState) -> Tuple[float, PidState]:
    """One PID update with clamped integrator and saturated output."""
    error = setpoint - measurement
    integral = state.integral + error * dt
    integral = min(gains.integrator_clamp, max(-gains.integrator_clamp,
                                               integral))
    derivative = (error - state.prev_error) / dt if state.initialized else 0.0
    u = gains.kp * error + gains.ki * integral + gains.kd * derivative
    u = min(gains.out_max, max(gains.out_min, u))
    return u, PidState(integral, error, True)


class Termination(enum.Enum):
    """How a mission ended."""

    CROSSED = "crossed"  # the airframe reached the branch's x
    GROUND_STRIKE = "ground_strike"
    DIVERGED = "diverged"  # the plant raised `AttitudeDivergence`
    TIMEOUT = "timeout"  # ``MAX_MISSION_TIME_S`` ran out first


# Fixed loop gains.  Stage 2 (`run_stage`) checks them on the light
# airframe: pitch settles within 1 s with under 5 deg overshoot, and the
# altitude error is at most 0.10 m.
DEFAULT_PITCH_GAINS = LoopGains(kp=1.2, ki=1.6, out_min=-20.0, out_max=20.0,
                                integrator_clamp=3.0)
DEFAULT_YAW_GAINS = LoopGains(kp=1.5, ki=0.2, kd=0.4, out_min=-20.0,
                              out_max=20.0, integrator_clamp=10.0)
DEFAULT_ALT_GAINS = LoopGains(kp=1.0, ki=0.1, kd=3.0, out_min=-4.5,
                              out_max=4.5, integrator_clamp=2.0)
LATERAL_GAIN_DEG_PER_M = 17.0
# Aim point left of the branch centerline: the cross-track envelope observed
# in flight is asymmetric, so biasing the track keeps gusty runs inside it.
LATERAL_AIM_M = -0.06
YAW_SETPOINT_LIMIT_DEG = 8.0
# the fastest the leg loop slews the hip command
HIP_SLEW_RATE_DPS = 60.0
# the hip angle a mission launches at, and its leg command's first value
HIP_START_DEG = 45.0


@dataclass(frozen=True)
class MissionConfig:
    launch_speed_mps: float = ranged(4.0, f"[0, {LAUNCH_SPEED_CAP_MPS}]")
    pitch_setpoint_deg: float = ranged(30.0, "[0, 45]")
    altitude_setpoint_m: float = ranged(2.0, "(0, 5)")
    branch: BranchSpec = field(default_factory=BranchSpec)
    mass_kg: float = ranged(AIRFRAME_MASS_KG, "(0, inf)")
    seed: int = ranged(0, f"[0, {MAX_SEED}]", integer=True)
    disturbance_sigma_force_n: float = ranged(0.0, "[0, inf)")
    disturbance_sigma_moment_nm: float = ranged(0.0, "[0, inf)")
    launch_lateral_offset_m: float = ranged(0.4, "(-inf, inf)")
    launch_altitude_offset_m: float = ranged(-0.17, "(-inf, inf)")
    soft_branch: bool = False

    def __post_init__(self):
        check_ranges(self)
        if trim_state(self.pitch_setpoint_deg, self.mass_kg) is None:
            raise ValueError(f"pitch setpoint {self.pitch_setpoint_deg} deg "
                             "has no trim point")
        if self.branch.diameter_m < ROBOT_CLAW.min_spike_diameter_m:
            raise ValueError("branch diameter below the claw's spike-contact "
                             f"minimum {ROBOT_CLAW.min_spike_diameter_m} m")
        # too wide a branch closes the claw short of its snap angle, or past
        # its travel, and a touchdown could not be classified
        try:
            hold = clawmod.holding_torque(ROBOT_CLAW, self.branch)
        except ValueError as exc:
            raise ValueError(f"branch diameter {self.branch.diameter_m} m: "
                             f"{exc}") from exc
        if not hold >= 0.0:
            raise ValueError(f"branch diameter {self.branch.diameter_m} m "
                             f"gives the claw a holding torque of {hold} N*m; "
                             "it must be non-negative")


# The columns of a mission's trajectory, in order: one control cycle's
# record, and the trajectory CSV's header.  `MissionResult.trajectory` holds
# the rows as one float64 array.
TRAJECTORY_COLUMNS = ("t_s", "x_m", "y_m", "z_m", "vx_mps", "theta_deg",
                      "psi_deg", "flap_hz", "delta_e_deg", "delta_r_deg",
                      "beta_deg")


@dataclass
class MissionResult:
    """One mission.  ``trajectory`` is a C-contiguous float64 array of shape
    ``(cycles, 11)``, one row per control cycle flown and one column per
    name in `TRAJECTORY_COLUMNS`, in its order, 88 B a row.

    ``end_t_s`` is the end of the last plant step flown or tried: for a
    divergence, that of the step that diverged.  ``crossing`` and ``impact``
    are None, ``altitude_error_m`` is inf and ``claw_misalignment_m`` NaN
    unless the mission ``CROSSED``."""

    trajectory: np.ndarray
    impact: Optional[ImpactRecord]
    outcome: PerchOutcome
    crossing: Optional[RobotState]
    termination: Termination
    end_t_s: float
    altitude_error_m: float
    claw_misalignment_m: float


class Autopilot:
    """Loop states plus the flap-cut latch for one mission run."""

    def __init__(self, config: MissionConfig):
        self.config = config
        self.trim_speed, self.trim_flap = trim_state(
            config.pitch_setpoint_deg, config.mass_kg)
        self.pitch_pid = PidState()
        self.yaw_pid = PidState()
        self.alt_pid = PidState()
        self.beta_cmd = HIP_START_DEG
        self.branch_z_est: Optional[float] = None
        self.flapping = True
        self.noise_rows = _noise_rows(philox_stream(config.seed, 1),
                                      ROBOT_SENSOR.noise_sigma)

    def _update_leg(self, state: RobotState, rng_m: float) -> None:
        """Steer the hip so the claw meets the branch height.

        The leg-mounted sensor reports the branch bearing as a pixel offset
        from the boresight.  Fusing that bearing with the along-track range
        ``rng_m`` gives a branch-height estimate, from which the hip angle
        that places the claw on the branch follows directly; the command
        slews there under the hip rate limit.  At very short range the bearing geometry
        degenerates, so the last estimate is held.
        """
        cfg = self.config
        boresight = math.radians(state.beta_deg - SENSOR_MOUNT_DEG)
        claw_z = state.claw_z_m(ROBOT_LEG.link_length_m)
        pose = SensorPose(state.x_m, claw_z, boresight)
        frame = render_scan(pose, cfg.branch, ROBOT_SENSOR,
                            next(self.noise_rows))
        det = detect_branch(frame, ROBOT_SENSOR)
        if det is not None and rng_m > 0.05:
            elevation = boresight + ROBOT_SENSOR.pixel_angle_rad(det)
            self.branch_z_est = claw_z + rng_m * math.tan(elevation)
        if self.branch_z_est is None:
            return
        cos_target = (state.altitude_m - self.branch_z_est) \
            / ROBOT_LEG.link_length_m
        cos_target = min(1.0, max(-1.0, cos_target))
        beta_target = math.degrees(math.acos(cos_target))
        max_step = HIP_SLEW_RATE_DPS * DT
        step = beta_target - self.beta_cmd
        step = min(max_step, max(-max_step, step))
        self.beta_cmd = min(90.0, max(0.0, self.beta_cmd + step))

    def control_cycle(self, state: RobotState) -> ControlCommand:
        """One 120 Hz command, the leg steered in each.  The flapping stops
        for good once the range to the branch is `GLIDE_STOP_RANGE_M` or
        less."""
        cfg = self.config
        rng_m = cfg.branch.x_m - state.x_m
        if rng_m <= GLIDE_STOP_RANGE_M:
            self.flapping = False
        delta_e, self.pitch_pid = pid_step(
            DEFAULT_PITCH_GAINS, cfg.pitch_setpoint_deg, state.pitch_deg,
            DT, self.pitch_pid)

        yaw_sp = -LATERAL_GAIN_DEG_PER_M * (state.y_m - LATERAL_AIM_M)
        yaw_sp = min(YAW_SETPOINT_LIMIT_DEG, max(-YAW_SETPOINT_LIMIT_DEG,
                                                 yaw_sp))
        delta_r, self.yaw_pid = pid_step(
            DEFAULT_YAW_GAINS, yaw_sp, state.yaw_deg, DT, self.yaw_pid)

        flap_corr, self.alt_pid = pid_step(
            DEFAULT_ALT_GAINS, cfg.altitude_setpoint_m, state.altitude_m,
            DT, self.alt_pid)
        flap = self.trim_flap + flap_corr if self.flapping else 0.0
        self._update_leg(state, rng_m)

        return ControlCommand.limited(delta_e, delta_r, flap, self.beta_cmd)


def _noise_rows(rng: np.random.Generator,
                sigma: float) -> Iterator[np.ndarray]:
    """Sensor noise, one row of ``PIXELS`` N(0, sigma) draws per frame,
    drawn ``NOISE_BLOCK_FRAMES`` rows at a time."""
    while True:
        yield from rng.normal(0.0, sigma, (NOISE_BLOCK_FRAMES, PIXELS))


class _Disturbance:
    """Band-limited random force/moment perturbations, one stream per run.

    Gust loading is weighted toward the vertical axis: updrafts and sinks
    dominate the terminal-accuracy budget of a slow flyer, while along-track
    and lateral gusts are largely rejected by the speed and heading loops.
    """

    AXIS_WEIGHT = (0.1, 0.25, 1.0)

    def __init__(self, config: MissionConfig):
        self.normals = _gust_normals(philox_stream(config.seed, 2))
        self.rho = math.exp(-DT / DISTURBANCE_TAU_S)
        scale = math.sqrt(1.0 - self.rho * self.rho)
        # per-axis innovation gains, associated as ((sigma*scale)*weight)*noise
        self.force_gain = tuple(config.disturbance_sigma_force_n * scale * w
                                for w in self.AXIS_WEIGHT)
        self.moment_gain = config.disturbance_sigma_moment_nm * scale
        self.force = (0.0, 0.0, 0.0)
        self.moment = (0.0, 0.0)

    def step(self) -> Tuple[Tuple[float, float, float], Tuple[float, float]]:
        rho = self.rho
        n0, n1, n2, n3, n4 = next(self.normals)
        f0, f1, f2 = self.force
        g0, g1, g2 = self.force_gain
        m0, m1 = self.moment
        gm = self.moment_gain
        self.force = (rho * f0 + g0 * n0, rho * f1 + g1 * n1,
                      rho * f2 + g2 * n2)
        self.moment = (rho * m0 + gm * n3, rho * m1 + gm * n4)
        return self.force, self.moment


def _gust_normals(rng: np.random.Generator) -> Iterator[List[float]]:
    """Five standard normals per cycle (three force axes, then two
    moments), drawn ``GUST_BLOCK_CYCLES`` cycles at a time."""
    while True:
        yield from rng.standard_normal((GUST_BLOCK_CYCLES, 5)).tolist()


def run_mission(config: MissionConfig) -> MissionResult:
    """Fly one closed-loop perch mission; deterministic per seed."""
    ap = Autopilot(config)
    disturbance = _Disturbance(config)
    state = RobotState(
        x_m=0.0,
        y_m=config.launch_lateral_offset_m,
        z_m=config.altitude_setpoint_m + config.launch_altitude_offset_m,
        vx_mps=config.launch_speed_mps,
        pitch_deg=0.0,
        beta_deg=HIP_START_DEG,
    )
    rows: List[Tuple[float, ...]] = []
    termination = Termination.TIMEOUT
    t = 0.0
    n_max = int(MAX_MISSION_TIME_S / DT)
    for _ in range(n_max):
        if config.branch.x_m - state.x_m <= 0.0:
            termination = Termination.CROSSED
            break
        cmd = ap.control_cycle(state)
        force, moment = disturbance.step()
        t += DT
        try:
            state = plant_step(state, cmd, config.mass_kg, DT,
                               ext_force=force, ext_moment=moment)
        except AttitudeDivergence:
            termination = Termination.DIVERGED
            break
        rows.append((
            t, state.x_m, state.y_m, state.altitude_m, state.vx_mps,
            state.pitch_deg, state.yaw_deg, cmd.flap_hz, cmd.delta_e_deg,
            cmd.delta_r_deg, state.beta_deg))
        if state.on_ground:
            termination = Termination.GROUND_STRIKE
            break
    crossing = state if termination is Termination.CROSSED else None
    impact = None
    outcome = PerchOutcome.MISSED
    altitude_error = math.inf
    claw_mis = math.nan
    if crossing is not None:
        claw_mis = (config.branch.z_m
                    - crossing.claw_z_m(ROBOT_LEG.link_length_m))
        impact = legmod.simulate_impact(
            ROBOT_LEG,
            total_mass_kg=config.mass_kg,
            speed_mps=min(legmod.MAX_IMPACT_SPEED_MPS,
                          max(0.0, crossing.vx_mps)),
            misalignment_z_m=claw_mis,
        )
        if config.soft_branch:
            impact = replace(impact, locked=False)
        elif impact.locked:
            # the branch is square to the track: the airframe's yaw is the
            # touchdown's yaw against it
            hold = clawmod.holding_torque(ROBOT_CLAW, config.branch)
            outcome = evaluate_touchdown(TouchdownState(
                speed_mps=max(0.0, crossing.vx_mps),
                theta_leg_deg=min(90.0, max(0.0, crossing.beta_deg)),
                psi_branch_deg=crossing.yaw_deg,
                body_pitch_deg=crossing.pitch_deg,
                mass_kg=config.mass_kg), hold)
        altitude_error = abs(crossing.altitude_m - config.altitude_setpoint_m)
    # the reshape also gives a mission that flew no cycle its 11 columns
    trajectory = np.array(rows, dtype=float).reshape(
        -1, len(TRAJECTORY_COLUMNS))
    return MissionResult(trajectory=trajectory, impact=impact,
                         outcome=outcome, crossing=crossing,
                         termination=termination, end_t_s=t,
                         altitude_error_m=altitude_error,
                         claw_misalignment_m=claw_mis)


def run_ensemble(
    config: Optional[MissionConfig] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> List[MissionResult]:
    """Run the seeded disturbance ensemble: ``config`` as given, or with no
    config, `MissionConfig` at the default gust level."""
    base = config if config is not None else MissionConfig(
        disturbance_sigma_force_n=DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
        disturbance_sigma_moment_nm=DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM)
    # every seed is checked before the first mission flies
    configs = [replace(base, seed=s) for s in seeds]
    return [run_mission(c) for c in configs]


@dataclass
class StageReport:
    stage: int
    passed: bool
    metrics: Dict[str, float]
    missions: List[MissionResult] = field(default_factory=list)


def run_stage(stage: int, config: MissionConfig) -> StageReport:
    """Run one development stage on ``config``.

    The stage's own mission fields win over the config's; every other field,
    the gusts included, is the config's.
    """
    if stage not in (1, 2, 3, 4):
        raise ValueError("stage must be 1-4")

    if stage == 1:
        # launcher-only claw tests, 1 m/s up to the launch speed cap in 0.5 m/s
        # steps (the quarter-step margin keeps the cap itself on the grid)
        speeds = np.arange(1.0, LAUNCH_SPEED_CAP_MPS + 0.25, 0.5)
        locks = [legmod.simulate_impact(ROBOT_LEG,
                                        total_mass_kg=config.mass_kg,
                                        speed_mps=float(v),
                                        misalignment_z_m=0.0).locked
                 for v in speeds]
        rate = sum(locks) / len(locks)
        return StageReport(1, rate == 1.0,
                           {"lock_rate": rate,
                            "max_speed_mps": LAUNCH_SPEED_CAP_MPS})

    if stage == 2:
        # Flight without the leg/claw appendage.  The lighter airframe flies
        # a slower trim, so the launcher is set lower to absorb the larger
        # post-launch zoom climb (re-tuned for this stage, like the launcher
        # height would be on the field).
        if not config.mass_kg > APPENDAGE_MASS_KG:
            raise ValueError(
                f"stage 2 flies the airframe without its {APPENDAGE_MASS_KG} "
                f"kg appendage, so its mass_kg {config.mass_kg} kg must "
                "exceed that")
        cfg = replace(config, mass_kg=config.mass_kg - APPENDAGE_MASS_KG,
                      soft_branch=True, launch_altitude_offset_m=-0.26)
        result = run_mission(cfg)
        settle = _pitch_settle_metrics(cfg)
        alt_err = result.altitude_error_m
        passed = (settle["settle_s"] <= 1.0 and settle["overshoot_deg"] < 5.0
                  and alt_err <= 0.10)
        return StageReport(2, passed, {**settle, "altitude_error_m": alt_err},
                           [result])

    if stage == 3:
        # soft mock branch: the leg must touch it (a crossing that misses
        # the branch loads the leg with no force), the claw must not lock
        result = run_mission(replace(config, soft_branch=True))
        impact = result.impact
        locked = bool(impact and impact.locked)
        peak = impact.peak_force_n if impact else math.nan
        return StageReport(3, impact is not None and not locked and peak > 0.0,
                           {"locked": float(locked), "peak_force_n": peak},
                           [result])

    # stage 4: full perch ensemble, nine seeds from the config's
    results = run_ensemble(config, seeds=range(
        config.seed, config.seed + len(DEFAULT_SEEDS)))
    perched = sum(r.outcome is PerchOutcome.PERCHED for r in results)
    return StageReport(4, perched >= 6, {"perched": perched,
                                         "runs": len(results)}, results)


def _pitch_settle_metrics(config: MissionConfig) -> Dict[str, float]:
    """Closed-loop pitch step 0 -> setpoint on the configured plant, flown by
    the pitch loop alone.  The pitch dynamics read only the elevator, so the
    flap holds its trim, the rudder 0 and the hip `HIP_START_DEG`."""
    trim_speed, trim_flap = trim_state(config.pitch_setpoint_deg,
                                       config.mass_kg)
    state = RobotState(z_m=config.altitude_setpoint_m, vx_mps=trim_speed,
                       pitch_deg=0.0)
    target = config.pitch_setpoint_deg
    pid = PidState()
    settle_s = math.inf
    overshoot = 0.0
    t = 0.0
    for _ in range(int(3.0 / DT)):
        delta_e, pid = pid_step(DEFAULT_PITCH_GAINS, target, state.pitch_deg,
                                DT, pid)
        cmd = ControlCommand.limited(delta_e, 0.0, trim_flap, HIP_START_DEG)
        state = plant_step(state, cmd, config.mass_kg, DT)
        t += DT
        overshoot = max(overshoot, state.pitch_deg - target)
        if abs(state.pitch_deg - target) <= 0.05 * target:
            if settle_s is math.inf:
                settle_s = t
        else:
            settle_s = math.inf
    return {"settle_s": settle_s, "overshoot_deg": overshoot}
