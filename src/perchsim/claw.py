"""Bistable double-plate claw: torque landscape, snap-through, locking and re-opening.

The claw is a pair of carbon-fiber plate halves pivoting about points spaced
``d_e`` apart.  A single tension spring anchored between a point on the claw
and a point on the frame creates two stable states: the spring line of action
sits behind the pivot in the open position (small opening torque) and swings
in front of it past the snap angle, slamming the claw shut onto the branch.

Angles are in degrees, claw-local lengths in mm, branch diameters in m.
All functions are pure and geometry objects are value types.  The spring
is the robot's one linear tension spring, two module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

from .config import check_ranges, ranged

__all__ = [
    "ClawGeometry",
    "BranchSpec",
    "BranchSurface",
    "ROBOT_CLAW",
    "ClawState",
    "GeometryNotBistableError",
    "NoSpikeContactError",
    "StalledClawError",
    "CannotReopenError",
    "spring_extension",
    "spring_potential",
    "claw_torque",
    "snap_angle",
    "release_force",
    "closed_angle",
    "contact_force",
    "holding_torque",
    "closing_dynamics",
    "reopen_profile",
    "diameter_sweep",
]


class GeometryNotBistableError(ValueError):
    """Claw torque has no sign change between open and closed angles."""


class NoSpikeContactError(ValueError):
    """Branch too thin to reach the spikes given the pivot spacing."""


class StalledClawError(RuntimeError):
    """Closing integration did not reach the closed angle within 1 s."""


class CannotReopenError(RuntimeError):
    """Tendon force required along the re-opening path exceeds capacity."""


# The claw's linear tension spring: zero preload, no force below its free
# length.
SPRING_FREE_LENGTH_MM = 40.0
SPRING_RATE_N_PER_MM = 5.0


class BranchSurface(Enum):
    BARE_CARBON = "bare_carbon"
    SPIKES_ONLY = "spikes_only"
    SPIKES_PLUS_PADS = "spikes_plus_pads"


# The nominal branch diameter, m, on which the claw is calibrated, and the
# effective Coulomb coefficients per claw-branch interface: the pads value
# makes the locked claw hold 2.0 N*m on the nominal branch.
NOMINAL_BRANCH_DIAMETER_M = 0.06
MU_EFF_DEFAULTS = {
    BranchSurface.BARE_CARBON: 0.35,
    BranchSurface.SPIKES_ONLY: 0.70,
    BranchSurface.SPIKES_PLUS_PADS: 0.803,
}


@dataclass(frozen=True)
class BranchSpec:
    """Cylindrical branch target, square to the flight line and infinite
    along y: its axis crosses that line at ``x_m`` from the launch point, at
    height ``z_m``.  A mission crosses it at ``x_m`` whatever its y, so
    acceptance check c06's ``y_m`` envelope is the only lateral check."""

    diameter_m: float = ranged(NOMINAL_BRANCH_DIAMETER_M, "(0, inf)")
    x_m: float = ranged(14.0, "(-inf, inf)")
    z_m: float = ranged(2.0, "(-inf, inf)")
    surface: BranchSurface = BranchSurface.SPIKES_PLUS_PADS

    __post_init__ = check_ranges


@dataclass(frozen=True)
class ClawGeometry:
    """Kinematic and elastic parameters of one claw half.

    The spring anchor on the claw is given in claw coordinates at psi = 0 and
    rotates with the claw about the pivot (origin).  The frame anchor is
    fixed.  Contact lever and closure-slope values are calibrated once so the
    closed claw applies 56.8 N on a 6 cm branch while the open-state torque
    stays below 0.2 N*m (see demos/calibrate_claw.py).
    """

    d_s: float = 18.8106662315467       # straight contact segment, mm (= contact lever at 6 cm)
    d_e: float = ranged(50.0, "(0, inf)")  # pivot spacing, mm
    psi_open: float = -4.0              # open rest angle, deg
    psi_closed: float = 55.0            # closed angle on the 6 cm branch, deg
    trigger_lever: float = ranged(17.5, "(0, inf)")  # pivot to trigger, mm
    spring_anchor_claw: Tuple[float, float] = (1.438252865486829, 29.965503978657175)
    spring_anchor_frame: Tuple[float, float] = (0.0, -32.0)
    claw_inertia: float = ranged(3.2e-5, "(0, inf)")  # kg*m^2 about the pivot
    spike_offset: float = 7.0           # mm, spike stand-off from the pivot line
    grip_offset_mm: float = 32.0        # lateral half-spacing of the spike pair
    tendon_lever_mm: float = 12.0       # tendon moment arm for re-opening
    closure_slope_deg_per_m: float = 328.6651224251492
    contact_lever_slope: float = 0.07126648047343506
    contact_lever_hinge: float = 0.1    # extra lever growth beyond 7 cm, m/m

    def __post_init__(self):
        check_ranges(self)
        if self.psi_open >= 0 and self.psi_closed > 0:
            raise ValueError("open rest angle must be negative (spring behind pivot)")

    @property
    def min_spike_diameter_m(self) -> float:
        """Thinnest branch that still reaches both spikes."""
        return (self.d_e - 2.0 * self.spike_offset) / 1000.0

    @property
    def psi_travel_max(self) -> float:
        """Mechanical travel limit: closed angle on the thinnest grippable branch."""
        extra = self.closure_slope_deg_per_m * (
            NOMINAL_BRANCH_DIAMETER_M - self.min_spike_diameter_m)
        return max(self.psi_open, self.psi_closed) + max(0.0, extra)


# The robot's claw: every mission, scenario and stage reads it.
ROBOT_CLAW = ClawGeometry()


@dataclass(frozen=True)
class ClawState:
    psi_deg: float
    psi_rate_dps: float


def _anchor_world(geom: ClawGeometry, psi_deg: float) -> Tuple[float, float]:
    c = math.cos(math.radians(psi_deg))
    s = math.sin(math.radians(psi_deg))
    ax, ay = geom.spring_anchor_claw
    return (c * ax - s * ay, s * ax + c * ay)


def spring_extension(geom: ClawGeometry, psi_deg: float) -> float:
    """Spring extension in mm at claw angle psi."""
    ax, ay = _anchor_world(geom, psi_deg)
    bx, by = geom.spring_anchor_frame
    return math.hypot(bx - ax, by - ay) - SPRING_FREE_LENGTH_MM


def spring_potential(geom: ClawGeometry, psi_deg: float) -> float:
    """Stored elastic energy in J at claw angle psi."""
    ext_m = max(0.0, spring_extension(geom, psi_deg)) / 1000.0
    rate_n_per_m = SPRING_RATE_N_PER_MM * 1000.0
    return 0.5 * rate_n_per_m * ext_m * ext_m


def claw_torque(geom: ClawGeometry, psi_deg: float) -> float:
    """Spring torque about the pivot in N*m, positive in the closing direction.

    Negative before the snap angle (holds the claw open), positive after it.
    """
    lo = min(geom.psi_open, geom.psi_closed)
    hi = geom.psi_travel_max
    if not (lo - 1e-9 <= psi_deg <= hi + 1e-9):
        raise ValueError(
            f"psi={psi_deg} deg outside travel range [{lo}, {hi}]"
        )
    ax, ay = _anchor_world(geom, psi_deg)
    bx, by = geom.spring_anchor_frame
    sx, sy = bx - ax, by - ay
    length = math.hypot(sx, sy)
    ext = length - SPRING_FREE_LENGTH_MM
    if ext <= 0.0:
        return 0.0
    force = SPRING_RATE_N_PER_MM * ext  # N (unclamped: torque model, not reporting)
    fx, fy = force * sx / length, force * sy / length
    torque_n_mm = ax * fy - ay * fx
    return torque_n_mm / 1000.0


def snap_angle(geom: ClawGeometry) -> float:
    """Unique zero of the claw torque between the open and closed angles.

    Found by a 0.1 deg sign scan followed by bisection to 1e-6 deg.
    Returns the open angle itself for the degenerate geometry whose spring
    line passes through the pivot at rest.  Raises GeometryNotBistableError
    when no sign change exists.
    """
    lo, hi = sorted((geom.psi_open, geom.psi_closed))
    n = max(8, int(math.ceil((hi - lo) / 0.1)))
    psis = [lo + (hi - lo) * i / n for i in range(n + 1)]
    torques = [claw_torque(geom, p) for p in psis]
    bracket = None
    for i in range(n):
        if torques[i] * torques[i + 1] < 0.0:
            bracket = (psis[i], psis[i + 1])
            break
    if bracket is None:
        if abs(torques[0]) < 1e-9 and max(abs(t) for t in torques) > 1e-9:
            return lo  # degenerate: snap collapsed onto the open stop
        raise GeometryNotBistableError("claw torque does not change sign")
    a, b = bracket
    fa = claw_torque(geom, a)
    while b - a > 1e-6:
        m = 0.5 * (a + b)
        fm = claw_torque(geom, m)
        if fa * fm <= 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def release_force(geom: ClawGeometry) -> float:
    """Force at the trigger tip needed to initiate closing from rest, N."""
    torque_open = claw_torque(geom, geom.psi_open)
    return abs(torque_open) / (geom.trigger_lever / 1000.0)


def closed_angle(geom: ClawGeometry, diameter_m: float) -> float:
    """Claw angle when locked on a branch of the given diameter, deg."""
    return geom.psi_closed - geom.closure_slope_deg_per_m * (
        diameter_m - NOMINAL_BRANCH_DIAMETER_M)


def _contact_lever_m(geom: ClawGeometry, diameter_m: float) -> float:
    lever = geom.d_s / 1000.0 + geom.contact_lever_slope * (
        diameter_m - NOMINAL_BRANCH_DIAMETER_M)
    lever += geom.contact_lever_hinge * max(0.0, diameter_m - 0.07)
    return lever


def contact_force(geom: ClawGeometry, branch: BranchSpec) -> float:
    """Normal force pressed onto the branch by the locked claw, N."""
    d = branch.diameter_m
    if d < geom.min_spike_diameter_m:
        raise NoSpikeContactError(
            f"branch diameter {d} m below spike-contact minimum "
            f"{geom.min_spike_diameter_m} m"
        )
    psi_c = closed_angle(geom, d)
    return claw_torque(geom, psi_c) / _contact_lever_m(geom, d)


def holding_torque(geom: ClawGeometry, branch: BranchSpec) -> float:
    """Slip-limited torque the locked claw resists about the branch axis, N*m."""
    normal = contact_force(geom, branch)
    grip_radius = math.hypot(geom.grip_offset_mm / 1000.0, branch.diameter_m / 2.0)
    return MU_EFF_DEFAULTS[branch.surface] * normal * grip_radius


def closing_dynamics(
    geom: ClawGeometry,
    damping: float = 30.0,
) -> Tuple[Tuple[ClawState, ClawState], float]:
    """Integrate the snap-through closing motion; returns ((trigger state,
    locked state), close_time_ms).

    Rigid-body rotation psi'' = tau(psi)/I - c*psi' (RK4, 10 us step).  The
    branch trigger carries the claw 0.5 deg past the snap angle, so
    integration starts there at rest.  Close time is the first time psi
    reaches the nominal closed angle.  A non-finite or negative damping
    raises ``ValueError``.
    """
    if not 0.0 <= damping < math.inf:
        raise ValueError(f"damping must be finite and >= 0, got {damping!r}")
    dt = 1e-5
    inertia = geom.claw_inertia
    psi_closed = math.radians(geom.psi_closed)
    psi = math.radians(snap_angle(geom) + 0.5)
    rate = 0.0
    t = 0.0

    def accel(p: float, v: float) -> float:
        return claw_torque(geom, math.degrees(p)) / inertia - damping * v

    trigger = ClawState(math.degrees(psi), 0.0)
    while psi < psi_closed:
        if t >= 1.0:
            raise StalledClawError("claw did not close within 1 s of simulated time")
        k1p, k1v = rate, accel(psi, rate)
        k2p, k2v = rate + 0.5 * dt * k1v, accel(psi + 0.5 * dt * k1p, rate + 0.5 * dt * k1v)
        k3p, k3v = rate + 0.5 * dt * k2v, accel(psi + 0.5 * dt * k2p, rate + 0.5 * dt * k2v)
        k4p, k4v = rate + dt * k3v, accel(psi + dt * k3p, rate + dt * k3v)
        psi += dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        rate += dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        t += dt
    psi = min(psi, psi_closed + 1e-12)
    locked = ClawState(math.degrees(psi), math.degrees(rate))
    return (trigger, locked), t * 1000.0


def reopen_profile(
    pull_capacity_n: float = 200.0,
    travel_mm: float = 40.0,
    speed_mm_s: float = 2.0,
    geom: ClawGeometry = ROBOT_CLAW,
) -> Tuple[float, float, float]:
    """Tendon re-opening: returns (duration_s, avg_power_w, peak_tendon_force_n).

    The leadscrew carriage travel maps linearly onto the claw angle from
    closed back past the snap point.  Motor-side losses dominate through the
    high-reduction drive, so total electrical work scales with travel and the
    average power follows work / duration.
    """
    if not (0.0 <= travel_mm < math.inf and 0.0 < speed_mm_s < math.inf):
        raise ValueError("travel must be finite and >= 0, and speed finite "
                         "and positive")
    if math.isnan(pull_capacity_n):
        raise ValueError("pull capacity must not be NaN")
    if travel_mm == 0.0:
        return (0.0, 0.0, 0.0)
    snap = snap_angle(geom)
    lever_m = geom.tendon_lever_mm / 1000.0
    n = 200
    peak = 0.0
    for i in range(n + 1):
        psi = snap + (geom.psi_closed - snap) * i / n
        peak = max(peak, claw_torque(geom, psi) / lever_m)
    if peak > pull_capacity_n:
        raise CannotReopenError(
            f"peak tendon force {peak:.1f} N exceeds capacity {pull_capacity_n} N"
        )
    duration_s = travel_mm / speed_mm_s
    work_mech = (spring_potential(geom, snap)
                 - spring_potential(geom, geom.psi_closed))
    # the drive passes 0.993% of its electrical work to the spring
    work_total = max(0.0, work_mech) / 0.00993
    avg_power_w = work_total / duration_s
    return (duration_s, avg_power_w, peak)


def diameter_sweep(
    geom: ClawGeometry,
    diameters_m,
) -> List[Tuple[float, float, float]]:
    """(diameter_m, contact_force_N, holding_torque_Nm) rows for a sweep
    over branches with the default surface; each diameter as given."""
    rows = []
    for d in diameters_m:
        branch = BranchSpec(diameter_m=d)
        rows.append(
            (d, contact_force(geom, branch), holding_torque(geom, branch))
        )
    return rows
