"""Touchdown classification and perching success envelopes.

After the claw locks, the robot pivots about the branch like an inverted
pendulum: the center of mass starts behind the vertical through the branch
and the impact momentum rotates it forward while Coulomb friction from the
claw grip dissipates energy.  Stopping too far back leaves a gravity torque
the grip cannot hold (backward fall); sweeping past the rotation budget
tears the grip loose (forward fall); anything between is a perch.

The classifier walks the energy balance in closed form; tests compare it
against a brute-force integration of the pivot ODE.

A ``TouchdownState`` holds the five values a crossing gives, for a claw
that has locked; the pivot's lever arm, inertia, start angle, rotation
budget and yaw hold law are module constants.

The stop angle is found by bisection, but the outcome only needs to know
which side of the hold torque the gravity torque at the stop angle falls
on.  Each later bracket nests inside the current ``[lo, hi]``, so the final
stop angle ``delta0 - (lo + hi)/2`` lies in ``[delta0 - hi, delta0 - lo]``.
Where both ends of that interval have the same sign and lie inside
(-pi/2, pi/2), the gravity torque ``mgr sin|d|`` is monotone over it, so
the two ends bound the torque at every stop angle the full bisection could
return.  Once both sit on the same side of the hold, the bisection ends and
the midpoint of its bracket, one of those angles, is classified instead.
The comparison keeps a relative margin of ``_HOLD_MARGIN`` on the hold, so
the early exit gives the same outcome as the full bisection as long as
libm's ``sin`` is within 1 ULP of the true sine, which increases on
[0, pi/2].  Brackets within the margin, or straddling 0 or +-pi/2, run to
convergence.  The argument needs finite angles: ``TouchdownState`` holds
finite fields, and ``evaluate_touchdown`` rejects a start angle outside
[-180, 180] deg, which finite fields can still give.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .config import check_ranges, ranged
from .plant import AIRFRAME_MASS_KG, GRAVITY

__all__ = [
    "TouchdownState",
    "PerchOutcome",
    "evaluate_touchdown",
    "sweep_envelope",
]

# Relative margin on the hold torque for the bisection's early exit.  A few
# ULP would cover libm's sin and the rounding of the torque product; a
# bracket this close to the hold runs to convergence instead.
_HOLD_MARGIN = 1e-12
_HALF_PI = 0.5 * math.pi

# CoM lever arm about the branch, and the inertia about it of two point
# masses, body and leg
COM_OFFSET_M = 0.35
INERTIA_KGM2 = 0.0898

# The CoM's start angle behind vertical-up: the base is for a horizontal leg
# at 30 deg pitch, and a more vertical leg (per degree below 90 of
# theta_leg) or a steeper pitch trails the body further back
START_ANGLE_BASE_DEG = 58.5
START_ANGLE_PER_LEG_DEG = 0.25
START_ANGLE_PER_PITCH_DEG = 0.5
# how far the grip can wrap before it slips off
ROTATION_BUDGET_DEG = 60.0
# a yawed branch holds hold * cos(psi) ** YAW_HOLD_POWER
YAW_HOLD_POWER = 2.0


class PerchOutcome(enum.Enum):
    MISSED = "Missed"
    FALL_FORWARD = "FallForward"
    PERCHED = "Perched"
    FALL_BACKWARD = "FallBackward"


@dataclass(frozen=True)
class TouchdownState:
    """Kinematic state at the moment the claw locks."""

    speed_mps: float = ranged(2.5, "[0, inf)")
    theta_leg_deg: float = ranged(90.0, "[0, 90]")  # 90 = leg horizontal
    psi_branch_deg: float = ranged(0.0, "(-inf, inf)")  # branch yaw deviation
    body_pitch_deg: float = ranged(30.0, "(-inf, inf)")
    mass_kg: float = ranged(AIRFRAME_MASS_KG, "(0, inf)")

    __post_init__ = check_ranges


def _stop_rotation(delta0: float, cos0: float, budget: float, mgr: float,
                   hold: float, energy: float, perch_below: float,
                   slip_above: float) -> float:
    """Forward rotation from the start angle ``delta0`` (``cos0`` is its
    cosine) at which the absorbed work, gravity climb toward the top plus
    Coulomb friction, meets ``energy``: bisection on [0, ``budget``].

    Returns the midpoint of the last bracket.  Every fourth pass the
    bisection ends early if the gravity torque at every stop angle its
    bracket still holds is above ``slip_above``, or every one is below
    ``perch_below``; with infinite bounds it runs to its fixed point.
    """
    lo, hi = 0.0, budget
    for i in range(80):
        mid = 0.5 * (lo + hi)
        # once the midpoint rounds onto an end, no later pass moves either
        converged = mid == lo or mid == hi
        if mgr * (math.cos(delta0 - mid) - cos0) + hold * mid < energy:
            lo = mid
        else:
            hi = mid
        if converged:
            break
        if i & 3 == 3:
            # every stop angle left lies in [near, far]; the torque reads
            # only its size, so a negative range is mirrored
            near, far = delta0 - hi, delta0 - lo
            if far < 0.0:
                near, far = -far, -near
            if 0.0 < near and far < _HALF_PI and (
                    mgr * math.sin(near) > slip_above
                    or mgr * math.sin(far) < perch_below):
                break
    return 0.5 * (lo + hi)


def evaluate_touchdown(st: TouchdownState, hold_nm: float) -> PerchOutcome:
    """Classify a touchdown from the locked-claw pivot energy balance.

    ``hold_nm`` must be non-negative; an infinite hold always perches.  The
    start angle ``st`` gives must lie in [-180, 180] deg.
    """
    if not hold_nm >= 0.0:
        raise ValueError("holding torque must be non-negative")
    if math.isinf(hold_nm):
        return PerchOutcome.PERCHED
    start_deg = (START_ANGLE_BASE_DEG
                 + START_ANGLE_PER_LEG_DEG * (90.0 - st.theta_leg_deg)
                 + START_ANGLE_PER_PITCH_DEG * (st.body_pitch_deg - 30.0))
    # a finite pitch can still start the CoM more than a half turn from the
    # top
    if not -180.0 <= start_deg <= 180.0:
        raise ValueError(f"touchdown start angle must lie in [-180, 180] deg, "
                         f"got {start_deg!r}")
    c = math.cos(math.radians(min(89.9, abs(st.psi_branch_deg))))
    hold = hold_nm * c ** YAW_HOLD_POWER
    mgr = st.mass_kg * GRAVITY * COM_OFFSET_M
    delta0 = math.radians(start_deg)
    cos0 = math.cos(delta0)
    budget = math.radians(ROTATION_BUDGET_DEG)

    # impact momentum: tangential share of the linear momentum about the pivot
    tangential = max(0.0, cos0)
    omega0 = st.mass_kg * st.speed_mps * COM_OFFSET_M * tangential \
        / INERTIA_KGM2
    energy = 0.5 * INERTIA_KGM2 * omega0 * omega0

    # the impact energy outlasts the work the whole rotation budget absorbs
    if energy >= mgr * (math.cos(delta0 - budget) - cos0) + hold * budget:
        return PerchOutcome.FALL_FORWARD
    # the absorbed work is strictly increasing in rotation here, so the stop
    # angle is the unique root of the energy balance; the bisection ends
    # once the side of the hold it falls on is settled
    delta_stop = delta0 - _stop_rotation(
        delta0, cos0, budget, mgr, hold, energy,
        hold * (1.0 - _HOLD_MARGIN), hold * (1.0 + _HOLD_MARGIN))

    gravity_torque = mgr * math.sin(abs(delta_stop))
    if gravity_torque > hold:
        return (PerchOutcome.FALL_BACKWARD if delta_stop > 0.0
                else PerchOutcome.FALL_FORWARD)
    return PerchOutcome.PERCHED


def sweep_envelope(
    theta_legs: Sequence[float],
    speeds: Sequence[float],
    psi_branches: Sequence[float],
    hold_nm: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Outcome grids: (theta_leg x speed) and (theta_leg x psi_branch).

    The yaw grid uses the default ``TouchdownState`` speed, 2.5 m/s.
    Returns object arrays of PerchOutcome with shapes
    (len(theta_legs), len(speeds)) and (len(theta_legs), len(psi_branches)).
    """
    speed_grid = np.empty((len(theta_legs), len(speeds)), dtype=object)
    for i, th in enumerate(theta_legs):
        for j, v in enumerate(speeds):
            st = TouchdownState(speed_mps=float(v), theta_leg_deg=float(th))
            speed_grid[i, j] = evaluate_touchdown(st, hold_nm)
    yaw_grid = np.empty((len(theta_legs), len(psi_branches)), dtype=object)
    for i, th in enumerate(theta_legs):
        for j, psi in enumerate(psi_branches):
            st = TouchdownState(theta_leg_deg=float(th),
                                psi_branch_deg=float(psi))
            yaw_grid[i, j] = evaluate_touchdown(st, hold_nm)
    return speed_grid, yaw_grid

