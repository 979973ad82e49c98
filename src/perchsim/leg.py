"""Planar impact model of the actuated leg and its design cost function.

Two rigid bodies: the robot body (translating along the flight direction) and
the leg rod, hinged at the hip through the servo joint.  Joint compliance
combines the servo gear train with the diagonal energy-storage spring; the
branch is a one-sided Kelvin-Voigt contact at the claw.  Vertical
misalignment of the branch loads the servo joint through the contact moment
arm.  ``LegParams`` is the leg's design, the three variables the design
search varies; the joint's calibration is module constants, and the robot's
own leg is ``ROBOT_LEG``.

The integrator core takes a batch of simulations per call and runs the RK4
step lane by lane on plain Python floats: every call (a mission impact, a
swarm, the 27-lane impact sweep) is narrow enough that numpy's per-call
overhead would dominate a vectorized step, and a lane stops once an energy
bound proves that no later step can change its outputs.  The tests hold a
numpy RK4 over all lanes at once as the oracle for its bits.

A lane of the design cost also stops once its design cannot win.  A
swarm passes ``leg_cost_batch`` each particle's personal-best cost as a
limit; the servo and joint-momentum peaks only grow as a lane integrates,
and the suite carries a design's peaks from lane to lane, fastest speed
first.  So once the cost of the peaks so far reaches the limit, the rest of
the suite cannot bring it back under, and the row returns a cost between the
limit and the exact one, which the swarm reads as "no better".

The model is mirror-symmetric: a branch below the boresight (zb -> -zb)
drives the leg the other way (phi -> -phi), and every output keeps its bits,
since IEEE negation is exact and sine is odd and cosine even in libm and
numpy alike (the tests check both).  So a call integrates |zb|, and each
distinct lane once: the impact sweep's -3 cm lanes reuse its +3 cm rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .config import check_ranges, ranged
from .plant import RobotParams

__all__ = [
    "LegParams",
    "ROBOT_LEG",
    "ImpactRecord",
    "IntegrationError",
    "simulate_impact",
    "simulate_impact_batch",
    "impact_sweep",
    "leg_cost_batch",
    "DEFAULT_COST_WEIGHTS",
    "DESIGN_SPEED_SUITE",
    "DESIGN_BOUNDS",
    "MAX_IMPACT_SPEED_MPS",
    "SERVO_LIMIT_TORQUE_NM",
]

# Kelvin-Voigt branch contact, calibrated against the published impact force
# and bounce-time envelope (peak < 150 N up to 4 m/s, ~50 ms to bounce).
CONTACT_STIFFNESS = 1800.0    # N/m
CONTACT_DAMPING_RATIO = 0.4
CAPTURE_HALF_WIDTH = 0.05     # m, claw capture window around the boresight

DESIGN_SPEED_SUITE = (2.0, 3.0, 4.0)   # m/s, design-range impact speeds
MAX_IMPACT_SPEED_MPS = 6.0   # a mission's crossing speed is capped here
# the hip servo's rated torque, within its 1.47-1.96 N*m (15-20 kg*cm) class
SERVO_LIMIT_TORQUE_NM = 1.72
# the hip joint: servo gear-train stiffness and damping, the diagonal
# spring's moment arm per link length, and the joint damping ratio
SERVO_JOINT_STIFFNESS_NM_RAD = 2.0
SERVO_DAMPING_NM_S = 0.02
SPRING_ANCHOR_FRACTION = 0.4
JOINT_DAMPING_RATIO = 0.7


class IntegrationError(RuntimeError):
    """Contact integration blew up (unstable step size)."""


@dataclass(frozen=True)
class LegParams:
    """The leg's design: the three variables the design search varies."""

    link_length_m: float = ranged(0.20, "(0, inf)")
    leg_mass_kg: float = ranged(0.12, "(0, inf)")
    leg_spring_rate_n_m: float = ranged(1200.0, "(0, inf)")

    __post_init__ = check_ranges


# the robot's leg: every mission flies it, the design cost its baseline
ROBOT_LEG = LegParams()


@dataclass(frozen=True)
class ImpactRecord:
    peak_force_n: float
    time_to_bounce_ms: float        # 0 when no contact occurred
    servo_peak_torque_nm: float
    joint_angular_momentum: float   # kg*m^2/s, peak about the hip
    locked: bool


def simulate_impact_batch(
    link_length: np.ndarray,
    leg_mass: np.ndarray,
    spring_rate: np.ndarray,
    total_mass: np.ndarray,
    speed: np.ndarray,
    misalignment_z: np.ndarray,
    dt: float = 1e-4,
    t_max: float = 0.15,
    cap=None,
):
    """Batched impact core.  All array inputs broadcast to a common shape.

    Returns (peak_force, time_to_bounce_s, servo_peak_torque, peak_joint_L,
    locked) as arrays of the broadcast shape.  Each lane is integrated on
    Python floats by ``_impact_lane``; a lane that diverges raises
    ``IntegrationError``.

    The outputs are even in the misalignment, so the lanes integrate
    ``|misalignment_z|``, and ``_impact_lane`` runs once per distinct lane
    (its 11 per-lane floats), whose row every lane equal to it gets.

    ``cap`` serves ``leg_cost_batch``: ``(servo_peak, joint_peak, mass_term,
    limit)``, each broadcasting with the lanes.  A lane then starts its
    servo and joint peaks at the given ones and may stop once ``_cost`` of
    its peaks reaches its limit, so those two outputs are running maxima
    that may fall short of the full horizon's.
    """
    if not 0.0 < dt <= 2e-4:
        raise ValueError(f"impact integration requires 0 < dt <= 0.2 ms, "
                         f"got {dt!r}")
    l, m, k_sp, mt, v0, zb = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in
          (link_length, leg_mass, spring_rate, total_mass, speed, misalignment_z))
    )
    shape = l.shape
    # mirror symmetry: a lane at -zb has the outputs of the one at +zb
    zb = np.abs(zb)
    # a negative radicand gives NaN, which ends as IntegrationError on a lane
    # that reads it; inf and NaN states end there too, so numpy stays quiet
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mb = mt - m
        if np.any(mb <= 0):
            raise ValueError("leg mass exceeds total mass")
        arm = SPRING_ANCHOR_FRACTION * l
        k_rot = SERVO_JOINT_STIFFNESS_NM_RAD + k_sp * arm * arm
        i_hip = m * l * l / 3.0   # uniform rod about the hip
        c_rot = 2.0 * JOINT_DAMPING_RATIO * np.sqrt(k_rot * i_hip)
        c_c = 2.0 * CONTACT_DAMPING_RATIO * np.sqrt(CONTACT_STIFFNESS * mt)
        capture = zb <= CAPTURE_HALF_WIDTH
        # mass matrix [[m11, m12], [m12, i_hip]], m12 = -m (l/2) sin(phi)
        m11 = mb + m
        lanes = (l, zb, v0, k_rot, c_rot, c_c, capture, i_hip, m * (l / 2.0),
                 m11, m11 * i_hip)
    columns = [a.ravel().tolist() for a in lanes]
    if cap is not None:
        columns += [np.broadcast_to(np.asarray(c, dtype=float), shape)
                    .ravel().tolist() for c in cap]
    lanes = list(zip(*columns))
    # keyed in first-seen order, so the first lane to diverge still raises;
    # lanes equal as floats (0.0 == -0.0) share their outputs' bits, and a
    # capped lane's key holds its starting peaks and limit too
    rows = dict.fromkeys(lanes)
    for lane in rows:
        rows[lane] = _impact_lane(*lane[:11], dt, t_max, lane[11:])
    return tuple(np.array([rows[lane][i] for lane in lanes], dtype)
                 .reshape(shape)
                 for i, dtype in enumerate((float,) * 4 + (bool,)))


def _impact_lane(l, zb, v0, k_rot, c_rot, c_c, capture, i_hip, ml_half, m11,
                 m11_m22, dt, t_max, cap):
    """One lane of the impact RK4 on Python floats, ``zb`` >= 0 (or NaN).

    Every product and sum is that of the numpy RK4 the tests hold as the
    oracle, associated the same way, so the five outputs equal that lane of
    the oracle bit for bit when libm's sin and cos match numpy's.  The
    right-hand side (contact force, then the 2x2 mass-matrix solve for xdd
    and phidd) is written out in place at each of its five evaluations
    rather than called: the call, and the tuple it built and unpacked, were
    about a quarter of a lane-step.  Where numpy would carry an inf or NaN
    into the state (``math.sin`` of inf, a zero mass-matrix determinant)
    this lane raises ``IntegrationError``, as the oracle's final |x| check
    does.  Every 16 steps after the bounce, or from the first step for a
    claw outside the capture window, ``_outputs_final`` may end the lane
    early; the steps it skips would not have changed an output.  A lane
    given ``cap = (servo_peak, joint_peak, mass_term, limit)`` (an uncapped
    one gets ``()``) starts from those peaks and, every 16 steps, also stops
    once ``_cost`` of its peaks reaches ``limit``: every later step could
    only raise them, and the cost with them.
    """
    k_c = CONTACT_STIFFNESS
    servo_k, servo_c = SERVO_JOINT_STIFFNESS_NM_RAD, SERVO_DAMPING_NM_S
    neg_ml_half = -ml_half
    sin, cos = math.sin, math.cos

    n_steps = int(round(t_max / dt))
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    t = 0.0
    x, p, xd, pd = 0.0, 0.0, v0, 0.0
    peak = servo_peak = l_peak = x_max = 0.0
    limit = None
    if cap:
        servo_peak, l_peak, mass_term, limit = cap
    touched = bounced = False
    t_touch = t_bounce = 0.0
    try:
        # the early stop below needs a positive joint stiffness, non-negative
        # joint damping, a leg that reaches forward (l cos phi <= l) and a
        # phi inertia that stays positive once the body's share is taken out
        i_min = i_hip - ml_half * ml_half / m11
        bounded = l > 0.0 and k_rot > 0.0 and c_rot >= 0.0 and i_min > 0.0
        # k1 at the start; a step's end right-hand side is the next step's k1
        sin_p, cos_p = sin(p), cos(p)
        r_y = l * sin_p + zb * cos_p
        delta = x + l * cos_p - zb * sin_p - l
        f = 0.0
        if capture and delta > 0.0:
            f = k_c * delta + c_c * (xd - r_y * pd)
            if f < 0.0:   # np.maximum(0, f): a NaN force stays NaN
                f = 0.0
        m12 = neg_ml_half * sin_p
        q_x = ml_half * cos_p * pd * pd - f
        q_phi = f * r_y - k_rot * p - c_rot * pd
        det = m11_m22 - m12 * m12
        xdd = (i_hip * q_x - m12 * q_phi) / det
        pdd = (m11 * q_phi - m12 * q_x) / det
        for i in range(n_steps):
            # k2 at s + dt/2 * k1
            xd2, pd2 = xd + half_dt * xdd, pd + half_dt * pdd
            p2 = p + half_dt * pd
            sin_p, cos_p = sin(p2), cos(p2)
            r_y = l * sin_p + zb * cos_p
            delta = (x + half_dt * xd) + l * cos_p - zb * sin_p - l
            f = 0.0
            if capture and delta > 0.0:
                f = k_c * delta + c_c * (xd2 - r_y * pd2)
                if f < 0.0:
                    f = 0.0
            m12 = neg_ml_half * sin_p
            q_x = ml_half * cos_p * pd2 * pd2 - f
            q_phi = f * r_y - k_rot * p2 - c_rot * pd2
            det = m11_m22 - m12 * m12
            xdd2 = (i_hip * q_x - m12 * q_phi) / det
            pdd2 = (m11 * q_phi - m12 * q_x) / det
            # k3 at s + dt/2 * k2
            xd3, pd3 = xd + half_dt * xdd2, pd + half_dt * pdd2
            p3 = p + half_dt * pd2
            sin_p, cos_p = sin(p3), cos(p3)
            r_y = l * sin_p + zb * cos_p
            delta = (x + half_dt * xd2) + l * cos_p - zb * sin_p - l
            f = 0.0
            if capture and delta > 0.0:
                f = k_c * delta + c_c * (xd3 - r_y * pd3)
                if f < 0.0:
                    f = 0.0
            m12 = neg_ml_half * sin_p
            q_x = ml_half * cos_p * pd3 * pd3 - f
            q_phi = f * r_y - k_rot * p3 - c_rot * pd3
            det = m11_m22 - m12 * m12
            xdd3 = (i_hip * q_x - m12 * q_phi) / det
            pdd3 = (m11 * q_phi - m12 * q_x) / det
            # k4 at s + dt * k3
            xd4, pd4 = xd + dt * xdd3, pd + dt * pdd3
            p4 = p + dt * pd3
            sin_p, cos_p = sin(p4), cos(p4)
            r_y = l * sin_p + zb * cos_p
            delta = (x + dt * xd3) + l * cos_p - zb * sin_p - l
            f = 0.0
            if capture and delta > 0.0:
                f = k_c * delta + c_c * (xd4 - r_y * pd4)
                if f < 0.0:
                    f = 0.0
            m12 = neg_ml_half * sin_p
            q_x = ml_half * cos_p * pd4 * pd4 - f
            q_phi = f * r_y - k_rot * p4 - c_rot * pd4
            det = m11_m22 - m12 * m12
            xdd4 = (i_hip * q_x - m12 * q_phi) / det
            pdd4 = (m11 * q_phi - m12 * q_x) / det

            x = x + sixth_dt * (((xd + 2.0 * xd2) + 2.0 * xd3) + xd4)
            p = p + sixth_dt * (((pd + 2.0 * pd2) + 2.0 * pd3) + pd4)
            xd = xd + sixth_dt * (((xdd + 2.0 * xdd2) + 2.0 * xdd3) + xdd4)
            pd = pd + sixth_dt * (((pdd + 2.0 * pdd2) + 2.0 * pdd3) + pdd4)
            t += dt

            # k1 of the next step, at the new s
            sin_p, cos_p = sin(p), cos(p)
            r_y = l * sin_p + zb * cos_p
            delta = x + l * cos_p - zb * sin_p - l
            f = 0.0
            if capture and delta > 0.0:
                f = k_c * delta + c_c * (xd - r_y * pd)
                if f < 0.0:
                    f = 0.0
            m12 = neg_ml_half * sin_p
            q_x = ml_half * cos_p * pd * pd - f
            q_phi = f * r_y - k_rot * p - c_rot * pd
            det = m11_m22 - m12 * m12
            xdd = (i_hip * q_x - m12 * q_phi) / det
            pdd = (m11 * q_phi - m12 * q_x) / det

            if f > 0.0:
                if not touched:
                    touched, t_touch = True, t
            elif touched and not bounced:
                bounced, t_bounce = True, t - t_touch

            # `not a <= b` takes a NaN like np.maximum; a NaN state makes x
            # NaN within a step, so x_max still fails the check below
            if not f <= peak:
                peak = f
            servo_tau = abs(servo_k * p + servo_c * pd)
            if not servo_tau <= servo_peak:
                servo_peak = servo_tau
            joint_l = abs(i_hip * pd - ml_half * sin_p * xd)
            if not joint_l <= l_peak:
                l_peak = joint_l
            if not abs(x) <= x_max:
                x_max = abs(x)

            # stop once the cost has reached the cap, or once no later step
            # can change an output or the |x| check; a claw outside the
            # capture window never touches, so its lane may stop at the
            # first check
            if not i & 15 and (
                    limit is not None
                    and _cost(servo_peak, l_peak, mass_term) >= limit
                    or (bounced or not capture) and bounded and f == 0.0
                    and _outputs_final(x, p, xd, pd, m12, servo_peak, l_peak,
                                       (n_steps - 1 - i) * dt, l, zb, k_rot,
                                       i_hip, i_min, ml_half, m11, c_c,
                                       capture)):
                break
    except (ValueError, ZeroDivisionError):
        x_max = math.nan

    if not x_max <= 2.0:
        raise IntegrationError("contact integration diverged; reduce dt")
    time_to_bounce = (t_bounce if bounced else t_max) if touched else 0.0
    return peak, time_to_bounce, servo_peak, l_peak, touched and capture


def _outputs_final(x, p, xd, pd, m12, servo_peak, l_peak, t_rem, l, zb,
                   k_rot, i_hip, i_min, ml_half, m11, c_c, capture):
    """Whether ``_impact_lane``, out of contact at this step's end, can stop:
    no step in the ``t_rem`` left can raise ``servo_peak`` or ``l_peak``,
    take |x| past 2 or bring the claw back into contact.  A claw outside
    the capture window (``capture`` false) never makes contact, so only the
    first three count for it.

    Out of contact the momentum P = m11 xd + m12 phid is conserved and the
    internal energy E = (i_hip - m12^2/m11) phid^2 / 2 + k_rot phi^2 / 2
    cannot grow (dE/dt = -c_rot phid^2); 1% on E covers RK4's drift.  As
    i_hip - m12^2/m11 >= i_min, E bounds |phi|, |phid| and |sin phi phid|
    <= |phi phid|, and with P they bound xd = (P + ml_half sin phi phid)
    / m11.  The claw pushes again only where delta = x + l (cos phi - 1)
    - zb sin phi and k_c delta + c_c ddot are both positive, with ddot
    = xd - r_y phid = P/m11 - (l - ml_half/m11) sin phi phid
    - zb cos phi phid.  The caller ensures l > 0, k_rot > 0, c_rot >= 0,
    i_min > 0 and zb >= 0.  A NaN or inf state fails a comparison and runs
    on.
    """
    mom = m11 * xd + m12 * pd
    e2 = 1.01 * ((i_hip - m12 * m12 / m11) * pd * pd + k_rot * p * p)
    # squares of a much smaller state flush to zero and E bounds nothing;
    # a leg exactly at rest stays there
    if not (e2 > 1e-200 or p == pd == 0.0):
        return False
    p_b, pd_b = math.sqrt(e2 / k_rot), math.sqrt(e2 / i_min)
    sin_b = min(1.0, p_b)
    sin_pd_b = min(1.0, 0.5 * p_b) * pd_b
    xd_b = (abs(mom) + ml_half * sin_pd_b) / m11
    delta_b = (x + t_rem * max(0.0, mom + ml_half * sin_pd_b) / m11
               + zb * sin_b)
    ddot_b = (mom + (m11 * l - ml_half) * sin_pd_b) / m11 + zb * pd_b
    return (SERVO_JOINT_STIFFNESS_NM_RAD * p_b + SERVO_DAMPING_NM_S * pd_b
            <= servo_peak
            and i_hip * pd_b + ml_half * sin_b * xd_b <= l_peak
            and abs(x) + t_rem * xd_b <= 2.0
            and (not capture or delta_b <= 0.0
                 or CONTACT_STIFFNESS * delta_b + c_c * ddot_b <= 0.0))


def simulate_impact(
    leg: LegParams,
    total_mass_kg: float = RobotParams.mass_kg,
    speed_mps: float = 2.5,
    misalignment_z_m: float = 0.0,
    dt: float = 1e-4,
) -> ImpactRecord:
    """Single impact run; the claw tip starts touching the branch at ``speed``.
    A speed out of range, or a non-finite mass or misalignment, raises
    ``ValueError``."""
    if not 0.0 <= speed_mps <= MAX_IMPACT_SPEED_MPS:
        raise ValueError(
            f"impact speed must be within 0-{MAX_IMPACT_SPEED_MPS:g} m/s")
    if not (math.isfinite(total_mass_kg) and math.isfinite(misalignment_z_m)):
        raise ValueError("total mass and misalignment must be finite")
    peak, t_b, servo, jl, locked = simulate_impact_batch(
        leg.link_length_m,
        leg.leg_mass_kg,
        leg.leg_spring_rate_n_m,
        total_mass_kg,
        speed_mps,
        misalignment_z_m,
        dt=dt,
    )
    return ImpactRecord(
        peak_force_n=float(peak),
        time_to_bounce_ms=float(t_b) * 1000.0,
        servo_peak_torque_nm=float(servo),
        joint_angular_momentum=float(jl),
        locked=bool(locked),
    )


def impact_sweep(
    leg: LegParams,
    speeds: Sequence[float],
    misalignments: Sequence[float],
) -> List[Tuple[float, float, float, float]]:
    """(speed_mps, misalignment_m, peak_force_N, time_to_bounce_ms) rows for
    the airframe's mass."""
    sp, mz = np.meshgrid(np.asarray(speeds), np.asarray(misalignments), indexing="ij")
    peak, t_b, _, _, _ = simulate_impact_batch(
        leg.link_length_m,
        leg.leg_mass_kg,
        leg.leg_spring_rate_n_m,
        RobotParams.mass_kg,
        sp,
        mz,
    )
    rows = []
    for i in range(sp.shape[0]):
        for j in range(sp.shape[1]):
            rows.append(
                (float(sp[i, j]), float(mz[i, j]), float(peak[i, j]),
                 float(t_b[i, j]) * 1000.0)
            )
    return rows


# Cost weights after per-term normalization at the baseline leg.  The servo
# and joint weights are non-negative, so the cost cannot fall as a peak
# grows, which the cost cap relies on.
DEFAULT_COST_WEIGHTS = (1.0, 1.0, 5.0)

# Design box for the three-parameter leg problem:
# (link_length_m, spring_rate_n_m, leg_mass_kg).
DESIGN_BOUNDS = ((0.12, 0.30), (600.0, 2000.0), (0.06, 0.20))

# The robot's leg mass, the cost's mass baseline (see demos/leg_design_pso.py).
_BASELINE_MASS = ROBOT_LEG.leg_mass_kg
_COST_MISALIGNMENT = 0.03
_COST_DT = 2e-4


@functools.cache
def _baselines() -> Tuple[float, float]:
    """The cost's other baselines: the robot's leg's peak servo torque and
    peak joint angular momentum over the 2-4 m/s design suite at 3 cm
    misalignment on the airframe's mass, computed on the first call."""
    servo, jl = _suite_peaks(
        np.array([ROBOT_LEG.link_length_m]),
        np.array([ROBOT_LEG.leg_mass_kg]),
        np.array([ROBOT_LEG.leg_spring_rate_n_m]),
    )
    return float(servo[0]), float(jl[0])


def _suite_peaks(l, m, k, cap=None):
    """Worst-case servo torque and joint momentum of designs ``(l, m, k)``
    over ``DESIGN_SPEED_SUITE`` on the airframe's mass.

    The suite runs fastest speed first, since that lane sets the peaks, and
    each call carries the maxima so far: one leg batch per speed.  With
    ``cap = (mass_term, limit)`` a design's lanes may stop once ``_cost`` of
    its running maxima reaches its limit; its peaks then fall short, but
    its cost does not fall below the limit.
    """
    n = l.shape[0]
    servo_max = np.zeros(n)
    l_max = np.zeros(n)
    for speed in sorted(DESIGN_SPEED_SUITE, reverse=True):
        lane_cap = None if cap is None else (servo_max, l_max, *cap)
        _, _, servo, jl, _ = simulate_impact_batch(
            l, m, k, RobotParams.mass_kg, speed, _COST_MISALIGNMENT,
            dt=_COST_DT, cap=lane_cap
        )
        servo_max = np.maximum(servo_max, servo)
        l_max = np.maximum(l_max, jl)
    return servo_max, l_max


def _cost(servo, jl, mass_term):
    """The design cost of suite peaks ``servo`` and ``jl`` and the mass term
    ``w3 * m / _BASELINE_MASS``, on floats or arrays alike, with
    ``DEFAULT_COST_WEIGHTS``.  It cannot fall as a peak grows, since IEEE
    rounding is monotone."""
    tau0, l0 = _baselines()
    w1, w2, _ = DEFAULT_COST_WEIGHTS
    return w1 * servo / tau0 + w2 * jl / l0 + mass_term


def leg_cost_batch(params: np.ndarray, limit: np.ndarray = None) -> np.ndarray:
    """Design cost for rows of (link_length, spring_rate, leg_mass).

    The cost weighs, with ``DEFAULT_COST_WEIGHTS``, the peak servo torque
    and joint momentum over ``DESIGN_SPEED_SUITE`` at 3 cm misalignment on
    the airframe's mass, each against the robot's leg's, and the leg mass.
    A row whose cost is at least its ``limit`` (a swarm passes each
    particle's personal best) may get any value from that limit up to its
    cost, as its lanes stop once it cannot come in under the limit.  Every
    other row, and every row of a call without a limit, gets its exact cost.
    """
    params = np.atleast_2d(np.asarray(params, dtype=float))
    l, k, m = params[:, 0], params[:, 1], params[:, 2]
    mass_term = DEFAULT_COST_WEIGHTS[2] * m / _BASELINE_MASS
    cap = None
    if limit is not None and np.any(np.isfinite(limit)):
        cap = (mass_term, limit)
    servo_max, l_max = _suite_peaks(l, m, k, cap)
    return _cost(servo_max, l_max, mass_term)
