"""Reduced-order flapping-wing flight dynamics.

Five controlled degrees of freedom: forward/lateral/vertical translation plus
pitch and yaw (roll omitted).  A quadratic lift/drag polar with a stall
break, thrust quadratic in flap frequency, second-order pitch/yaw rotational
dynamics driven by tail surfaces, an immediate elevator download that makes
the altitude response non-minimum phase, and a flapping-induced vertical
oscillation superposed on the mean trajectory.

Integration is fixed-step RK4 at 960 Hz; `plant_step` substeps internally so
callers can advance by a 120 Hz control period in one call.  The state is 14
named Python floats, not a numpy array or a list: at 32 right-hand-side
evaluations per control cycle, numpy's per-call overhead on such small
vectors, or building and unpacking lists, would cost more than the
arithmetic.  For the same reason the right-hand side is not a function:
`plant_step` writes it out in place at each of the four RK4 stages, lift/drag
polar included, and unpacks its constants into locals once per call: the
airframe's mass, a float argument, and the rest from one module tuple.

`plant_step` takes a command as `ControlCommand.limited`, its one clamp,
built it, and a gust of Python floats; it neither limits nor converts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "RobotState",
    "AttitudeDivergence",
    "ControlCommand",
    "plant_step",
    "thrust_model",
    "lift_coeff",
    "drag_coeff",
    "trim_state",
    "PLANT_RATE_HZ",
    "CONTROL_RATE_HZ",
    "AIRFRAME_MASS_KG",
    "APPENDAGE_MASS_KG",
]

GRAVITY = 9.81
AIR_DENSITY = 1.225
PLANT_RATE_HZ = 960.0
CONTROL_RATE_HZ = 120.0
# the airframe with its leg/claw appendage, `MissionConfig.mass_kg`'s default
AIRFRAME_MASS_KG = 0.700
# the leg and claw, part of the airframe's mass; stage 2 flies without them
APPENDAGE_MASS_KG = 0.18
# the factors math.radians and math.degrees multiply by, so a product with
# them has those functions' bits without their call
_RADIANS = math.pi / 180.0
_DEGREES = 180.0 / math.pi


# The airframe's calibration, anchored to: trim at 30 deg pitch in 2.5-3
# m/s, no trim above 40 deg, and a brief 4 m/s launch glide.  Only its mass
# varies between airframes, and the functions that need it take it.
WING_AREA_M2 = 0.43  # 16 N/m^2 wing loading at 0.7 kg
MAX_FLAP_HZ = 5.5
PITCH_INERTIA_KGM2 = 0.010
YAW_INERTIA_KGM2 = 0.012
ELEVATOR_NM_PER_DEG = 0.01
RUDDER_NM_PER_DEG = 0.01
ELEVATOR_LIMIT_DEG = 20.0
RUDDER_LIMIT_DEG = 20.0
# lift/drag polar
CL0 = 0.4
CL_ALPHA_PER_DEG = 0.12
ALPHA_STALL_DEG = 40.0
CL_POST_STALL_PER_DEG = 0.06
CD0 = 0.04
CD_INDUCED = 0.02
CD_STALL_PER_DEG2 = 0.02
CD_MAX = 2.0  # flat-plate cap in deep separation
# thrust and flapping oscillation
THRUST_N_PER_HZ2 = 0.028
FLAP_OSCILLATION_GAIN = 6.3  # m/s^2 of vertical forcing per Hz
HEAVE_NAT_FREQ_HZ = 0.8
HEAVE_DAMPING_RATIO = 0.2
# rotational aerodynamics
PITCH_STIFFNESS_NM_RAD = 0.10
PITCH_DAMPING_NM_S = 0.10
YAW_STIFFNESS_NM_RAD = 0.10
YAW_DAMPING_NM_S = 0.08
SIDE_FORCE_N_PER_RAD = 1.2
ELEVATOR_DOWNLOAD_N_PER_DEG = 0.10
# leg servo response
BETA_LAG_S = 0.030
BETA_RATE_LIMIT_DPS = 400.0


def lift_coeff(alpha_deg: float) -> float:
    a_s = ALPHA_STALL_DEG
    if alpha_deg <= a_s:
        return CL0 + CL_ALPHA_PER_DEG * alpha_deg
    cl_stall = CL0 + CL_ALPHA_PER_DEG * a_s
    return max(0.2, cl_stall - CL_POST_STALL_PER_DEG * (alpha_deg - a_s))


def drag_coeff(alpha_deg: float) -> float:
    cl = lift_coeff(alpha_deg)
    over = max(0.0, abs(alpha_deg) - ALPHA_STALL_DEG)
    cd = CD0 + CD_INDUCED * cl * cl + CD_STALL_PER_DEG2 * over * over
    return min(CD_MAX, cd)


# What `plant_step`'s right-hand side reads besides the mass, in the order it
# unpacks them: wing area; the polar, lift at the stall after the stall
# angle; side force; stiffness, damping and inertia in pitch, then in yaw;
# heave damping and stiffness; leg servo lag, rate cap (rad/s), its negative.
_HEAVE_OMEGA = 2.0 * math.pi * HEAVE_NAT_FREQ_HZ
_RATE_CAP = BETA_RATE_LIMIT_DPS * _RADIANS
_RHS_CONSTANTS = (
    WING_AREA_M2, CL0, CL_ALPHA_PER_DEG, ALPHA_STALL_DEG,
    CL0 + CL_ALPHA_PER_DEG * ALPHA_STALL_DEG, CL_POST_STALL_PER_DEG, CD0,
    CD_INDUCED, CD_STALL_PER_DEG2, CD_MAX, SIDE_FORCE_N_PER_RAD,
    PITCH_STIFFNESS_NM_RAD, PITCH_DAMPING_NM_S, PITCH_INERTIA_KGM2,
    YAW_STIFFNESS_NM_RAD, YAW_DAMPING_NM_S, YAW_INERTIA_KGM2,
    2.0 * HEAVE_DAMPING_RATIO * _HEAVE_OMEGA, _HEAVE_OMEGA * _HEAVE_OMEGA,
    BETA_LAG_S, _RATE_CAP, -_RATE_CAP)


@dataclass(frozen=True)
class ControlCommand:
    delta_e_deg: float = 0.0
    delta_r_deg: float = 0.0
    flap_hz: float = 0.0
    beta_cmd_deg: float = 0.0

    @classmethod
    def limited(cls, delta_e_deg: float, delta_r_deg: float, flap_hz: float,
                beta_cmd_deg: float) -> "ControlCommand":
        """The command with each input clamped to its actuator's range.

        Each clamp is ``min(max(x, lo), hi)``, which keeps NaN and the sign
        of a zero, as np.clip does, written as the builtins decide it:
        ``max(x, lo)`` is ``lo if lo > x else x`` and ``min(y, hi)`` is
        ``hi if hi < y else y``."""
        e, r, f = ELEVATOR_LIMIT_DEG, RUDDER_LIMIT_DEG, MAX_FLAP_HZ
        e_lo, r_lo = -e, -r
        delta_e_deg = e_lo if e_lo > delta_e_deg else delta_e_deg
        delta_r_deg = r_lo if r_lo > delta_r_deg else delta_r_deg
        flap_hz = 0.0 if 0.0 > flap_hz else flap_hz
        beta_cmd_deg = 0.0 if 0.0 > beta_cmd_deg else beta_cmd_deg
        return cls(float(e if e < delta_e_deg else delta_e_deg),
                   float(r if r < delta_r_deg else delta_r_deg),
                   float(f if f < flap_hz else flap_hz),
                   float(90.0 if 90.0 < beta_cmd_deg else beta_cmd_deg))


class AttitudeDivergence(ValueError):
    """The pitch left the open (-90, 90) deg range the model covers: the
    airframe tumbled, or its pitch went non-finite.  `plant_step` raises it
    too when the altitude goes NaN, as a NaN flap makes it."""


@dataclass(frozen=True)
class RobotState:
    """Full vehicle state.  ``z_m`` is the mean (stroke-averaged) altitude;
    the flapping-induced vertical oscillation rides on top of it in
    ``heave_m`` and the total altitude is ``altitude_m``."""

    x_m: float = 0.0
    y_m: float = 0.0
    z_m: float = 2.0
    vx_mps: float = 0.0
    vy_mps: float = 0.0
    vz_mps: float = 0.0
    pitch_deg: float = 0.0
    pitch_rate_dps: float = 0.0
    yaw_deg: float = 0.0
    yaw_rate_dps: float = 0.0
    flap_phase_rad: float = 0.0
    heave_m: float = 0.0
    heave_rate_mps: float = 0.0
    beta_deg: float = 0.0

    def __post_init__(self):
        if not -90.0 < self.pitch_deg < 90.0:
            raise AttitudeDivergence("pitch must stay within (-90, 90) deg")

    @property
    def altitude_m(self) -> float:
        return self.z_m + self.heave_m

    @property
    def on_ground(self) -> bool:
        return self.altitude_m <= 0.0

    def claw_z_m(self, link_length_m: float) -> float:
        """Altitude of the claw boresight at the end of a leg of
        ``link_length_m`` for the current leg angle (beta = 0 leg straight
        down, beta = 90 horizontal)."""
        return self.altitude_m - link_length_m * math.cos(
            math.radians(self.beta_deg))


def thrust_model(flap_hz: float) -> float:
    """Thrust (N) at a flap frequency that `ControlCommand.limited` has
    already clamped to 0..MAX_FLAP_HZ; a NaN flap gives NaN thrust."""
    return THRUST_N_PER_HZ2 * flap_hz * flap_hz


def plant_step(
    state: RobotState,
    cmd: ControlCommand,
    mass_kg: float,
    dt: float = 1.0 / CONTROL_RATE_HZ,
    ext_force: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    ext_moment: Tuple[float, float] = (0.0, 0.0),
) -> RobotState:
    """Advance the plant by ``dt`` (in (0, one 120 Hz control period]) with
    the command held; integrates internally with RK4 substeps at >= 960 Hz.

    ``cmd`` comes saturated from `ControlCommand.limited`, and ``ext_force``
    and ``ext_moment`` are Python floats; neither is limited or converted.
    A NaN flap, which `limited` keeps, makes the altitude NaN, and the step
    raises `AttitudeDivergence`.

    The right-hand side is written out in place at each of the four RK4
    stages, in bodies alike but for the suffix of the stage values they read
    and the derivatives they leave: none at stage 1, the substep's start
    (``vx``, ``ax``), 2-4 at the others (``vx3``, ``ax3``).  Stage positions
    are never formed, because the right-hand side does not read them, and
    stages 2 and 3, at the same flap phase, share its heave forcing.

    Drag opposes the velocity; lift is perpendicular to it in the vertical
    plane containing the track ("0.0 +" turns a -0.0 into 0.0, as the
    oracle's sum from zero does); the fuselage side force, from the sideslip
    ``beta_side`` of heading against track, turns the velocity toward the
    heading.  The polar is that of `lift_coeff` and `drag_coeff`, with
    ``max(a, x)`` as ``x if x > a else a`` and ``min(a, x)`` as
    ``x if x < a else a`` (NaN included, the builtins' result).  Every
    product, sum and association is that of the list-based RK4 the tests
    hold as the oracle, so every output bit matches it.
    """
    if not 0.0 < dt <= 1.0 / CONTROL_RATE_HZ + 1e-12:
        raise ValueError("plant_step dt must be positive and must not exceed "
                         "one control period")
    if not 0.0 < mass_kg < math.inf:
        raise ValueError(f"plant_step mass_kg must lie in (0, inf), got "
                         f"{mass_kg!r}")
    m = mass_kg
    weight = m * GRAVITY
    (wing_area, cl0, cl_alpha, a_s, cl_stall, cl_post_stall, cd0, cd_induced,
     cd_stall, cd_max, side_force, k_pitch, c_pitch, i_pitch, k_yaw, c_yaw,
     i_yaw, heave_damping, heave_stiffness, beta_lag, rate_cap,
     neg_rate_cap) = _RHS_CONSTANTS
    flap_hz, delta_e = cmd.flap_hz, cmd.delta_e_deg
    thrust = thrust_model(flap_hz)
    # tail download acts immediately on pitch-up commands (non-minimum phase)
    download = ELEVATOR_DOWNLOAD_N_PER_DEG * delta_e
    pitch_tail = ELEVATOR_NM_PER_DEG * delta_e
    yaw_tail = RUDDER_NM_PER_DEG * cmd.delta_r_deg
    heave_gain = FLAP_OSCILLATION_GAIN * flap_hz
    beta_cmd = cmd.beta_cmd_deg * _RADIANS
    phase_rate = 2.0 * math.pi * flap_hz
    efx, efy, efz = ext_force
    pitch_ext, yaw_ext = ext_moment
    n_sub = max(1, int(math.ceil(dt * PLANT_RATE_HZ - 1e-9)))
    h = dt / n_sub
    half_h, sixth_h = 0.5 * h, h / 6.0
    phase_step = sixth_h * (((phase_rate + 2.0 * phase_rate)
                             + 2.0 * phase_rate) + phase_rate)
    half_rho, to_deg = 0.5 * AIR_DENSITY, _DEGREES
    hypot, atan2, sin, cos = math.hypot, math.atan2, math.sin, math.cos
    x, y, z = state.x_m, state.y_m, state.z_m
    vx, vy, vz = state.vx_mps, state.vy_mps, state.vz_mps
    th, q = state.pitch_deg * _RADIANS, state.pitch_rate_dps * _RADIANS
    psi, r = state.yaw_deg * _RADIANS, state.yaw_rate_dps * _RADIANS
    phase, hv, hvd = state.flap_phase_rad, state.heave_m, state.heave_rate_mps
    beta = state.beta_deg * _RADIANS
    for _ in range(n_sub):
        # stage 1 at the substep's start
        forcing = heave_gain * sin(phase)
        v_h = hypot(vx, vy)
        speed = hypot(v_h, vz)
        track = atan2(vy, vx) if v_h > 1e-9 else psi
        gamma = atan2(vz, v_h) if speed > 1e-9 else 0.0
        alpha_deg = (th - gamma) * to_deg
        q_dyn = half_rho * speed * speed * wing_area
        if alpha_deg <= a_s:
            cl = cl0 + cl_alpha * alpha_deg
        else:
            cl = cl_stall - cl_post_stall * (alpha_deg - a_s)
            cl = cl if cl > 0.2 else 0.2
        over = abs(alpha_deg) - a_s
        over = over if over > 0.0 else 0.0
        cd = cd0 + cd_induced * cl * cl + cd_stall * over * over
        cd = cd if cd < cd_max else cd_max
        lift, drag = q_dyn * cl, q_dyn * cd
        sin_track, cos_track = sin(track), cos(track)
        if speed > 1e-9:
            sin_gamma = sin(gamma)
            fx = 0.0 + (-drag * (vx / speed) - lift * sin_gamma * cos_track)
            fy = 0.0 + (-drag * (vy / speed) - lift * sin_gamma * sin_track)
            fz = 0.0 + (-drag * (vz / speed) + lift * cos(gamma))
        else:
            fx = fy = fz = 0.0
        thrust_h = thrust * cos(th)
        beta_side = psi - track
        f_side = side_force * beta_side * (0.05 if 0.05 > q_dyn else q_dyn)
        ax = (fx + thrust_h * cos(psi) + -f_side * sin_track + efx) / m
        ay = (fy + thrust_h * sin(psi) + f_side * cos_track + efy) / m
        az = (fz + thrust * sin(th) - download - weight + efz) / m
        qd = (pitch_tail - k_pitch * th - c_pitch * q + pitch_ext) / i_pitch
        rd = (yaw_tail - k_yaw * beta_side - c_yaw * r + yaw_ext) / i_yaw
        ha = forcing - heave_damping * hvd - heave_stiffness * hv
        br = (beta_cmd - beta) / beta_lag
        br = br if br > neg_rate_cap else neg_rate_cap
        br = br if br < rate_cap else rate_cap
        # stage 2 at half a substep along stage 1's derivatives
        vx2, vy2, vz2 = vx + half_h * ax, vy + half_h * ay, vz + half_h * az
        th2, q2 = th + half_h * q, q + half_h * qd
        psi2, r2 = psi + half_h * r, r + half_h * rd
        hv2, hvd2 = hv + half_h * hvd, hvd + half_h * ha
        beta2 = beta + half_h * br
        forcing = heave_gain * sin(phase + half_h * phase_rate)
        v_h = hypot(vx2, vy2)
        speed = hypot(v_h, vz2)
        track = atan2(vy2, vx2) if v_h > 1e-9 else psi2
        gamma = atan2(vz2, v_h) if speed > 1e-9 else 0.0
        alpha_deg = (th2 - gamma) * to_deg
        q_dyn = half_rho * speed * speed * wing_area
        if alpha_deg <= a_s:
            cl = cl0 + cl_alpha * alpha_deg
        else:
            cl = cl_stall - cl_post_stall * (alpha_deg - a_s)
            cl = cl if cl > 0.2 else 0.2
        over = abs(alpha_deg) - a_s
        over = over if over > 0.0 else 0.0
        cd = cd0 + cd_induced * cl * cl + cd_stall * over * over
        cd = cd if cd < cd_max else cd_max
        lift, drag = q_dyn * cl, q_dyn * cd
        sin_track, cos_track = sin(track), cos(track)
        if speed > 1e-9:
            sin_gamma = sin(gamma)
            fx = 0.0 + (-drag * (vx2 / speed) - lift * sin_gamma * cos_track)
            fy = 0.0 + (-drag * (vy2 / speed) - lift * sin_gamma * sin_track)
            fz = 0.0 + (-drag * (vz2 / speed) + lift * cos(gamma))
        else:
            fx = fy = fz = 0.0
        thrust_h = thrust * cos(th2)
        beta_side = psi2 - track
        f_side = side_force * beta_side * (0.05 if 0.05 > q_dyn else q_dyn)
        ax2 = (fx + thrust_h * cos(psi2) + -f_side * sin_track + efx) / m
        ay2 = (fy + thrust_h * sin(psi2) + f_side * cos_track + efy) / m
        az2 = (fz + thrust * sin(th2) - download - weight + efz) / m
        qd2 = (pitch_tail - k_pitch * th2 - c_pitch * q2 + pitch_ext) / i_pitch
        rd2 = (yaw_tail - k_yaw * beta_side - c_yaw * r2 + yaw_ext) / i_yaw
        ha2 = forcing - heave_damping * hvd2 - heave_stiffness * hv2
        br2 = (beta_cmd - beta2) / beta_lag
        br2 = br2 if br2 > neg_rate_cap else neg_rate_cap
        br2 = br2 if br2 < rate_cap else rate_cap
        # stage 3 at half a substep along stage 2's, at stage 2's phase
        vx3, vy3, vz3 = vx + half_h * ax2, vy + half_h * ay2, vz + half_h * az2
        th3, q3 = th + half_h * q2, q + half_h * qd2
        psi3, r3 = psi + half_h * r2, r + half_h * rd2
        hv3, hvd3 = hv + half_h * hvd2, hvd + half_h * ha2
        beta3 = beta + half_h * br2
        v_h = hypot(vx3, vy3)
        speed = hypot(v_h, vz3)
        track = atan2(vy3, vx3) if v_h > 1e-9 else psi3
        gamma = atan2(vz3, v_h) if speed > 1e-9 else 0.0
        alpha_deg = (th3 - gamma) * to_deg
        q_dyn = half_rho * speed * speed * wing_area
        if alpha_deg <= a_s:
            cl = cl0 + cl_alpha * alpha_deg
        else:
            cl = cl_stall - cl_post_stall * (alpha_deg - a_s)
            cl = cl if cl > 0.2 else 0.2
        over = abs(alpha_deg) - a_s
        over = over if over > 0.0 else 0.0
        cd = cd0 + cd_induced * cl * cl + cd_stall * over * over
        cd = cd if cd < cd_max else cd_max
        lift, drag = q_dyn * cl, q_dyn * cd
        sin_track, cos_track = sin(track), cos(track)
        if speed > 1e-9:
            sin_gamma = sin(gamma)
            fx = 0.0 + (-drag * (vx3 / speed) - lift * sin_gamma * cos_track)
            fy = 0.0 + (-drag * (vy3 / speed) - lift * sin_gamma * sin_track)
            fz = 0.0 + (-drag * (vz3 / speed) + lift * cos(gamma))
        else:
            fx = fy = fz = 0.0
        thrust_h = thrust * cos(th3)
        beta_side = psi3 - track
        f_side = side_force * beta_side * (0.05 if 0.05 > q_dyn else q_dyn)
        ax3 = (fx + thrust_h * cos(psi3) + -f_side * sin_track + efx) / m
        ay3 = (fy + thrust_h * sin(psi3) + f_side * cos_track + efy) / m
        az3 = (fz + thrust * sin(th3) - download - weight + efz) / m
        qd3 = (pitch_tail - k_pitch * th3 - c_pitch * q3 + pitch_ext) / i_pitch
        rd3 = (yaw_tail - k_yaw * beta_side - c_yaw * r3 + yaw_ext) / i_yaw
        ha3 = forcing - heave_damping * hvd3 - heave_stiffness * hv3
        br3 = (beta_cmd - beta3) / beta_lag
        br3 = br3 if br3 > neg_rate_cap else neg_rate_cap
        br3 = br3 if br3 < rate_cap else rate_cap
        # stage 4 at a full substep along stage 3's
        vx4, vy4, vz4 = vx + h * ax3, vy + h * ay3, vz + h * az3
        th4, q4 = th + h * q3, q + h * qd3
        psi4, r4 = psi + h * r3, r + h * rd3
        hv4, hvd4 = hv + h * hvd3, hvd + h * ha3
        beta4 = beta + h * br3
        forcing = heave_gain * sin(phase + h * phase_rate)
        v_h = hypot(vx4, vy4)
        speed = hypot(v_h, vz4)
        track = atan2(vy4, vx4) if v_h > 1e-9 else psi4
        gamma = atan2(vz4, v_h) if speed > 1e-9 else 0.0
        alpha_deg = (th4 - gamma) * to_deg
        q_dyn = half_rho * speed * speed * wing_area
        if alpha_deg <= a_s:
            cl = cl0 + cl_alpha * alpha_deg
        else:
            cl = cl_stall - cl_post_stall * (alpha_deg - a_s)
            cl = cl if cl > 0.2 else 0.2
        over = abs(alpha_deg) - a_s
        over = over if over > 0.0 else 0.0
        cd = cd0 + cd_induced * cl * cl + cd_stall * over * over
        cd = cd if cd < cd_max else cd_max
        lift, drag = q_dyn * cl, q_dyn * cd
        sin_track, cos_track = sin(track), cos(track)
        if speed > 1e-9:
            sin_gamma = sin(gamma)
            fx = 0.0 + (-drag * (vx4 / speed) - lift * sin_gamma * cos_track)
            fy = 0.0 + (-drag * (vy4 / speed) - lift * sin_gamma * sin_track)
            fz = 0.0 + (-drag * (vz4 / speed) + lift * cos(gamma))
        else:
            fx = fy = fz = 0.0
        thrust_h = thrust * cos(th4)
        beta_side = psi4 - track
        f_side = side_force * beta_side * (0.05 if 0.05 > q_dyn else q_dyn)
        ax4 = (fx + thrust_h * cos(psi4) + -f_side * sin_track + efx) / m
        ay4 = (fy + thrust_h * sin(psi4) + f_side * cos_track + efy) / m
        az4 = (fz + thrust * sin(th4) - download - weight + efz) / m
        qd4 = (pitch_tail - k_pitch * th4 - c_pitch * q4 + pitch_ext) / i_pitch
        rd4 = (yaw_tail - k_yaw * beta_side - c_yaw * r4 + yaw_ext) / i_yaw
        ha4 = forcing - heave_damping * hvd4 - heave_stiffness * hv4
        br4 = (beta_cmd - beta4) / beta_lag
        br4 = br4 if br4 > neg_rate_cap else neg_rate_cap
        br4 = br4 if br4 < rate_cap else rate_cap
        x += sixth_h * (((vx + 2.0 * vx2) + 2.0 * vx3) + vx4)
        y += sixth_h * (((vy + 2.0 * vy2) + 2.0 * vy3) + vy4)
        z += sixth_h * (((vz + 2.0 * vz2) + 2.0 * vz3) + vz4)
        vx += sixth_h * (((ax + 2.0 * ax2) + 2.0 * ax3) + ax4)
        vy += sixth_h * (((ay + 2.0 * ay2) + 2.0 * ay3) + ay4)
        vz += sixth_h * (((az + 2.0 * az2) + 2.0 * az3) + az4)
        th += sixth_h * (((q + 2.0 * q2) + 2.0 * q3) + q4)
        q += sixth_h * (((qd + 2.0 * qd2) + 2.0 * qd3) + qd4)
        psi += sixth_h * (((r + 2.0 * r2) + 2.0 * r3) + r4)
        r += sixth_h * (((rd + 2.0 * rd2) + 2.0 * rd3) + rd4)
        phase += phase_step
        hv += sixth_h * (((hvd + 2.0 * hvd2) + 2.0 * hvd3) + hvd4)
        hvd += sixth_h * (((ha + 2.0 * ha2) + 2.0 * ha3) + ha4)
        beta += sixth_h * (((br + 2.0 * br2) + 2.0 * br3) + br4)
    if not z + hv > 0.0:
        if z + hv != z + hv:
            raise AttitudeDivergence("altitude went NaN")
        # on the ground: the mean motion and the heave rate stop
        z, vx, vy, vz, hvd = -hv, 0.0, 0.0, 0.0, 0.0
    return RobotState(x, y, z, vx, vy, vz, th * to_deg, q * to_deg,
                      psi * to_deg, r * to_deg, phase, hv, hvd, beta * to_deg)


def trim_state(pitch_deg: float,
               mass_kg: float) -> Optional[Tuple[float, float]]:
    """Steady level-flight equilibrium at a fixed pitch.

    Returns (speed_mps, flap_hz), or None when the force balance needs more
    flap frequency than the wings can provide.
    """
    if not 0.0 <= pitch_deg <= 60.0:
        raise ValueError("trim pitch must be within 0-60 deg")
    if not 0.0 < mass_kg < math.inf:
        raise ValueError(f"trim mass_kg must lie in (0, inf), got {mass_kg!r}")
    cl = lift_coeff(pitch_deg)
    cd = drag_coeff(pitch_deg)
    th = math.radians(pitch_deg)
    denom = cl + cd * math.tan(th)
    if denom <= 0.0:
        return None
    # holding this pitch needs a steady elevator deflection whose tail
    # download adds to the weight the wings must carry
    delta_e = PITCH_STIFFNESS_NM_RAD * th / ELEVATOR_NM_PER_DEG
    download = ELEVATOR_DOWNLOAD_N_PER_DEG * delta_e
    v_sq = ((2.0 * (mass_kg * GRAVITY + download))
            / (AIR_DENSITY * WING_AREA_M2 * denom))
    q_dyn = 0.5 * AIR_DENSITY * v_sq * WING_AREA_M2
    thrust = q_dyn * cd / math.cos(th)
    flap_sq = thrust / THRUST_N_PER_HZ2
    flap = math.sqrt(flap_sq)
    if flap > MAX_FLAP_HZ:
        return None
    return math.sqrt(v_sq), flap

