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
arithmetic.  For the same reason the right-hand side (`_rhs`) takes and
returns plain floats and writes the lift/drag polar out in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

from .config import check_ranges, ranged

__all__ = [
    "RobotParams",
    "RobotState",
    "AttitudeDivergence",
    "ControlCommand",
    "plant_step",
    "thrust_model",
    "trim_state",
    "PLANT_RATE_HZ",
    "CONTROL_RATE_HZ",
]

GRAVITY = 9.81
AIR_DENSITY = 1.225
PLANT_RATE_HZ = 960.0
CONTROL_RATE_HZ = 120.0


@dataclass(frozen=True)
class RobotParams:
    """Airframe constants.  Aerodynamic coefficients are calibration values
    anchored to: trim at 30 deg pitch in 2.5-3 m/s, no trim above 40 deg,
    and a brief 4 m/s launch glide."""

    mass_kg: float = ranged(0.700, "(0, inf)")  # with leg/claw appendage
    mass_no_appendage_kg: float = 0.520
    # 16 N/m^2 wing loading at 0.7 kg
    wing_area_m2: float = ranged(0.43, "(0, inf)")
    max_flap_hz: float = ranged(5.5, "(0, inf)")
    pitch_inertia: float = ranged(0.010, "(0, inf)")  # kg*m^2
    yaw_inertia: float = ranged(0.012, "(0, inf)")
    elevator_nm_per_deg: float = 0.01
    rudder_nm_per_deg: float = 0.01
    elevator_limit_deg: float = 20.0
    rudder_limit_deg: float = 20.0
    # lift/drag polar
    cl0: float = 0.4
    cl_alpha_per_deg: float = ranged(0.12, "(0, inf)")
    alpha_stall_deg: float = 40.0
    cl_post_stall_per_deg: float = 0.06
    cd0: float = 0.04
    cd_induced: float = 0.02
    cd_stall_per_deg2: float = 0.02
    cd_max: float = 2.0                   # flat-plate cap in deep separation
    # thrust and flapping oscillation
    thrust_n_per_hz2: float = 0.028
    flap_oscillation_gain: float = 6.3    # m/s^2 of vertical forcing per Hz
    heave_nat_freq_hz: float = 0.8
    heave_damping_ratio: float = 0.2
    # rotational aerodynamics
    pitch_stiffness_nm_rad: float = 0.10
    pitch_damping_nm_s: float = 0.10
    yaw_stiffness_nm_rad: float = 0.10
    yaw_damping_nm_s: float = 0.08
    side_force_n_per_rad: float = 1.2
    elevator_download_n_per_deg: float = 0.10
    # leg servo response
    beta_lag_s: float = ranged(0.030, "(0, inf)")
    beta_rate_limit_dps: float = 400.0

    __post_init__ = check_ranges

    def lift_coeff(self, alpha_deg: float) -> float:
        a_s = self.alpha_stall_deg
        if alpha_deg <= a_s:
            return self.cl0 + self.cl_alpha_per_deg * alpha_deg
        cl_stall = self.cl0 + self.cl_alpha_per_deg * a_s
        return max(0.2, cl_stall - self.cl_post_stall_per_deg * (alpha_deg - a_s))

    def drag_coeff(self, alpha_deg: float) -> float:
        cl = self.lift_coeff(alpha_deg)
        over = max(0.0, abs(alpha_deg) - self.alpha_stall_deg)
        cd = self.cd0 + self.cd_induced * cl * cl + self.cd_stall_per_deg2 * over * over
        return min(self.cd_max, cd)


@dataclass(frozen=True)
class ControlCommand:
    delta_e_deg: float = 0.0
    delta_r_deg: float = 0.0
    flap_hz: float = 0.0
    beta_cmd_deg: float = 0.0

    @classmethod
    def limited(cls, params: RobotParams, delta_e_deg: float,
                delta_r_deg: float, flap_hz: float,
                beta_cmd_deg: float) -> "ControlCommand":
        """The command with each input clamped to its actuator's range.

        Each clamp is ``min(max(x, lo), hi)``, which keeps NaN and the sign
        of a zero, as np.clip does, written as the builtins decide it:
        ``max(x, lo)`` is ``lo if lo > x else x`` and ``min(y, hi)`` is
        ``hi if hi < y else y``."""
        e, r = params.elevator_limit_deg, params.rudder_limit_deg
        f = params.max_flap_hz
        e_lo, r_lo = -e, -r
        delta_e_deg = e_lo if e_lo > delta_e_deg else delta_e_deg
        delta_r_deg = r_lo if r_lo > delta_r_deg else delta_r_deg
        flap_hz = 0.0 if 0.0 > flap_hz else flap_hz
        beta_cmd_deg = 0.0 if 0.0 > beta_cmd_deg else beta_cmd_deg
        return cls(float(e if e < delta_e_deg else delta_e_deg),
                   float(r if r < delta_r_deg else delta_r_deg),
                   float(f if f < flap_hz else flap_hz),
                   float(90.0 if 90.0 < beta_cmd_deg else beta_cmd_deg))

    def clamped(self, params: RobotParams) -> "ControlCommand":
        return self.limited(params, self.delta_e_deg, self.delta_r_deg,
                            self.flap_hz, self.beta_cmd_deg)


class AttitudeDivergence(ValueError):
    """The pitch left the open (-90, 90) deg range the model covers: the
    airframe tumbled, or its pitch went non-finite."""


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

    @property
    def speed_mps(self) -> float:
        return math.hypot(self.vx_mps, self.vy_mps, self.vz_mps)

    def claw_z_m(self, link_length_m: float) -> float:
        """Altitude of the claw boresight at the end of a leg of
        ``link_length_m`` for the current leg angle (beta = 0 leg straight
        down, beta = 90 horizontal)."""
        return self.altitude_m - link_length_m * math.cos(
            math.radians(self.beta_deg))

    def to_vector(self) -> Tuple[float, ...]:
        """The 14-element integration state, angles in radians."""
        return (
            self.x_m, self.y_m, self.z_m,
            self.vx_mps, self.vy_mps, self.vz_mps,
            math.radians(self.pitch_deg), math.radians(self.pitch_rate_dps),
            math.radians(self.yaw_deg), math.radians(self.yaw_rate_dps),
            self.flap_phase_rad, self.heave_m, self.heave_rate_mps,
            math.radians(self.beta_deg),
        )

    @staticmethod
    def from_vector(v: Sequence[float]) -> "RobotState":
        x, y, z, vx, vy, vz, th, q, psi, r, phase, hv, hvd, beta = v
        return RobotState(
            x_m=x, y_m=y, z_m=z, vx_mps=vx, vy_mps=vy, vz_mps=vz,
            pitch_deg=math.degrees(th), pitch_rate_dps=math.degrees(q),
            yaw_deg=math.degrees(psi), yaw_rate_dps=math.degrees(r),
            flap_phase_rad=phase, heave_m=hv, heave_rate_mps=hvd,
            beta_deg=math.degrees(beta),
        )


def thrust_model(flap_hz: float, params: RobotParams) -> float:
    """Thrust (N) for a flap frequency clamped to 0..max_flap_hz."""
    f = min(params.max_flap_hz, max(0.0, flap_hz))
    return params.thrust_n_per_hz2 * f * f


def _rhs(cmd: ControlCommand, params: RobotParams,
         ext_force: Tuple[float, float, float],
         ext_moment: Tuple[float, float]
         ) -> Callable[..., Tuple[float, ...]]:
    """The state derivative for a held (clamped) command and gust, as a
    closure over what those fix, computed here once.

    The closure takes the 11 floats the derivative depends on and returns
    the 7 derivatives that need arithmetic; the other 7 are the stage's own
    ``vx``, ``vy``, ``vz``, ``q``, ``r``, ``hvd`` and the phase rate, which
    `plant_step` reads directly.  The polar of `RobotParams.lift_coeff` and
    `drag_coeff` is inline, with ``max(a, x)`` as ``x if x > a else a`` and
    ``min(a, x)`` as ``x if x < a else a`` (NaN included, the builtins'
    result): two method calls per evaluation cost more than its arithmetic.
    Every product, sum and association is theirs, so every bit matches."""
    m = params.mass_kg
    weight = m * GRAVITY
    thrust = thrust_model(cmd.flap_hz, params)
    # tail download acts immediately on pitch-up commands (non-minimum phase)
    download = params.elevator_download_n_per_deg * cmd.delta_e_deg
    pitch_tail = params.elevator_nm_per_deg * cmd.delta_e_deg
    yaw_tail = params.rudder_nm_per_deg * cmd.delta_r_deg
    # gusts arrive as numpy scalars; plain floats keep numpy out of the loop
    efx, efy, efz = map(float, ext_force)
    pitch_ext, yaw_ext = map(float, ext_moment)
    omega = 2.0 * math.pi * params.heave_nat_freq_hz
    heave_damping = 2.0 * params.heave_damping_ratio * omega
    heave_stiffness = omega * omega
    heave_gain = params.flap_oscillation_gain * cmd.flap_hz
    beta_cmd = math.radians(cmd.beta_cmd_deg)
    rate_cap = math.radians(params.beta_rate_limit_dps)
    neg_rate_cap = -rate_cap
    wing_area = params.wing_area_m2
    cl0, cl_alpha = params.cl0, params.cl_alpha_per_deg
    a_s = params.alpha_stall_deg
    cl_stall = cl0 + cl_alpha * a_s
    cl_post_stall = params.cl_post_stall_per_deg
    cd0, cd_induced = params.cd0, params.cd_induced
    cd_stall, cd_max = params.cd_stall_per_deg2, params.cd_max
    side_force = params.side_force_n_per_rad
    pitch_stiffness = params.pitch_stiffness_nm_rad
    pitch_damping = params.pitch_damping_nm_s
    yaw_stiffness = params.yaw_stiffness_nm_rad
    yaw_damping = params.yaw_damping_nm_s
    pitch_inertia, yaw_inertia = params.pitch_inertia, params.yaw_inertia
    beta_lag = params.beta_lag_s
    hypot, atan2, sin, cos = math.hypot, math.atan2, math.sin, math.cos
    degrees = math.degrees

    def rhs(vx, vy, vz, th, q, psi, r, phase, hv, hvd, beta):
        v_h = hypot(vx, vy)
        speed = hypot(v_h, vz)
        track = atan2(vy, vx) if v_h > 1e-9 else psi
        gamma = atan2(vz, v_h) if speed > 1e-9 else 0.0
        alpha_deg = degrees(th - gamma)

        q_dyn = 0.5 * AIR_DENSITY * speed * speed * wing_area
        if alpha_deg <= a_s:
            cl = cl0 + cl_alpha * alpha_deg
        else:
            cl = cl_stall - cl_post_stall * (alpha_deg - a_s)
            cl = cl if cl > 0.2 else 0.2
        over = abs(alpha_deg) - a_s
        over = over if over > 0.0 else 0.0
        cd = cd0 + cd_induced * cl * cl + cd_stall * over * over
        cd = cd if cd < cd_max else cd_max
        lift = q_dyn * cl
        drag = q_dyn * cd

        sin_track, cos_track = sin(track), cos(track)
        if speed > 1e-9:
            sin_gamma = sin(gamma)
            # drag opposes the velocity; lift is perpendicular to it in the
            # vertical plane containing the track ("0.0 +" turns a -0.0
            # into 0.0, as accumulating from zero did)
            fx = 0.0 + (-drag * (vx / speed) - lift * sin_gamma * cos_track)
            fy = 0.0 + (-drag * (vy / speed) - lift * sin_gamma * sin_track)
            fz = 0.0 + (-drag * (vz / speed) + lift * cos(gamma))
        else:
            fx = fy = fz = 0.0

        cos_th = cos(th)
        fx += thrust * cos_th * cos(psi)
        fy += thrust * cos_th * sin(psi)
        fz += thrust * sin(th)

        # sideslip: heading vs track; fuselage side force turns the velocity
        # vector toward the heading
        beta_side = psi - track
        f_side = side_force * beta_side * (0.05 if 0.05 > q_dyn else q_dyn)
        fx += -f_side * sin_track
        fy += f_side * cos_track

        fz -= download
        fz -= weight
        fx += efx
        fy += efy
        fz += efz

        pitch_moment = (pitch_tail - pitch_stiffness * th
                        - pitch_damping * q + pitch_ext)
        yaw_moment = (yaw_tail - yaw_stiffness * beta_side
                      - yaw_damping * r + yaw_ext)
        heave_acc = (heave_gain * sin(phase)
                     - heave_damping * hvd - heave_stiffness * hv)
        beta_rate = (beta_cmd - beta) / beta_lag
        beta_rate = beta_rate if beta_rate > neg_rate_cap else neg_rate_cap
        beta_rate = beta_rate if beta_rate < rate_cap else rate_cap
        return (fx / m, fy / m, fz / m, pitch_moment / pitch_inertia,
                yaw_moment / yaw_inertia, heave_acc, beta_rate)

    return rhs


def plant_step(
    state: RobotState,
    cmd: ControlCommand,
    params: RobotParams,
    dt: float = 1.0 / CONTROL_RATE_HZ,
    ext_force: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    ext_moment: Tuple[float, float] = (0.0, 0.0),
) -> RobotState:
    """Advance the plant by ``dt`` (in (0, one 120 Hz control period]) with
    the command held; integrates internally with RK4 substeps at >= 960 Hz.

    Each stage ``i`` state is ``v + c * k_{i-1}`` on named floats; stage
    positions are never formed, because the right-hand side does not read
    them.  Suffix 2-4 names a stage value (``vx3``) or derivative (``ax3``)."""
    if not 0.0 < dt <= 1.0 / CONTROL_RATE_HZ + 1e-12:
        raise ValueError("plant_step dt must be positive and must not exceed "
                         "one control period")
    clamped = cmd.clamped(params)
    rhs = _rhs(clamped, params, ext_force, ext_moment)
    phase_rate = 2.0 * math.pi * clamped.flap_hz
    n_sub = max(1, int(math.ceil(dt * PLANT_RATE_HZ - 1e-9)))
    h = dt / n_sub
    half_h, sixth_h = 0.5 * h, h / 6.0
    x, y, z, vx, vy, vz, th, q, psi, r, phase, hv, hvd, beta = \
        state.to_vector()
    for _ in range(n_sub):
        ax, ay, az, qd, rd, ha, br = rhs(
            vx, vy, vz, th, q, psi, r, phase, hv, hvd, beta)
        vx2, vy2, vz2 = vx + half_h * ax, vy + half_h * ay, vz + half_h * az
        q2, r2, hvd2 = q + half_h * qd, r + half_h * rd, hvd + half_h * ha
        phase2 = phase + half_h * phase_rate
        ax2, ay2, az2, qd2, rd2, ha2, br2 = rhs(
            vx2, vy2, vz2, th + half_h * q, q2, psi + half_h * r, r2,
            phase2, hv + half_h * hvd, hvd2, beta + half_h * br)
        vx3, vy3, vz3 = vx + half_h * ax2, vy + half_h * ay2, vz + half_h * az2
        q3, r3, hvd3 = q + half_h * qd2, r + half_h * rd2, hvd + half_h * ha2
        ax3, ay3, az3, qd3, rd3, ha3, br3 = rhs(
            vx3, vy3, vz3, th + half_h * q2, q3, psi + half_h * r2, r3,
            phase2, hv + half_h * hvd2, hvd3, beta + half_h * br2)
        vx4, vy4, vz4 = vx + h * ax3, vy + h * ay3, vz + h * az3
        q4, r4, hvd4 = q + h * qd3, r + h * rd3, hvd + h * ha3
        ax4, ay4, az4, qd4, rd4, ha4, br4 = rhs(
            vx4, vy4, vz4, th + h * q3, q4, psi + h * r3, r4,
            phase + h * phase_rate, hv + h * hvd3, hvd4, beta + h * br3)
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
        phase += sixth_h * (((phase_rate + 2.0 * phase_rate)
                             + 2.0 * phase_rate) + phase_rate)
        hv += sixth_h * (((hvd + 2.0 * hvd2) + 2.0 * hvd3) + hvd4)
        hvd += sixth_h * (((ha + 2.0 * ha2) + 2.0 * ha3) + ha4)
        beta += sixth_h * (((br + 2.0 * br2) + 2.0 * br3) + br4)
    new = RobotState.from_vector(
        (x, y, z, vx, vy, vz, th, q, psi, r, phase, hv, hvd, beta))
    if new.altitude_m <= 0.0:
        new = replace(new, z_m=-new.heave_m, vx_mps=0.0, vy_mps=0.0,
                      vz_mps=0.0, heave_rate_mps=0.0)
    return new


def trim_state(pitch_deg: float,
               params: RobotParams) -> Optional[Tuple[float, float]]:
    """Steady level-flight equilibrium at a fixed pitch.

    Returns (speed_mps, flap_hz), or None when the force balance needs more
    flap frequency than the wings can provide.
    """
    if not 0.0 <= pitch_deg <= 60.0:
        raise ValueError("trim pitch must be within 0-60 deg")
    cl = params.lift_coeff(pitch_deg)
    cd = params.drag_coeff(pitch_deg)
    th = math.radians(pitch_deg)
    denom = cl + cd * math.tan(th)
    if denom <= 0.0:
        return None
    # holding this pitch needs a steady elevator deflection whose tail
    # download adds to the weight the wings must carry
    delta_e = params.pitch_stiffness_nm_rad * th / params.elevator_nm_per_deg
    download = params.elevator_download_n_per_deg * delta_e
    v_sq = ((2.0 * (params.mass_kg * GRAVITY + download))
            / (AIR_DENSITY * params.wing_area_m2 * denom))
    q_dyn = 0.5 * AIR_DENSITY * v_sq * params.wing_area_m2
    thrust = q_dyn * cd / math.cos(th)
    flap_sq = thrust / params.thrust_n_per_hz2
    flap = math.sqrt(flap_sq)
    if flap > params.max_flap_hz:
        return None
    return math.sqrt(v_sq), flap

