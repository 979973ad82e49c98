"""Reduced-order flapping-wing flight dynamics.

Five controlled degrees of freedom: forward/lateral/vertical translation plus
pitch and yaw (roll omitted).  A quadratic lift/drag polar with a stall
break, thrust quadratic in flap frequency, second-order pitch/yaw rotational
dynamics driven by tail surfaces, an immediate elevator download that makes
the altitude response non-minimum phase, and a flapping-induced vertical
oscillation superposed on the mean trajectory.

Integration is fixed-step RK4 at 960 Hz; `plant_step` substeps internally so
callers can advance by a 120 Hz control period in one call.  The state is a
tuple of 14 Python floats rather than a numpy array: at 32 right-hand-side
evaluations per control cycle, numpy's per-call overhead on such small
vectors would cost more than the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

__all__ = [
    "RobotParams",
    "RobotState",
    "AttitudeDivergence",
    "ControlCommand",
    "plant_step",
    "thrust_model",
    "trim_state",
    "mechanical_energy",
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

    mass_kg: float = 0.700            # with leg/claw appendage
    mass_no_appendage_kg: float = 0.520
    wing_area_m2: float = 0.43        # 16 N/m^2 wing loading at 0.7 kg
    max_flap_hz: float = 5.5
    pitch_inertia: float = 0.010      # kg*m^2
    yaw_inertia: float = 0.012
    elevator_nm_per_deg: float = 0.01
    rudder_nm_per_deg: float = 0.01
    elevator_limit_deg: float = 20.0
    rudder_limit_deg: float = 20.0
    # lift/drag polar
    cl0: float = 0.4
    cl_alpha_per_deg: float = 0.12
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
    beta_lag_s: float = 0.030
    beta_rate_limit_dps: float = 400.0

    def __post_init__(self):
        # written as `not x > 0` so that NaN is rejected too
        if not (self.mass_kg > 0 and self.wing_area_m2 > 0):
            raise ValueError("mass and wing area must be positive")
        if not self.max_flap_hz > 0:
            raise ValueError("max flap frequency must be positive")
        if not self.cl_alpha_per_deg > 0:
            raise ValueError("lift slope must be positive below stall")
        if not (self.pitch_inertia > 0 and self.yaw_inertia > 0
                and self.beta_lag_s > 0):
            raise ValueError("inertias and leg servo lag must be positive")

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

    def clamped(self, params: RobotParams) -> "ControlCommand":
        # min(max(...)) keeps NaN and the sign of a zero, as np.clip does
        e, r = params.elevator_limit_deg, params.rudder_limit_deg
        return ControlCommand(
            delta_e_deg=float(min(max(self.delta_e_deg, -e), e)),
            delta_r_deg=float(min(max(self.delta_r_deg, -r), r)),
            flap_hz=float(min(max(self.flap_hz, 0.0), params.max_flap_hz)),
            beta_cmd_deg=float(min(max(self.beta_cmd_deg, 0.0), 90.0)),
        )


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
         ) -> Callable[[Sequence[float]], Tuple[float, ...]]:
    """The state derivative, as a function of the 14-float state, for a held
    (clamped) command and gust; what those fix is computed here once."""
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
    phase_rate = 2.0 * math.pi * cmd.flap_hz
    beta_cmd = math.radians(cmd.beta_cmd_deg)
    rate_cap = math.radians(params.beta_rate_limit_dps)

    def rhs(v):
        _, _, _, vx, vy, vz, th, q, psi, r, phase, hv, hvd, beta = v
        v_h = math.hypot(vx, vy)
        speed = math.hypot(v_h, vz)
        track = math.atan2(vy, vx) if v_h > 1e-9 else psi
        gamma = math.atan2(vz, v_h) if speed > 1e-9 else 0.0
        alpha_deg = math.degrees(th - gamma)

        q_dyn = 0.5 * AIR_DENSITY * speed * speed * params.wing_area_m2
        lift = q_dyn * params.lift_coeff(alpha_deg)
        drag = q_dyn * params.drag_coeff(alpha_deg)

        fx = fy = fz = 0.0
        if speed > 1e-9:
            ux, uy, uz = vx / speed, vy / speed, vz / speed
            # drag opposes the velocity; lift is perpendicular to it in the
            # vertical plane containing the track
            fx += -drag * ux - lift * math.sin(gamma) * math.cos(track)
            fy += -drag * uy - lift * math.sin(gamma) * math.sin(track)
            fz += -drag * uz + lift * math.cos(gamma)

        fx += thrust * math.cos(th) * math.cos(psi)
        fy += thrust * math.cos(th) * math.sin(psi)
        fz += thrust * math.sin(th)

        # sideslip: heading vs track; fuselage side force turns the velocity
        # vector toward the heading
        beta_side = psi - track
        f_side = params.side_force_n_per_rad * beta_side * max(q_dyn, 0.05)
        fx += -f_side * math.sin(track)
        fy += f_side * math.cos(track)

        fz -= download
        fz -= weight
        fx += efx
        fy += efy
        fz += efz

        pitch_moment = (pitch_tail - params.pitch_stiffness_nm_rad * th
                        - params.pitch_damping_nm_s * q + pitch_ext)
        yaw_moment = (yaw_tail - params.yaw_stiffness_nm_rad * beta_side
                      - params.yaw_damping_nm_s * r + yaw_ext)
        heave_acc = (heave_gain * math.sin(phase)
                     - heave_damping * hvd - heave_stiffness * hv)
        beta_rate = (beta_cmd - beta) / params.beta_lag_s
        beta_rate = min(rate_cap, max(-rate_cap, beta_rate))
        return (vx, vy, vz, fx / m, fy / m, fz / m,
                q, pitch_moment / params.pitch_inertia,
                r, yaw_moment / params.yaw_inertia,
                phase_rate, hvd, heave_acc, beta_rate)

    return rhs


def plant_step(
    state: RobotState,
    cmd: ControlCommand,
    params: RobotParams,
    dt: float = 1.0 / CONTROL_RATE_HZ,
    ext_force: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    ext_moment: Tuple[float, float] = (0.0, 0.0),
) -> RobotState:
    """Advance the plant by ``dt`` (<= one 120 Hz control period) with the
    command held; integrates internally with RK4 substeps at >= 960 Hz."""
    if dt > 1.0 / CONTROL_RATE_HZ + 1e-12:
        raise ValueError("plant_step dt must not exceed one control period")
    rhs = _rhs(cmd.clamped(params), params, ext_force, ext_moment)
    n_sub = max(1, int(math.ceil(dt * PLANT_RATE_HZ - 1e-9)))
    h = dt / n_sub
    half_h, sixth_h = 0.5 * h, h / 6.0
    v = state.to_vector()
    for _ in range(n_sub):
        k1 = rhs(v)
        k2 = rhs([a + half_h * b for a, b in zip(v, k1)])
        k3 = rhs([a + half_h * b for a, b in zip(v, k2)])
        k4 = rhs([a + h * b for a, b in zip(v, k3)])
        v = [a + sixth_h * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
             for a, b1, b2, b3, b4 in zip(v, k1, k2, k3, k4)]
    new = RobotState.from_vector(v)
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


def mechanical_energy(state: RobotState, params: RobotParams) -> float:
    """Kinetic plus gravitational potential energy of the mean motion (J)."""
    ke = 0.5 * params.mass_kg * (
        state.vx_mps ** 2 + state.vy_mps ** 2 + state.vz_mps ** 2
    )
    return ke + params.mass_kg * GRAVITY * state.z_m
