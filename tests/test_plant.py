"""Tests for the reduced-order flight dynamics plant."""

import dataclasses
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from perchsim import autopilot
from perchsim.autopilot import (
    DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
    DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM,
    MissionConfig,
    run_mission,
)
from perchsim import plant
from perchsim.plant import (
    AIR_DENSITY,
    AIRFRAME_MASS_KG,
    APPENDAGE_MASS_KG,
    CONTROL_RATE_HZ,
    ELEVATOR_LIMIT_DEG,
    GRAVITY,
    MAX_FLAP_HZ,
    PLANT_RATE_HZ,
    RUDDER_LIMIT_DEG,
    AttitudeDivergence,
    ControlCommand,
    RobotState,
    drag_coeff,
    lift_coeff,
    plant_step,
    thrust_model,
    trim_state,
)

DT = 1.0 / CONTROL_RATE_HZ


def mechanical_energy(state, mass_kg):
    """Kinetic plus gravitational potential energy of the mean motion (J)."""
    ke = 0.5 * mass_kg * (
        state.vx_mps ** 2 + state.vy_mps ** 2 + state.vz_mps ** 2
    )
    return ke + mass_kg * GRAVITY * state.z_m


def to_vector(state):
    """The 14-element integration state of ``state``, angles in radians."""
    return (
        state.x_m, state.y_m, state.z_m,
        state.vx_mps, state.vy_mps, state.vz_mps,
        math.radians(state.pitch_deg), math.radians(state.pitch_rate_dps),
        math.radians(state.yaw_deg), math.radians(state.yaw_rate_dps),
        state.flap_phase_rad, state.heave_m, state.heave_rate_mps,
        math.radians(state.beta_deg),
    )


def from_vector(v):
    """The `RobotState` of a 14-element integration state."""
    x, y, z, vx, vy, vz, th, q, psi, r, phase, hv, hvd, beta = v
    return RobotState(
        x_m=x, y_m=y, z_m=z, vx_mps=vx, vy_mps=vy, vz_mps=vz,
        pitch_deg=math.degrees(th), pitch_rate_dps=math.degrees(q),
        yaw_deg=math.degrees(psi), yaw_rate_dps=math.degrees(r),
        flap_phase_rad=phase, heave_m=hv, heave_rate_mps=hvd,
        beta_deg=math.degrees(beta),
    )


def reference_rhs(cmd, mass_kg, ext_force, ext_moment):
    """The list-based right-hand side, the oracle for the one `plant_step`
    writes out at each stage: it calls the plant's polar functions, reads
    the plant's constants by name, derives the rest on each call and
    returns all 14 derivatives."""
    m = mass_kg
    weight = m * GRAVITY
    thrust = thrust_model(cmd.flap_hz)
    download = plant.ELEVATOR_DOWNLOAD_N_PER_DEG * cmd.delta_e_deg
    pitch_tail = plant.ELEVATOR_NM_PER_DEG * cmd.delta_e_deg
    yaw_tail = plant.RUDDER_NM_PER_DEG * cmd.delta_r_deg
    efx, efy, efz = ext_force
    pitch_ext, yaw_ext = ext_moment
    omega = 2.0 * math.pi * plant.HEAVE_NAT_FREQ_HZ
    heave_damping = 2.0 * plant.HEAVE_DAMPING_RATIO * omega
    heave_stiffness = omega * omega
    heave_gain = plant.FLAP_OSCILLATION_GAIN * cmd.flap_hz
    phase_rate = 2.0 * math.pi * cmd.flap_hz
    beta_cmd = math.radians(cmd.beta_cmd_deg)
    rate_cap = math.radians(plant.BETA_RATE_LIMIT_DPS)

    def rhs(v):
        _, _, _, vx, vy, vz, th, q, psi, r, phase, hv, hvd, beta = v
        v_h = math.hypot(vx, vy)
        speed = math.hypot(v_h, vz)
        track = math.atan2(vy, vx) if v_h > 1e-9 else psi
        gamma = math.atan2(vz, v_h) if speed > 1e-9 else 0.0
        alpha_deg = math.degrees(th - gamma)

        q_dyn = 0.5 * AIR_DENSITY * speed * speed * plant.WING_AREA_M2
        lift = q_dyn * lift_coeff(alpha_deg)
        drag = q_dyn * drag_coeff(alpha_deg)

        fx = fy = fz = 0.0
        if speed > 1e-9:
            ux, uy, uz = vx / speed, vy / speed, vz / speed
            fx += -drag * ux - lift * math.sin(gamma) * math.cos(track)
            fy += -drag * uy - lift * math.sin(gamma) * math.sin(track)
            fz += -drag * uz + lift * math.cos(gamma)

        fx += thrust * math.cos(th) * math.cos(psi)
        fy += thrust * math.cos(th) * math.sin(psi)
        fz += thrust * math.sin(th)

        beta_side = psi - track
        f_side = plant.SIDE_FORCE_N_PER_RAD * beta_side * max(q_dyn, 0.05)
        fx += -f_side * math.sin(track)
        fy += f_side * math.cos(track)

        fz -= download
        fz -= weight
        fx += efx
        fy += efy
        fz += efz

        pitch_moment = (pitch_tail - plant.PITCH_STIFFNESS_NM_RAD * th
                        - plant.PITCH_DAMPING_NM_S * q + pitch_ext)
        yaw_moment = (yaw_tail - plant.YAW_STIFFNESS_NM_RAD * beta_side
                      - plant.YAW_DAMPING_NM_S * r + yaw_ext)
        heave_acc = (heave_gain * math.sin(phase)
                     - heave_damping * hvd - heave_stiffness * hv)
        beta_rate = (beta_cmd - beta) / plant.BETA_LAG_S
        beta_rate = min(rate_cap, max(-rate_cap, beta_rate))
        return (vx, vy, vz, fx / m, fy / m, fz / m,
                q, pitch_moment / plant.PITCH_INERTIA_KGM2,
                r, yaw_moment / plant.YAW_INERTIA_KGM2,
                phase_rate, hvd, heave_acc, beta_rate)

    return rhs


def reference_plant_step(state, cmd, mass_kg, dt=DT,
                         ext_force=(0.0, 0.0, 0.0), ext_moment=(0.0, 0.0)):
    """The list-based RK4 on `to_vector` lists, the oracle for
    `plant_step`'s bits; like it, it takes a limited command and a float
    gust."""
    rhs = reference_rhs(cmd, mass_kg, ext_force, ext_moment)
    n_sub = max(1, int(math.ceil(dt * PLANT_RATE_HZ - 1e-9)))
    h = dt / n_sub
    half_h, sixth_h = 0.5 * h, h / 6.0
    v = to_vector(state)
    for _ in range(n_sub):
        k1 = rhs(v)
        k2 = rhs([a + half_h * b for a, b in zip(v, k1)])
        k3 = rhs([a + half_h * b for a, b in zip(v, k2)])
        k4 = rhs([a + h * b for a, b in zip(v, k3)])
        v = [a + sixth_h * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
             for a, b1, b2, b3, b4 in zip(v, k1, k2, k3, k4)]
    new = from_vector(v)
    if math.isnan(new.altitude_m):
        raise AttitudeDivergence("altitude went NaN")
    if new.altitude_m <= 0.0:
        new = replace(new, z_m=-new.heave_m, vx_mps=0.0, vy_mps=0.0,
                      vz_mps=0.0, heave_rate_mps=0.0)
    return new


@pytest.fixture
def mass_kg():
    return AIRFRAME_MASS_KG


def trim_setup(mass_kg, pitch=30.0):
    speed, flap = trim_state(pitch, mass_kg)
    delta_e = (plant.PITCH_STIFFNESS_NM_RAD * math.radians(pitch)
               / plant.ELEVATOR_NM_PER_DEG)
    state = RobotState(z_m=2.0, vx_mps=speed, pitch_deg=pitch)
    cmd = ControlCommand(delta_e_deg=delta_e, flap_hz=flap)
    return state, cmd


def fly(state, cmd, mass_kg, duration, record=None):
    n = int(round(duration / DT))
    for i in range(n):
        state = plant_step(state, cmd, mass_kg, DT)
        if record is not None:
            record.append((i * DT, state))
    return state


class TestThrustModel:
    def test_zero_flap_zero_thrust(self):
        assert thrust_model(0.0) == 0.0

    def test_monotone_over_grid(self):
        thrusts = [thrust_model(f) for f in np.arange(0.0, 5.6, 0.5)]
        for a, b in zip(thrusts, thrusts[1:]):
            assert b > a

    def test_max_flap_supports_trim(self, mass_kg):
        # thrust is sized so trim at 30 deg exists below the flap ceiling
        speed, flap = trim_state(30.0, mass_kg)
        assert flap < MAX_FLAP_HZ
        t_max = thrust_model(MAX_FLAP_HZ)
        t_trim = thrust_model(flap)
        assert t_max > t_trim


class TestTrim:
    def test_thirty_degrees_in_published_band(self, mass_kg):
        speed, flap = trim_state(30.0, mass_kg)
        assert 2.5 <= speed <= 3.0
        assert 0.0 < flap <= MAX_FLAP_HZ

    def test_above_forty_infeasible(self, mass_kg):
        assert trim_state(45.0, mass_kg) is None
        assert trim_state(50.0, mass_kg) is None

    def test_zero_pitch_is_fastest(self, mass_kg):
        speeds = []
        for pitch in range(0, 41, 5):
            result = trim_state(float(pitch), mass_kg)
            if result is not None:
                speeds.append(result[0])
        assert speeds[0] == max(speeds)

    def test_speed_monotone_nonincreasing_in_pitch(self, mass_kg):
        prev = None
        for pitch in np.arange(0.0, 40.1, 2.0):
            result = trim_state(float(pitch), mass_kg)
            if result is None:
                continue
            if prev is not None:
                assert result[0] <= prev + 1e-9
            prev = result[0]

    def test_pitch_range_enforced(self, mass_kg):
        with pytest.raises(ValueError):
            trim_state(-5.0, mass_kg)
        with pytest.raises(ValueError):
            trim_state(75.0, mass_kg)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
    def test_mass_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="^trim mass_kg must lie in"):
            trim_state(30.0, bad)


class TestPlantStep:
    def test_ballistic_free_fall_short_horizon(self, mass_kg):
        """Gravity-only check: from rest with zero commands the drop matches
        -g t^2/2 before aerodynamic drag accumulates."""
        state = RobotState(z_m=10.0)
        t = 0.0
        for _ in range(6):
            state = plant_step(state, ControlCommand(), mass_kg, DT)
            t += DT
        expected_drop = 0.5 * 9.81 * t * t
        assert (10.0 - state.z_m) == pytest.approx(expected_drop, abs=1e-4)

    def test_trim_is_equilibrium(self, mass_kg):
        state, cmd = trim_setup(mass_kg)
        end = fly(state, cmd, mass_kg, 3.0)
        assert end.z_m == pytest.approx(2.0, abs=0.02)
        assert end.vx_mps == pytest.approx(state.vx_mps, abs=0.05)
        assert end.pitch_deg == pytest.approx(30.0, abs=0.2)

    def test_non_minimum_phase_dip(self, mass_kg):
        """A pitch-up elevator step from trim drops altitude before the
        extra lift produces a climb."""
        state, cmd = trim_setup(mass_kg)
        stepped = ControlCommand(delta_e_deg=cmd.delta_e_deg + 1.5,
                                 flap_hz=cmd.flap_hz)
        rec = []
        fly(state, stepped, mass_kg, 4.0, record=rec)
        early = [s.z_m for t, s in rec if t <= 1.0]
        dip = 2.0 - min(early)
        assert 0.0005 < dip < 0.10
        assert max(s.z_m for _, s in rec) > 2.0 + dip

    def test_flap_oscillation_at_flap_frequency(self, mass_kg):
        """FFT oracle: the steady altitude oscillation peaks at the flap
        frequency."""
        state, cmd = trim_setup(mass_kg)
        rec = []
        fly(state, cmd, mass_kg, 8.0, record=rec)
        z = np.array([s.altitude_m for t, s in rec if t >= 4.0])
        z = z - z.mean()
        freqs = np.fft.rfftfreq(z.size, DT)
        spectrum = np.abs(np.fft.rfft(z))
        peak_freq = freqs[np.argmax(spectrum)]
        assert peak_freq == pytest.approx(cmd.flap_hz, abs=0.15)
        amp = (z.max() - z.min()) / 2.0
        assert 0.01 < amp < 0.06

    def test_glide_energy_nonincreasing(self, mass_kg):
        state = RobotState(z_m=5.0, vx_mps=4.0, pitch_deg=10.0)
        cmd = ControlCommand()  # no flap, no tail input
        energy = [mechanical_energy(state, mass_kg)]
        for _ in range(int(2.0 / DT)):
            state = plant_step(state, cmd, mass_kg, DT)
            energy.append(mechanical_energy(state, mass_kg))
        for a, b in zip(energy, energy[1:]):
            assert b <= a + 1e-9

    def test_halving_dt_converged(self, mass_kg):
        """Integrator order: halving the step changes the 5 s terminal
        state by < 0.1%."""
        state0, cmd = trim_setup(mass_kg)
        coarse = fly(state0, cmd, mass_kg, 5.0)
        fine = state0
        for _ in range(int(5.0 / (DT / 2))):
            fine = plant_step(fine, cmd, mass_kg, DT / 2)
        for attr in ("x_m", "z_m", "vx_mps", "pitch_deg"):
            a, b = getattr(coarse, attr), getattr(fine, attr)
            assert abs(a - b) <= 0.001 * max(1.0, abs(b))

    def test_deterministic_and_time_invariant(self, mass_kg):
        state, cmd = trim_setup(mass_kg)
        a = fly(state, cmd, mass_kg, 1.0)
        b = fly(state, cmd, mass_kg, 1.0)
        assert a == b

    def test_dt_cap(self, mass_kg):
        state, cmd = trim_setup(mass_kg)
        with pytest.raises(ValueError):
            plant_step(state, cmd, mass_kg, 0.1)

    @pytest.mark.parametrize("dt", [math.nan, 0.0, -1.0, -0.005])
    def test_dt_must_be_positive(self, mass_kg, dt):
        state, cmd = trim_setup(mass_kg)
        with pytest.raises(ValueError):
            plant_step(state, cmd, mass_kg, dt)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
    def test_mass_must_be_positive_and_finite(self, mass_kg, bad):
        state, cmd = trim_setup(mass_kg)
        with pytest.raises(ValueError,
                           match="^plant_step mass_kg must lie in"):
            plant_step(state, cmd, bad, DT)

    def test_ground_contact_stops_motion(self, mass_kg):
        state = RobotState(z_m=0.05)
        for _ in range(int(1.0 / DT)):
            state = plant_step(state, ControlCommand(), mass_kg, DT)
        assert state.altitude_m == pytest.approx(0.0, abs=1e-9)
        assert state.on_ground
        assert state.vz_mps == 0.0


class TestCommandClamping:
    def test_limits(self):
        cmd = ControlCommand.limited(50.0, -50.0, 9.0, 120.0)
        assert cmd.delta_e_deg == ELEVATOR_LIMIT_DEG
        assert cmd.delta_r_deg == -RUDDER_LIMIT_DEG
        assert cmd.flap_hz == MAX_FLAP_HZ
        assert cmd.beta_cmd_deg == 90.0

    def test_out_of_range_flap_thrust(self):
        # the command's clamp is the flap's only one: thrust_model and
        # plant_step take the flap as limited gave it
        high = ControlCommand.limited(0.0, 0.0, 7.0, 0.0)
        low = ControlCommand.limited(0.0, 0.0, -1.0, 0.0)
        assert thrust_model(high.flap_hz) == thrust_model(MAX_FLAP_HZ)
        assert thrust_model(low.flap_hz) == 0.0

    def test_nan_flap_diverges(self, mass_kg):
        # limited keeps a NaN flap; its thrust and heave are NaN, so the
        # altitude goes NaN and the step raises, as on a tumble
        state, cmd = trim_setup(mass_kg)
        nan_flap = ControlCommand.limited(cmd.delta_e_deg, 0.0, math.nan,
                                          0.0)
        assert math.isnan(nan_flap.flap_hz)
        assert math.isnan(thrust_model(nan_flap.flap_hz))
        with pytest.raises(AttitudeDivergence):
            plant_step(state, nan_flap, mass_kg, DT)

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(0.0)
    @example(-0.0)
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    def test_matches_np_clip(self, x):
        cmd = ControlCommand.limited(x, x, x, x)
        limits = {
            "delta_e_deg": (-ELEVATOR_LIMIT_DEG, ELEVATOR_LIMIT_DEG),
            "delta_r_deg": (-RUDDER_LIMIT_DEG, RUDDER_LIMIT_DEG),
            "flap_hz": (0.0, MAX_FLAP_HZ),
            "beta_cmd_deg": (0.0, 90.0),
        }
        for name, (lo, hi) in limits.items():
            got = getattr(cmd, name)
            want = float(np.clip(x, lo, hi))
            assert type(got) is float
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
        # limiting a limited command keeps every bit, so plant_step need
        # not limit the autopilot's commands again
        again = ControlCommand.limited(*dataclasses.astuple(cmd))
        assert (struct.pack("4d", *dataclasses.astuple(again))
                == struct.pack("4d", *dataclasses.astuple(cmd)))


class TestPinnedOutputs:
    """Exact ``plant_step`` results, recorded as ``repr`` floats and compared
    field by field with ``==``: a change to the integrator must keep every
    bit."""

    @staticmethod
    def step(state, cmd, dt=DT, **gust):
        return dataclasses.astuple(
            plant_step(state, cmd, AIRFRAME_MASS_KG, dt, **gust))

    def test_trim_with_numpy_gust(self, mass_kg):
        state, cmd = trim_setup(mass_kg)
        cmd = dataclasses.replace(cmd, beta_cmd_deg=45.0)
        # a numpy gust model's scalars, converted at the call
        force = (np.float64(0.012), np.float64(-0.021), np.float64(0.083))
        moment = (np.float64(0.0015), np.float64(-0.0007))
        got = self.step(state, cmd, ext_force=tuple(map(float, force)),
                        ext_moment=tuple(map(float, moment)))
        assert got == (
            0.021520517715374426, -1.0373384106336323e-06, 2.0000040505013823,
            2.5825256701589323, -0.00024844867561257903,
            0.0009642491795034485, 30.00029027934911, 0.06870881171622593,
            -0.00011445140080296873, -0.027278236394432793,
            0.2673716957826801, 9.877555530594092e-05, 0.03542265885601972,
            3.333333333333334)

    def test_post_stall(self):
        # alpha is about 86 deg: pitch 55 deg on a 31 deg descent
        state = RobotState(
            x_m=1.0, y_m=0.1, z_m=1.5, vx_mps=2.0, vy_mps=0.3, vz_mps=-1.2,
            pitch_deg=55.0, pitch_rate_dps=20.0, yaw_deg=8.0,
            yaw_rate_dps=-5.0, flap_phase_rad=1.0, heave_m=0.01,
            heave_rate_mps=-0.05, beta_deg=10.0)
        # the elevator is limited to 20 deg
        cmd = ControlCommand.limited(25.0, -3.0, 4.0, 90.0)
        assert self.step(state, cmd) == (
            1.01664643108814, 0.10249600770532201, 1.4898048612891714,
            1.9951722334111792, 0.29904296580775724, -1.2468353862254165,
            55.18002003372003, 23.158444840401625, 7.95474114869255,
            -5.853771153775952, 1.209439510239319, 0.010340401686078908,
            0.1344595719487166, 13.333333333333334)

    def test_ground_clamp(self):
        state = RobotState(z_m=0.004, vx_mps=1.5, vz_mps=-1.0, pitch_deg=5.0,
                           heave_m=-0.002)
        assert self.step(state, ControlCommand(flap_hz=2.0)) == (
            0.012607288264057041, 0.0, 0.001983057221435867, 0.0, 0.0, 0.0,
            4.998311223202457, -0.3997316631936659, 0.0, 0.0,
            0.1047197551196598, -0.001983057221435867, 0.0, 0.0)

    def test_short_dt_fewer_substeps(self, mass_kg):
        speed, flap = trim_state(30.0, mass_kg)
        state = RobotState(
            z_m=2.0, vx_mps=speed, vy_mps=-0.2, pitch_deg=30.0, yaw_deg=-4.0,
            flap_phase_rad=2.5, heave_m=-0.004, heave_rate_mps=0.03,
            beta_deg=40.0)
        _, trim_cmd = trim_setup(mass_kg)
        cmd = ControlCommand(delta_e_deg=trim_cmd.delta_e_deg,
                             delta_r_deg=2.0, flap_hz=flap, beta_cmd_deg=30.0)
        # 3 substeps of 1 ms instead of 8 of 1/960 s
        assert self.step(state, cmd, dt=0.003) == (
            0.007747169023692196, -0.0005998662648014056, 2.0000002688056164,
            2.582384438743549, -0.19991087698912913, 0.0001785078695501199,
            29.999999999999996, 0.0, -3.9995890754176826, 0.2730459765904366,
            2.596253810481765, -0.003827137489701359, 0.08390206525106172,
            39.04837418993093)

    def test_from_rest(self):
        assert self.step(RobotState(z_m=10.0), ControlCommand()) == (
            3.2010536182832994e-08, 0.0, 9.999659404101465,
            1.536438461137511e-05, 0.0, -0.08173603167400291,
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_negative_rate_cap_zero_flap(self):
        # the leg is commanded 70 deg down: the servo runs at -400 deg/s
        state = RobotState(
            x_m=0.5, z_m=1.2, vx_mps=1.8, vz_mps=-0.4, pitch_deg=12.0,
            pitch_rate_dps=-8.0, yaw_deg=3.0, flap_phase_rad=0.7,
            heave_m=0.003, heave_rate_mps=-0.02, beta_deg=80.0)
        cmd = ControlCommand(delta_e_deg=-4.0, delta_r_deg=1.5, flap_hz=0.0,
                             beta_cmd_deg=10.0)
        assert self.step(state, cmd) == (
            0.515022132047519, 2.801686465021053e-06, 1.196496047680436,
            1.8054739276056686, 0.0006737971752378758, -0.44063234858342604,
            11.924249086931805, -10.149318266778222, 3.001591130090597,
            0.37859487866298824, 0.7, 0.002832153284998701,
            -0.02027654907899431, 76.6666666666667)


def outcome(step, *args, **kwargs):
    """A step's result as the bits of each field (so the sign of a zero
    counts), or the divergence it raised."""
    try:
        state = step(*args, **kwargs)
    except AttitudeDivergence:
        return AttitudeDivergence
    return tuple(map(float.hex, dataclasses.astuple(state)))


def gust(n):
    """``n`` gust components, as plain floats."""
    return st.tuples(*[st.floats(-0.5, 0.5)] * n)


ANGLE = st.floats(-120.0, 120.0)
STATES = st.builds(
    RobotState,
    x_m=st.floats(-5.0, 20.0), y_m=st.floats(-2.0, 2.0),
    z_m=st.floats(-0.1, 4.0),
    pitch_deg=st.floats(-89.0, 89.0), pitch_rate_dps=st.floats(-300.0, 300.0),
    yaw_deg=st.floats(-180.0, 180.0), yaw_rate_dps=st.floats(-300.0, 300.0),
    flap_phase_rad=st.floats(-10.0, 10.0), heave_m=st.floats(-0.05, 0.05),
    heave_rate_mps=st.floats(-0.5, 0.5), beta_deg=ANGLE,
).flatmap(lambda s: st.one_of(
    # moving in any direction; climbing or sinking straight up or down (no
    # horizontal track); a standing start
    st.builds(lambda vx, vy, vz: replace(s, vx_mps=vx, vy_mps=vy, vz_mps=vz),
              st.floats(-6.0, 6.0), st.floats(-3.0, 3.0),
              st.floats(-4.0, 4.0)),
    st.floats(-4.0, 4.0).filter(lambda vz: vz != 0.0).map(
        lambda vz: replace(s, vx_mps=0.0, vy_mps=0.0, vz_mps=vz)),
    st.just(replace(s, vx_mps=0.0, vy_mps=0.0, vz_mps=0.0)),
))
# out-of-limit commands included: the test limits them, as the autopilot does
COMMANDS = st.builds(
    ControlCommand,
    delta_e_deg=st.floats(-40.0, 40.0), delta_r_deg=st.floats(-40.0, 40.0),
    flap_hz=st.one_of(st.just(0.0), st.floats(-2.0, 8.0)),
    beta_cmd_deg=ANGLE)


DEFAULT_AIRFRAME = AIRFRAME_MASS_KG
# stage 2's airframe, without the leg and claw
LIGHT_AIRFRAME = AIRFRAME_MASS_KG - APPENDAGE_MASS_KG
AIRFRAMES = st.one_of(st.just(DEFAULT_AIRFRAME), st.floats(0.3, 1.5))
NO_GUST = {"ext_force": (0.0, 0.0, 0.0), "ext_moment": (0.0, 0.0)}


class TestMatchesReference:
    """`plant_step` against the list-based step, which reads the polar
    through ``plant.lift_coeff``/``drag_coeff`` and derives every constant
    on each call: every bit of every field, or the same divergence.  Each
    example steps one or two airframes in turn, so a mass or weight kept
    from one airframe and read for another fails it."""

    @settings(max_examples=400, deadline=None)
    @given(state=STATES, cmd=COMMANDS,
           airframes=st.lists(AIRFRAMES, min_size=1, max_size=2),
           dt=st.floats(0.0, DT, exclude_min=True),
           ext_force=gust(3), ext_moment=gust(2))
    @example(  # post-stall: alpha about 86 deg
        state=RobotState(vx_mps=2.0, vz_mps=-1.2, pitch_deg=55.0),
        cmd=ControlCommand(flap_hz=4.0), airframes=[DEFAULT_AIRFRAME], dt=DT,
        **NO_GUST)
    @example(  # alpha -120 deg: climbing straight up, pitched down
        state=RobotState(vz_mps=3.0, pitch_deg=-30.0),
        cmd=ControlCommand(), airframes=[DEFAULT_AIRFRAME], dt=DT, **NO_GUST)
    @example(  # standing start, gusty
        state=RobotState(), cmd=ControlCommand(flap_hz=5.0),
        airframes=[DEFAULT_AIRFRAME], dt=DT,
        ext_force=(0.1, -0.2, 0.3), ext_moment=(0.01, -0.02))
    @example(  # both rate caps, out-of-limit commands
        state=RobotState(vx_mps=3.0, beta_deg=-30.0),
        cmd=ControlCommand(delta_e_deg=35.0, delta_r_deg=-35.0,
                           flap_hz=9.0, beta_cmd_deg=120.0),
        airframes=[DEFAULT_AIRFRAME], dt=DT, **NO_GUST)
    @example(
        state=RobotState(vx_mps=3.0, beta_deg=110.0),
        cmd=ControlCommand(flap_hz=0.0, beta_cmd_deg=-20.0),
        airframes=[DEFAULT_AIRFRAME], dt=DT, **NO_GUST)
    @example(  # tumbles past 90 deg pitch: both raise
        state=RobotState(vx_mps=3.0, pitch_deg=89.0, pitch_rate_dps=600.0),
        cmd=ControlCommand(), airframes=[DEFAULT_AIRFRAME], dt=DT, **NO_GUST)
    @example(  # a NaN flap: both raise
        state=RobotState(vx_mps=3.0, pitch_deg=20.0),
        cmd=ControlCommand(flap_hz=math.nan), airframes=[DEFAULT_AIRFRAME],
        dt=DT, **NO_GUST)
    @example(  # the default airframe, then stage 2's lighter one
        state=RobotState(vx_mps=3.0, pitch_deg=20.0, beta_deg=30.0),
        cmd=ControlCommand(delta_e_deg=3.0, flap_hz=4.0, beta_cmd_deg=60.0),
        airframes=[DEFAULT_AIRFRAME, LIGHT_AIRFRAME], dt=DT, **NO_GUST)
    def test_bit_identical(self, state, cmd, airframes, dt, ext_force,
                           ext_moment):
        for mass_kg in airframes:
            limited = ControlCommand.limited(*dataclasses.astuple(cmd))
            assert (outcome(plant_step, state, limited, mass_kg, dt,
                            ext_force, ext_moment)
                    == outcome(reference_plant_step, state, limited, mass_kg,
                               dt, ext_force, ext_moment))


class TestMissionReplay:
    """Every call a gusty mission makes to `plant_step`, replayed through
    the oracle: the mission's own inputs, not drawn ones, on the full
    airframe and on stage 2's light one."""

    @pytest.mark.parametrize("airframe", [DEFAULT_AIRFRAME, LIGHT_AIRFRAME],
                             ids=["default", "light"])
    def test_gusty_mission_bit_identical(self, monkeypatch, airframe):
        calls = []

        def recording(state, cmd, mass_kg, dt, ext_force, ext_moment):
            new = plant_step(state, cmd, mass_kg, dt, ext_force, ext_moment)
            calls.append(((state, cmd, mass_kg, dt, ext_force, ext_moment),
                          new))
            return new

        monkeypatch.setattr(autopilot, "plant_step", recording)
        config = MissionConfig(
            seed=5, mass_kg=airframe,
            disturbance_sigma_force_n=DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
            disturbance_sigma_moment_nm=DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM)
        run_mission(config)
        assert len(calls) > 600

        # the mission covers the leg slewing at the autopilot's hip rate
        # limit, gusts on every cycle and the glide with flapping stopped
        commands = [args[1] for args, _ in calls]
        hip_step = autopilot.HIP_SLEW_RATE_DPS * DT
        assert any(abs(abs(b.beta_cmd_deg - a.beta_cmd_deg) - hip_step)
                   < 1e-9 for a, b in zip(commands, commands[1:]))
        assert all(args[4] != (0.0, 0.0, 0.0) for args, _ in calls)
        assert sum(c.flap_hz == 0.0 for c in commands) >= 5

        for args, new in calls:
            got = tuple(map(float.hex, dataclasses.astuple(new)))
            assert got == outcome(reference_plant_step, *args)
            # a float gust gives a state of floats
            state, cmd, mass_kg, dt, ext_force, ext_moment = args
            assert all(type(v) is float for v in ext_force + ext_moment)
            assert all(type(v) is float for v in dataclasses.astuple(new))
            # a numpy gust model's scalars, converted at the call
            numpy_force = tuple(map(np.float64, ext_force))
            numpy_moment = tuple(map(np.float64, ext_moment))
            assert got == outcome(plant_step, state, cmd, mass_kg, dt,
                                  tuple(map(float, numpy_force)),
                                  tuple(map(float, numpy_moment)))


class TestStateInvariants:
    def test_pitch_domain(self):
        with pytest.raises(ValueError):
            RobotState(pitch_deg=95.0)

    def test_claw_boresight_moves_up_with_beta(self):
        low = RobotState(z_m=2.0, beta_deg=0.0)
        high = RobotState(z_m=2.0, beta_deg=90.0)
        assert high.claw_z_m(0.2) > low.claw_z_m(0.2)
        assert high.claw_z_m(0.2) == pytest.approx(2.0)
