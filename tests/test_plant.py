"""Tests for the reduced-order flight dynamics plant."""

import math

import numpy as np
import pytest

from perchsim.plant import (
    CONTROL_RATE_HZ,
    ControlCommand,
    RobotParams,
    RobotState,
    mechanical_energy,
    plant_step,
    thrust_model,
    trim_state,
)

DT = 1.0 / CONTROL_RATE_HZ


@pytest.fixture
def params():
    return RobotParams()


def trim_setup(params, pitch=30.0):
    speed, flap = trim_state(pitch, params)
    delta_e = (params.pitch_stiffness_nm_rad * math.radians(pitch)
               / params.elevator_nm_per_deg)
    state = RobotState(z_m=2.0, vx_mps=speed, pitch_deg=pitch)
    cmd = ControlCommand(delta_e_deg=delta_e, flap_hz=flap)
    return state, cmd


def fly(state, cmd, params, duration, record=None):
    n = int(round(duration / DT))
    for i in range(n):
        state = plant_step(state, cmd, params, DT)
        if record is not None:
            record.append((i * DT, state))
    return state


class TestThrustModel:
    def test_zero_flap_zero_thrust(self, params):
        assert thrust_model(0.0, params) == 0.0

    def test_monotone_over_grid(self, params):
        thrusts = [thrust_model(f, params) for f in np.arange(0.0, 5.6, 0.5)]
        for a, b in zip(thrusts, thrusts[1:]):
            assert b > a

    def test_max_flap_supports_trim(self, params):
        # thrust is sized so trim at 30 deg exists below the flap ceiling
        speed, flap = trim_state(30.0, params)
        assert flap < params.max_flap_hz
        t_max = thrust_model(params.max_flap_hz, params)
        t_trim = thrust_model(flap, params)
        assert t_max > t_trim

    def test_out_of_range_clamps_with_flag(self, params):
        assert (thrust_model(7.0, params)
                == thrust_model(params.max_flap_hz, params))
        assert thrust_model(-1.0, params) == 0.0


class TestTrim:
    def test_thirty_degrees_in_published_band(self, params):
        speed, flap = trim_state(30.0, params)
        assert 2.5 <= speed <= 3.0
        assert 0.0 < flap <= params.max_flap_hz

    def test_above_forty_infeasible(self, params):
        assert trim_state(45.0, params) is None
        assert trim_state(50.0, params) is None

    def test_zero_pitch_is_fastest(self, params):
        speeds = []
        for pitch in range(0, 41, 5):
            result = trim_state(float(pitch), params)
            if result is not None:
                speeds.append(result[0])
        assert speeds[0] == max(speeds)

    def test_speed_monotone_nonincreasing_in_pitch(self, params):
        prev = None
        for pitch in np.arange(0.0, 40.1, 2.0):
            result = trim_state(float(pitch), params)
            if result is None:
                continue
            if prev is not None:
                assert result[0] <= prev + 1e-9
            prev = result[0]

    def test_pitch_range_enforced(self, params):
        with pytest.raises(ValueError):
            trim_state(-5.0, params)
        with pytest.raises(ValueError):
            trim_state(75.0, params)


class TestPlantStep:
    def test_ballistic_free_fall_short_horizon(self, params):
        """Gravity-only check: from rest with zero commands the drop matches
        -g t^2/2 before aerodynamic drag accumulates."""
        state = RobotState(z_m=10.0)
        t = 0.0
        for _ in range(6):
            state = plant_step(state, ControlCommand(), params, DT)
            t += DT
        expected_drop = 0.5 * 9.81 * t * t
        assert (10.0 - state.z_m) == pytest.approx(expected_drop, abs=1e-4)

    def test_trim_is_equilibrium(self, params):
        state, cmd = trim_setup(params)
        end = fly(state, cmd, params, 3.0)
        assert end.z_m == pytest.approx(2.0, abs=0.02)
        assert end.vx_mps == pytest.approx(state.vx_mps, abs=0.05)
        assert end.pitch_deg == pytest.approx(30.0, abs=0.2)

    def test_non_minimum_phase_dip(self, params):
        """A pitch-up elevator step from trim drops altitude before the
        extra lift produces a climb."""
        state, cmd = trim_setup(params)
        stepped = ControlCommand(delta_e_deg=cmd.delta_e_deg + 1.5,
                                 flap_hz=cmd.flap_hz)
        rec = []
        fly(state, stepped, params, 4.0, record=rec)
        early = [s.z_m for t, s in rec if t <= 1.0]
        dip = 2.0 - min(early)
        assert 0.0005 < dip < 0.10
        assert max(s.z_m for _, s in rec) > 2.0 + dip

    def test_flap_oscillation_at_flap_frequency(self, params):
        """FFT oracle: the steady altitude oscillation peaks at the flap
        frequency."""
        state, cmd = trim_setup(params)
        rec = []
        fly(state, cmd, params, 8.0, record=rec)
        z = np.array([s.altitude_m for t, s in rec if t >= 4.0])
        z = z - z.mean()
        freqs = np.fft.rfftfreq(z.size, DT)
        spectrum = np.abs(np.fft.rfft(z))
        peak_freq = freqs[np.argmax(spectrum)]
        assert peak_freq == pytest.approx(cmd.flap_hz, abs=0.15)
        amp = (z.max() - z.min()) / 2.0
        assert 0.01 < amp < 0.06

    def test_glide_energy_nonincreasing(self, params):
        state = RobotState(z_m=5.0, vx_mps=4.0, pitch_deg=10.0)
        cmd = ControlCommand()  # no flap, no tail input
        energy = [mechanical_energy(state, params)]
        for _ in range(int(2.0 / DT)):
            state = plant_step(state, cmd, params, DT)
            energy.append(mechanical_energy(state, params))
        for a, b in zip(energy, energy[1:]):
            assert b <= a + 1e-9

    def test_halving_dt_converged(self, params):
        """Integrator order: halving the step changes the 5 s terminal
        state by < 0.1%."""
        state0, cmd = trim_setup(params)
        coarse = fly(state0, cmd, params, 5.0)
        fine = state0
        for _ in range(int(5.0 / (DT / 2))):
            fine = plant_step(fine, cmd, params, DT / 2)
        for attr in ("x_m", "z_m", "vx_mps", "pitch_deg"):
            a, b = getattr(coarse, attr), getattr(fine, attr)
            assert abs(a - b) <= 0.001 * max(1.0, abs(b))

    def test_deterministic_and_time_invariant(self, params):
        state, cmd = trim_setup(params)
        a = fly(state, cmd, params, 1.0)
        b = fly(state, cmd, params, 1.0)
        assert a == b

    def test_dt_cap(self, params):
        state, cmd = trim_setup(params)
        with pytest.raises(ValueError):
            plant_step(state, cmd, params, 0.1)

    def test_ground_contact_stops_motion(self, params):
        state = RobotState(z_m=0.05)
        for _ in range(int(1.0 / DT)):
            state = plant_step(state, ControlCommand(), params, DT)
        assert state.altitude_m == pytest.approx(0.0, abs=1e-9)
        assert state.on_ground
        assert state.vz_mps == 0.0


class TestCommandClamping:
    def test_limits(self, params):
        cmd = ControlCommand(delta_e_deg=50.0, delta_r_deg=-50.0,
                             flap_hz=9.0, beta_cmd_deg=120.0).clamped(params)
        assert cmd.delta_e_deg == params.elevator_limit_deg
        assert cmd.delta_r_deg == -params.rudder_limit_deg
        assert cmd.flap_hz == params.max_flap_hz
        assert cmd.beta_cmd_deg == 90.0


class TestStateInvariants:
    def test_pitch_domain(self):
        with pytest.raises(ValueError):
            RobotState(pitch_deg=95.0)

    def test_claw_boresight_moves_up_with_beta(self):
        low = RobotState(z_m=2.0, beta_deg=0.0)
        high = RobotState(z_m=2.0, beta_deg=90.0)
        assert high.claw_z_m(0.2) > low.claw_z_m(0.2)
        assert high.claw_z_m(0.2) == pytest.approx(2.0)
