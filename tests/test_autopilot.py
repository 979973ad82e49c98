"""Tests for the control loops, the flap cut, and full perch missions."""

import enum
import gc
import math
import sys
import types

import numpy as np
import pytest

from perchsim import autopilot
from perchsim.autopilot import (
    DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
    DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM,
    DEFAULT_SEEDS,
    DISTURBANCE_TAU_S,
    DT,
    GLIDE_STOP_RANGE_M,
    TRAJECTORY_COLUMNS,
    Autopilot,
    LoopGains,
    MissionConfig,
    PidState,
    Termination,
    pid_step,
    run_ensemble,
    run_mission,
    run_stage,
)
from perchsim.claw import BranchSpec
from perchsim.leg import LegParams
from perchsim.perception import PIXELS, SensorSpec
from perchsim.plant import (
    AIRFRAME_MASS_KG,
    ELEVATOR_LIMIT_DEG,
    MAX_FLAP_HZ,
    RUDDER_LIMIT_DEG,
    RobotState,
    plant_step,
)
from perchsim.touchdown import PerchOutcome

ENVELOPE = {
    "vx_mps": (2.07, 2.8),
    "yaw_deg": (-8.3, 4.0),
    "pitch_deg": (23.6, 31.8),
    "y_m": (-0.23, 0.02),
    "altitude_m": (1.95, 2.06),
}


def crossing_in_envelope(state):
    return all(lo <= getattr(state, name) <= hi
               for name, (lo, hi) in ENVELOPE.items())


def column(result, name):
    """One named column of every row of a mission's trajectory."""
    return result.trajectory[:, TRAJECTORY_COLUMNS.index(name)]


class TestPidStep:
    def test_zero_error_zero_output(self):
        u, _ = pid_step(LoopGains(kp=2.0, ki=0.5, kd=0.1), 5.0, 5.0,
                        DT, PidState())
        assert u == 0.0

    def test_p_only_law(self):
        gains = LoopGains(kp=1.7)
        for err in (-3.0, 0.25, 8.0):
            u, _ = pid_step(gains, err, 0.0, DT, PidState())
            assert u == pytest.approx(1.7 * err)

    def test_output_saturation(self):
        gains = LoopGains(kp=100.0, out_min=-2.0, out_max=2.0)
        hi, _ = pid_step(gains, 10.0, 0.0, DT, PidState())
        lo, _ = pid_step(gains, -10.0, 0.0, DT, PidState())
        assert hi == 2.0
        assert lo == -2.0

    def test_integrator_clamp(self):
        gains = LoopGains(kp=0.0, ki=1.0, integrator_clamp=0.5,
                          out_min=-10.0, out_max=10.0)
        state = PidState()
        for _ in range(1000):
            u, state = pid_step(gains, 100.0, 0.0, DT, state)
        assert state.integral == 0.5
        assert u == pytest.approx(0.5)

    def test_integral_accumulates(self):
        gains = LoopGains(kp=0.0, ki=2.0, integrator_clamp=10.0)
        u1, state = pid_step(gains, 1.0, 0.0, 0.5, PidState())
        u2, state = pid_step(gains, 1.0, 0.0, 0.5, state)
        assert u2 == pytest.approx(2.0 * u1)

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            LoopGains(kp=1.0, out_min=1.0, out_max=-1.0)
        with pytest.raises(ValueError):
            LoopGains(kp=1.0, out_min=-math.inf, out_max=1.0)
        with pytest.raises(ValueError):
            LoopGains(kp=1.0, ki=10.0, integrator_clamp=100.0,
                      out_min=-1.0, out_max=1.0)


class TestControlCycle:
    def test_glide_stop_kills_flapping(self):
        ap = Autopilot(MissionConfig())
        state = RobotState(x_m=13.9, z_m=1.5, vx_mps=2.5, pitch_deg=30.0)
        cmd = ap.control_cycle(state)
        assert cmd.flap_hz == 0.0

    def test_approach_branch_above_raises_leg(self):
        """Branch sits above the claw line: the hip command moves upward
        (geometric projection oracle: higher beta raises the claw)."""
        ap = Autopilot(MissionConfig())
        state = RobotState(x_m=12.6, z_m=2.0, vx_mps=2.5, pitch_deg=30.0,
                           beta_deg=45.0)
        assert state.claw_z_m(0.2) < 2.0  # claw below the branch center
        before = ap.beta_cmd
        for _ in range(10):
            cmd = ap.control_cycle(state)
        assert cmd.beta_cmd_deg > before

    def test_actuation_saturation_every_cycle(self):
        config = MissionConfig()
        result = run_mission(config)
        delta_e = column(result, "delta_e_deg")
        delta_r = column(result, "delta_r_deg")
        flap = column(result, "flap_hz")
        beta = column(result, "beta_deg")
        assert np.all(np.abs(delta_e) <= ELEVATOR_LIMIT_DEG + 1e-9)
        assert np.all(np.abs(delta_r) <= RUDDER_LIMIT_DEG + 1e-9)
        assert np.all((0.0 <= flap) & (flap <= MAX_FLAP_HZ + 1e-9))
        assert np.all((0.0 <= beta) & (beta <= 90.0))


class TestFlapCut:
    def test_forward_only(self):
        # flapping, then gliding, up to the crossing
        config = MissionConfig()
        ap = Autopilot(config)
        flapping = []
        state = RobotState(z_m=1.83, vx_mps=4.0)
        for _ in range(int(8.0 / DT)):
            if config.branch.x_m - state.x_m <= 0.0:
                break
            cmd = ap.control_cycle(state)
            flapping.append(ap.flapping)
            state = plant_step(state, cmd, config.mass_kg, DT)
        assert config.branch.x_m - state.x_m <= 0.0
        assert flapping == sorted(flapping, reverse=True)
        assert flapping[0] and not flapping[-1]

    def test_thresholds(self):
        ap = Autopilot(MissionConfig())
        assert ap.flapping
        far = RobotState(x_m=12.49, z_m=2.0, vx_mps=2.5, pitch_deg=30.0)
        assert ap.control_cycle(far).flap_hz > 0.0
        assert ap.flapping
        near = RobotState(x_m=13.81, z_m=2.0, vx_mps=2.5, pitch_deg=30.0)
        assert ap.control_cycle(near).flap_hz == 0.0
        assert not ap.flapping

    def test_cut_stays_latched(self):
        # a gust that carries the airframe back past the 0.2 m cut leaves
        # the flapping off
        ap = Autopilot(MissionConfig())
        ap.control_cycle(RobotState(x_m=13.85, z_m=2.0))
        assert not ap.flapping
        for x_m in (13.5, 12.0):
            back = RobotState(x_m=x_m, z_m=2.0, vx_mps=2.5, pitch_deg=30.0)
            assert ap.control_cycle(back).flap_hz == 0.0
        assert not ap.flapping

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gusty_mission_glides_from_the_cut(self, seed):
        # row i's command is built on the state before its step, x = 0 for
        # row 0: the last row commanded outside the cut range flaps, and
        # every row from the first inside it flies unpowered
        config = MissionConfig(
            seed=seed,
            disturbance_sigma_force_n=DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
            disturbance_sigma_moment_nm=DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM)
        result = run_mission(config)
        assert result.termination is Termination.CROSSED
        x_before = np.concatenate(([0.0], column(result, "x_m")[:-1]))
        flap = column(result, "flap_hz")
        within = np.flatnonzero(config.branch.x_m - x_before
                                <= GLIDE_STOP_RANGE_M)
        assert within.size > 0
        assert flap[within[0] - 1] > 0.0
        assert np.all(flap[within[0]:] == 0.0)


class TestRunMission:
    def test_nominal_perch(self):
        result = run_mission(MissionConfig())
        assert result.outcome is PerchOutcome.PERCHED
        assert result.crossing is not None
        assert crossing_in_envelope(result.crossing)

    def test_disturbance_free_altitude_error(self):
        result = run_mission(MissionConfig())
        assert result.altitude_error_m <= 0.10

    def test_bit_deterministic(self):
        a = run_mission(MissionConfig(seed=3))
        b = run_mission(MissionConfig(seed=3))
        assert a.outcome is b.outcome
        assert len(a.trajectory) == len(b.trajectory)
        # bytes tell -0.0 from 0.0
        assert a.trajectory.tobytes() == b.trajectory.tobytes()

    def test_lateral_deviation_bounded(self):
        for result in run_ensemble():
            assert np.all(np.abs(column(result, "y_m")) <= 0.6)

    def test_setpoint_variants_mean_error(self):
        errors = []
        for sp in (1.75, 2.0, 2.25):
            result = run_mission(MissionConfig(altitude_setpoint_m=sp))
            errors.append(result.altitude_error_m)
        assert sum(errors) / len(errors) <= 0.16

    def test_tumble_ends_as_miss(self):
        result = run_mission(MissionConfig(soft_branch=True,
                                           disturbance_sigma_moment_nm=0.5))
        assert result.outcome is PerchOutcome.MISSED
        assert result.impact is None
        assert result.termination is Termination.DIVERGED
        # the step that diverged ends one period after the last row
        assert result.end_t_s == column(result, "t_s")[-1] + DT

    def test_nan_flap_ends_as_miss(self, monkeypatch):
        # a NaN flap reaches the plant as limited left it; the altitude
        # goes NaN in the first powered step, and the plant says so
        init = Autopilot.__init__

        def nan_trim(self, config):
            init(self, config)
            self.trim_flap = math.nan

        monkeypatch.setattr(Autopilot, "__init__", nan_trim)
        result = run_mission(MissionConfig())
        assert result.outcome is PerchOutcome.MISSED
        assert result.impact is None
        assert result.termination is Termination.DIVERGED
        assert result.end_t_s == DT
        assert result.trajectory.shape == (0, len(TRAJECTORY_COLUMNS))

    def test_claw_height_uses_leg_length(self, monkeypatch):
        monkeypatch.setattr(autopilot, "ROBOT_LEG",
                            LegParams(link_length_m=0.25))
        config = MissionConfig()
        result = run_mission(config)
        assert result.crossing is not None
        assert result.claw_misalignment_m == (
            config.branch.z_m - result.crossing.claw_z_m(0.25))

    def test_soft_branch_never_locks(self):
        result = run_mission(MissionConfig(soft_branch=True))
        assert result.impact is not None
        assert not result.impact.locked
        assert result.outcome is PerchOutcome.MISSED

    def test_one_command_per_row(self, monkeypatch):
        # the crossing ends the flight before a command is built for it
        calls = []
        control_cycle = Autopilot.control_cycle

        def counted(self, state):
            calls.append(state.x_m)
            return control_cycle(self, state)

        monkeypatch.setattr(Autopilot, "control_cycle", counted)
        config = MissionConfig()
        result = run_mission(config)
        assert result.termination is Termination.CROSSED
        assert len(calls) == len(result.trajectory)
        assert all(config.branch.x_m - x_m > 0.0 for x_m in calls)

    def test_airframe_mass_reaches_impact_and_touchdown(self, monkeypatch):
        # the leg impact and the touchdown pivot both see the airframe's
        # mass, not the default's
        mass_kg = 0.8
        assert mass_kg != AIRFRAME_MASS_KG
        masses = []
        impact = autopilot.legmod.simulate_impact
        touchdown = autopilot.evaluate_touchdown

        def spy_impact(leg, total_mass_kg=AIRFRAME_MASS_KG, **kwargs):
            masses.append(("impact", total_mass_kg))
            return impact(leg, total_mass_kg=total_mass_kg, **kwargs)

        def spy_touchdown(state, *args):
            masses.append(("touchdown", state.mass_kg))
            return touchdown(state, *args)

        monkeypatch.setattr(autopilot.legmod, "simulate_impact", spy_impact)
        monkeypatch.setattr(autopilot, "evaluate_touchdown", spy_touchdown)
        # the heavier airframe sags about 0.1 m at the branch; a setpoint
        # 0.1 m higher brings the claw into the capture window, so it locks
        result = run_mission(MissionConfig(mass_kg=mass_kg,
                                           altitude_setpoint_m=2.1))
        assert result.impact.locked
        assert masses == [("impact", 0.8), ("touchdown", 0.8)]
        masses.clear()
        run_stage(1, MissionConfig(mass_kg=mass_kg))
        assert masses and masses == [("impact", 0.8)] * len(masses)


def numpy_gusts(config, steps):
    """Reference: the gust model on numpy arrays that ``_Disturbance``
    replaced."""
    rng = np.random.Generator(
        np.random.Philox(key=[np.uint64(config.seed), np.uint64(2)]))
    rho = math.exp(-DT / DISTURBANCE_TAU_S)
    weight = np.array([0.1, 0.25, 1.0])
    force, moment = np.zeros(3), np.zeros(2)
    for _ in range(steps):
        scale = math.sqrt(1.0 - rho * rho)
        force = (rho * force + config.disturbance_sigma_force_n * scale
                 * weight * rng.standard_normal(3))
        moment = (rho * moment
                  + config.disturbance_sigma_moment_nm * scale
                  * rng.standard_normal(2))
        yield tuple(force), tuple(moment)


class TestDisturbance:
    @pytest.mark.parametrize("seed", [0, 3, 17])
    @pytest.mark.parametrize("sigmas", [
        (DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
         DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM),
        (0.5, 0.05),
    ])
    def test_matches_numpy_reference(self, seed, sigmas):
        config = MissionConfig(seed=seed, disturbance_sigma_force_n=sigmas[0],
                               disturbance_sigma_moment_nm=sigmas[1])
        gust = autopilot._Disturbance(config)
        for want_force, want_moment in numpy_gusts(config, 500):
            force, moment = gust.step()
            assert all(type(v) is float for v in force + moment)
            # repr tells -0.0 from 0.0
            assert list(map(repr, force)) == [repr(float(v))
                                              for v in want_force]
            assert list(map(repr, moment)) == [repr(float(v))
                                               for v in want_moment]


def per_frame_noise(rng, sigma):
    """Reference: one draw per frame, the sensor stream before blocks."""
    while True:
        yield rng.normal(0.0, sigma, PIXELS)


def per_cycle_gusts(rng):
    """Reference: the gust stream before blocks, two draws per cycle."""
    while True:
        yield rng.standard_normal(3).tolist() + rng.standard_normal(2).tolist()


def sensor_rng(config):
    return np.random.Generator(
        np.random.Philox(key=[np.uint64(config.seed), np.uint64(1)]))


class TestBlockDraws:
    """Sensor noise and gusts are drawn in blocks; each frame and cycle
    still gets the bits of a draw of its own."""

    @pytest.mark.parametrize("sigma", [0.0, 0.02, 1.0])
    def test_noise_rows_match_per_frame_draws(self, monkeypatch, sigma):
        monkeypatch.setattr(autopilot, "ROBOT_SENSOR",
                            SensorSpec(noise_sigma=sigma))
        config = MissionConfig(seed=11)
        rows = Autopilot(config).noise_rows
        want = per_frame_noise(sensor_rng(config), sigma)
        # across three block boundaries and into a fourth block
        for _ in range(3 * autopilot.NOISE_BLOCK_FRAMES + 1):
            assert next(rows).tobytes() == next(want).tobytes()

    def test_gust_reference_crosses_blocks(self):
        # TestDisturbance compares 500 cycles, which must span two blocks
        assert 500 > 2 * autopilot.GUST_BLOCK_CYCLES

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_mission_matches_per_frame_draws(self, monkeypatch, seed):
        # at the default 0.02 the noise flips no detection, so a mission
        # would not show a wrong noise bit; at 0.2 it does
        monkeypatch.setattr(autopilot, "ROBOT_SENSOR",
                            SensorSpec(noise_sigma=0.2))
        config = MissionConfig(
            seed=seed,
            disturbance_sigma_force_n=DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
            disturbance_sigma_moment_nm=DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM)
        frames = []
        render_scan = autopilot.render_scan

        def counted(*args):
            frames.append(None)
            return render_scan(*args)

        monkeypatch.setattr(autopilot, "render_scan", counted)
        blocked = run_mission(config)
        frames_flown = len(frames)
        monkeypatch.setattr(autopilot, "_noise_rows", per_frame_noise)
        monkeypatch.setattr(autopilot, "_gust_normals", per_cycle_gusts)
        reference = run_mission(config)
        # the mission ends inside a block of each stream
        assert frames_flown % autopilot.NOISE_BLOCK_FRAMES != 0
        assert len(blocked.trajectory) % autopilot.GUST_BLOCK_CYCLES != 0
        # bytes tell -0.0 from 0.0
        assert blocked.trajectory.shape == reference.trajectory.shape
        assert blocked.trajectory.tobytes() == reference.trajectory.tobytes()
        assert blocked.outcome is reference.outcome
        assert blocked.crossing == reference.crossing
        assert blocked.impact == reference.impact


def bytes_reachable(obj):
    """``sys.getsizeof`` summed over every object reachable from ``obj``,
    an array's base buffer included.  Classes, modules and enum members
    outlive any one result, so the walk stops at them."""
    seen, stack, total = set(), [obj], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               enum.Enum)):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
        if isinstance(obj, np.ndarray) and obj.base is not None:
            stack.append(obj.base)
    return total


class TestTrajectoryArray:
    """A mission keeps its trajectory as one float64 array, one row per
    control cycle and one column per `TRAJECTORY_COLUMNS` name."""

    @pytest.mark.parametrize("config, termination", [
        (MissionConfig(), Termination.CROSSED),
        (MissionConfig(
            seed=3, soft_branch=True,
            disturbance_sigma_force_n=DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
            disturbance_sigma_moment_nm=DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM),
         Termination.CROSSED),
        # tumbles at 1.57 s
        (MissionConfig(soft_branch=True, disturbance_sigma_moment_nm=0.5),
         Termination.DIVERGED),
        # out of time: the branch lies beyond MAX_MISSION_TIME_S of flight
        (MissionConfig(branch=BranchSpec(x_m=100.0)), Termination.TIMEOUT),
        # launched at rest, strikes the ground at about 0.93 s
        (MissionConfig(launch_speed_mps=0.0), Termination.GROUND_STRIKE),
    ], ids=["nominal", "gusty", "tumble", "timeout", "ground_strike"])
    def test_float64_rows_of_eleven(self, config, termination):
        result = run_mission(config)
        assert result.termination is termination
        trajectory = result.trajectory
        assert type(trajectory) is np.ndarray
        assert trajectory.dtype == np.float64
        assert trajectory.flags.c_contiguous
        assert trajectory.ndim == 2
        assert trajectory.shape[0] > 0
        assert trajectory.shape[1] == len(TRAJECTORY_COLUMNS) == 11
        # one row per control cycle, in order
        t = column(result, "t_s")
        assert np.all(np.diff(t) > 0.0)
        assert t[0] == DT
        # the last step flown ends at the last row; a step that diverged
        # is tried, not flown, and ends one period later
        tried = DT if termination is Termination.DIVERGED else 0.0
        assert result.end_t_s == t[-1] + tried
        crossed = termination is Termination.CROSSED
        assert (result.crossing is not None) is crossed
        assert (result.impact is not None) is crossed
        assert math.isfinite(result.altitude_error_m) is crossed
        assert math.isfinite(result.claw_misalignment_m) is crossed

    def test_bytes_kept_per_row(self):
        result = run_mission(MissionConfig())
        rows = len(result.trajectory)
        assert rows > 500
        # 88 B of float64 a row, and the result's few fixed objects
        assert bytes_reachable(result) / rows < 150


class TestEnsemble:
    def test_six_of_nine_perched_within_envelope(self):
        results = run_ensemble()
        assert len(results) == len(DEFAULT_SEEDS)
        perched = [r for r in results if r.outcome is PerchOutcome.PERCHED]
        assert len(perched) >= 6
        for r in perched:
            assert crossing_in_envelope(r.crossing)

    def test_ensemble_applies_default_gusts(self):
        results = run_ensemble()
        outcomes = {r.outcome for r in results}
        assert len(outcomes) > 1  # gusts produce both successes and failures


class TestTuningProcedure:
    """The four development stages, each run with `run_stage`."""

    def test_stages_in_order_all_pass(self):
        # the ensemble flies the default gust level, the others calm air
        gusty = MissionConfig(
            disturbance_sigma_force_n=DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
            disturbance_sigma_moment_nm=DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM)
        for stage in (1, 2, 3, 4):
            report = run_stage(stage, gusty if stage == 4 else MissionConfig())
            assert report.passed, report

    def test_invalid_stage(self):
        with pytest.raises(ValueError):
            run_stage(5, MissionConfig())

    def test_stage_one_lock_rate(self):
        report = run_stage(1, MissionConfig())
        assert report.metrics["lock_rate"] == 1.0

    def test_stage_three_logs_contact_force(self):
        report = run_stage(3, MissionConfig())
        assert report.metrics["locked"] == 0.0
        assert report.metrics["peak_force_n"] > 0.0

    def test_stage_three_fails_without_contact(self):
        # gusts tumble the airframe at 1.57 s, before it reaches the branch
        config = MissionConfig(disturbance_sigma_moment_nm=0.5)
        report = run_stage(3, config)
        assert report.passed is False
        assert report.missions[0].impact is None
        assert math.isnan(report.metrics["peak_force_n"])


class TestRunStage:
    def test_stage_two_flies_the_airframe_without_its_appendage(
            self, monkeypatch):
        # the 0.8 kg airframe flies stage 2, its mission and its pitch step,
        # 0.18 kg lighter
        masses = set()
        step = autopilot.plant_step

        def spy_step(state, cmd, mass_kg, *args, **kwargs):
            masses.add(mass_kg)
            return step(state, cmd, mass_kg, *args, **kwargs)

        monkeypatch.setattr(autopilot, "plant_step", spy_step)
        run_stage(2, MissionConfig(mass_kg=0.8))
        assert len(masses) == 1
        assert masses.pop() == pytest.approx(0.62, abs=1e-12)

    def test_stage_two_rejects_an_airframe_no_heavier_than_its_appendage(
            self):
        with pytest.raises(ValueError, match=r"0\.18 kg appendage, so its "
                                             r"mass_kg 0\.18 kg must exceed"):
            run_stage(2, MissionConfig(mass_kg=0.18))

    def test_stage_two_pitch_step_ignores_the_cut(self):
        # a branch 1 m out cuts the flapping early in the 3 s pitch step;
        # the pitch dynamics read no flap, so the step scores the same
        near = run_stage(2, MissionConfig(branch=BranchSpec(x_m=1.0)))
        far = run_stage(2, MissionConfig())
        for name in ("settle_s", "overshoot_deg"):
            assert near.metrics[name] == far.metrics[name]

    def test_stage_two_renders_one_frame_per_mission_cycle(self,
                                                           monkeypatch):
        # the pitch step flies the pitch loop alone, so only the mission's
        # leg loop reads the sensor
        frames = []
        render_scan = autopilot.render_scan

        def counted(*args):
            frames.append(None)
            return render_scan(*args)

        monkeypatch.setattr(autopilot, "render_scan", counted)
        report = run_stage(2, MissionConfig())
        assert len(frames) == len(report.missions[0].trajectory) > 0

    def test_stage_two_keeps_the_config_gusts(self):
        calm = run_stage(2, MissionConfig())
        gusty = run_stage(2, MissionConfig(disturbance_sigma_force_n=0.5))
        assert (gusty.metrics["altitude_error_m"]
                != calm.metrics["altitude_error_m"])

    def test_stage_four_seeds_follow_the_config(self, monkeypatch):
        flown = []

        def fake_ensemble(config, seeds):
            flown.append((config, list(seeds)))
            return []

        monkeypatch.setattr(autopilot, "run_ensemble", fake_ensemble)
        config = MissionConfig(seed=5)
        report = run_stage(4, config)
        assert flown == [(config, list(range(5, 14)))]
        assert report.passed is False

    def test_stage_four_flies_the_config_gusts(self, monkeypatch):
        # zero gusts mean zero; only an ensemble given no config flies the
        # default gust level
        flown = []

        def fake_mission(config):
            flown.append((config.disturbance_sigma_force_n,
                          config.disturbance_sigma_moment_nm))
            return types.SimpleNamespace(outcome=PerchOutcome.MISSED)

        monkeypatch.setattr(autopilot, "run_mission", fake_mission)
        run_stage(4, MissionConfig())
        assert flown == [(0.0, 0.0)] * len(DEFAULT_SEEDS)
        flown.clear()
        run_ensemble()
        assert flown == [(DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
                          DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM)] * len(
                              DEFAULT_SEEDS)

    def test_stage_four_checks_every_seed_before_flying(self, monkeypatch):
        flown = []
        monkeypatch.setattr(autopilot, "run_mission", flown.append)
        with pytest.raises(ValueError, match="^MissionConfig.seed must lie"):
            run_stage(4, MissionConfig(seed=2**64 - 8))
        assert flown == []
