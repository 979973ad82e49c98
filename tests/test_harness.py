"""Tests for configuration plumbing, launcher kinematics, and scenarios."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from perchsim.config import (
    ConfigError,
    parse_config,
    serialize_config,
)
from perchsim.harness import (
    EXIT_CONFIG_ERROR,
    EXIT_CRITERIA_FAILED,
    EXIT_SUCCESS,
    OVERRIDES,
    LaunchProfile,
    RunConfig,
    Scenario,
    launch_profile,
    run_scenario,
)
from perchsim.autopilot import MissionConfig, TrajectoryRow, run_stage
from perchsim.cli import main


class TestConfigFormat:
    def test_parse_basic_types(self):
        text = """
        # comment
        mission.launch_speed_mps = 4.0
        branch.diameter_m = 0.06
        mission.soft_branch = true
        run.label = nightly
        run.count = 3
        """
        cfg = parse_config(text)
        assert cfg["mission.launch_speed_mps"] == 4.0
        assert cfg["mission.soft_branch"] is True
        assert cfg["run.label"] == "nightly"
        assert cfg["run.count"] == 3

    def test_round_trip_identity(self):
        text = "b.y = 2.5\na.x = 1\nc.z = hello\nd.w = false\n"
        once = parse_config(text)
        again = parse_config(serialize_config(once))
        assert once == again
        # serialization itself is stable
        assert serialize_config(once) == serialize_config(again)

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("no equals sign here")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("a.b = 1\na.b = 2")

    def test_unknown_override_rejected(self):
        # the branch is square to the flight line: no key yaws it
        for key in ("mission.warp_drive", "branch.axis_yaw_deg"):
            with pytest.raises(ConfigError,
                               match=f"^unknown config keys: {key}$"):
                RunConfig(scenario=Scenario.FULL_PERCH, overrides={key: 0.0})


def built(overrides):
    """The mission config and launch profile the harness builds."""
    cfg = RunConfig(Scenario.FULL_PERCH, overrides=overrides)
    return cfg.mission, cfg.launcher


# One non-default value per accepted key, and where it must land.
ROUTES = [
    ("mission.launch_speed_mps", 3.5, lambda m, p: m.launch_speed_mps),
    ("mission.pitch_setpoint_deg", 25.0, lambda m, p: m.pitch_setpoint_deg),
    ("mission.altitude_setpoint_m", 1.5, lambda m, p: m.altitude_setpoint_m),
    ("mission.launch_lateral_offset_m", 0.1,
     lambda m, p: m.launch_lateral_offset_m),
    ("mission.launch_altitude_offset_m", -0.3,
     lambda m, p: m.launch_altitude_offset_m),
    ("mission.disturbance_sigma_force_n", 0.5,
     lambda m, p: m.disturbance_sigma_force_n),
    ("mission.disturbance_sigma_moment_nm", 0.01,
     lambda m, p: m.disturbance_sigma_moment_nm),
    ("mission.soft_branch", True, lambda m, p: m.soft_branch),
    ("branch.diameter_m", 0.08, lambda m, p: m.branch.diameter_m),
    ("branch.x_m", 12.0, lambda m, p: m.branch.x_m),
    ("branch.z_m", 1.5, lambda m, p: m.branch.z_m),
    ("launcher.rail_length_m", 0.9, lambda m, p: p.rail_length_m),
]

CONFIG_VALUES = st.one_of(st.text(), st.booleans(), st.integers(),
                          st.floats())


def settable_paths(obj, prefix=""):
    """The dotted path of every init field of ``obj``, a nested dataclass
    walked field by field."""
    for f in dataclasses.fields(obj):
        if f.init:
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                yield from settable_paths(value, f"{prefix}{f.name}.")
            else:
                yield prefix + f.name


class TestOverrides:
    def test_accepted_keys(self):
        assert set(OVERRIDES) == {key for key, _, _ in ROUTES}

    def test_mission_holds_only_what_a_run_sets(self):
        # a config key, the seed, stage 2's airframe mass or the branch
        # surface; the robot's fixed parts are module constants
        keys = {key.removeprefix("mission.") for key in OVERRIDES
                if not key.startswith("launcher.")}
        paths = list(settable_paths(MissionConfig()))
        assert len(paths) == len(set(paths)) == 14
        assert set(paths) == keys | {"seed", "robot.mass_kg",
                                     "branch.surface"}

    @pytest.mark.parametrize("key,value,target", ROUTES,
                             ids=[key for key, _, _ in ROUTES])
    def test_key_reaches_its_field(self, key, value, target):
        assert target(*built({})) != value
        assert target(*built({key: value})) == value

    def test_int_accepted_for_float(self):
        _, profile = built({"launcher.rail_length_m": 2})
        assert repr(profile.rail_length_m) == "2.0"  # launcher.csv bytes

    @settings(deadline=None)
    @given(key=st.sampled_from(sorted(OVERRIDES)), value=CONFIG_VALUES)
    @example(key="branch.x_m", value=10 ** 400)  # too large for a float
    def test_any_value_builds_or_is_a_config_error(self, key, value):
        try:
            built({key: value})
        except ConfigError:
            pass


class TestLaunchProfile:
    def test_published_rail(self):
        profile = launch_profile(4.0, 1.6)
        assert profile.acceleration_mps2 == 5.0

    def test_zero_speed(self):
        assert launch_profile(0.0, 1.6).acceleration_mps2 == 0.0

    def test_half_rail_doubles_acceleration(self):
        assert launch_profile(4.0, 0.8).acceleration_mps2 == 10.0

    def test_speed_cap(self):
        for speed in (5.5, math.nan, -1.0):
            with pytest.raises(ConfigError):
                launch_profile(speed, 1.6)

    def test_invalid_rail(self):
        # 5e-324 m is positive, but 4 m/s over it overflows to inf m/s^2
        for rail in (0.0, 5e-324):
            with pytest.raises(ConfigError):
                launch_profile(4.0, rail)

    def test_defaults(self):
        profile = LaunchProfile()
        assert profile.lateral_offset_m == 0.4


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestScenarios:
    def test_claw_sweep(self, tmp_path):
        code = run_scenario(RunConfig(Scenario.CLAW_SWEEP,
                                      out_dir=str(tmp_path)))
        assert code == EXIT_SUCCESS
        rows = read_csv(tmp_path / "claw_sweep.csv")
        assert rows[0] == ["diameter_m", "contact_force_n",
                           "holding_torque_nm"]
        assert len(rows) > 10

    @pytest.mark.xfail(strict=True, reason="harness._fmt writes numpy "
                       "scalars as np.float64(...); perfbench pins the bytes")
    def test_claw_sweep_fields_are_numbers(self, tmp_path):
        run_scenario(RunConfig(Scenario.CLAW_SWEEP, out_dir=str(tmp_path)))
        for row in read_csv(tmp_path / "claw_sweep.csv")[1:]:
            for value in row:
                float(value)

    def test_impact_suite(self, tmp_path):
        code = run_scenario(RunConfig(Scenario.IMPACT_SUITE,
                                      out_dir=str(tmp_path)))
        assert code == EXIT_SUCCESS
        rows = read_csv(tmp_path / "impact_suite.csv")
        peaks = [float(r[2]) for r in rows[1:]]
        assert max(peaks) < 150.0

    def test_envelope_emits_two_grids(self, tmp_path):
        code = run_scenario(RunConfig(Scenario.ENVELOPE,
                                      out_dir=str(tmp_path)))
        assert code == EXIT_SUCCESS
        assert (tmp_path / "envelope_speed.csv").exists()
        assert (tmp_path / "envelope_yaw.csv").exists()

    def test_envelope_reads_the_run_branch(self, tmp_path):
        """A 0.2 m branch holds 0.372 N*m against the 6 cm branch's 2.001,
        so fewer cells of each grid perch."""
        perched = {}
        for diameter in (0.06, 0.2):
            out = tmp_path / str(diameter)
            code = run_scenario(RunConfig(
                Scenario.ENVELOPE, out_dir=str(out),
                overrides={"branch.diameter_m": diameter}))
            assert code == EXIT_SUCCESS
            perched[diameter] = [
                sum(row[2] == "Perched" for row in read_csv(out / name))
                for name in ("envelope_speed.csv", "envelope_yaw.csv")]
        assert perched == {0.06: [348, 157], 0.2: [6, 0]}

    def test_optimize_log_monotone(self, tmp_path):
        code = run_scenario(RunConfig(Scenario.OPTIMIZE,
                                      out_dir=str(tmp_path)))
        assert code == EXIT_SUCCESS
        rows = read_csv(tmp_path / "pso_log.csv")
        costs = [float(r[1]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_launcher_profile(self, tmp_path):
        code = run_scenario(RunConfig(Scenario.LAUNCHER_PROFILE,
                                      out_dir=str(tmp_path)))
        assert code == EXIT_SUCCESS
        rows = read_csv(tmp_path / "launcher.csv")
        assert float(rows[1][2]) == 5.0
        assert rows[1][3] == "0.4"

    def test_launcher_profile_takes_the_mission_lateral_offset(self,
                                                                tmp_path):
        code = run_scenario(RunConfig(
            Scenario.LAUNCHER_PROFILE, out_dir=str(tmp_path),
            overrides={"mission.launch_lateral_offset_m": 0.1}))
        assert code == EXIT_SUCCESS
        assert read_csv(tmp_path / "launcher.csv")[1][3] == "0.1"

    def test_soft_branch_never_locks(self, tmp_path):
        code = run_scenario(RunConfig(Scenario.SOFT_BRANCH,
                                      out_dir=str(tmp_path)))
        assert code == EXIT_SUCCESS
        summary = (tmp_path / "summary.txt").read_text()
        assert "locked = False" in summary

    def test_soft_branch_fails_when_the_leg_misses(self, tmp_path):
        # flying 0.5 m under the branch, the airframe crosses it untouched
        code = run_scenario(RunConfig(
            Scenario.SOFT_BRANCH, out_dir=str(tmp_path),
            overrides={"mission.altitude_setpoint_m": 1.5}))
        assert code == EXIT_CRITERIA_FAILED
        summary = (tmp_path / "summary.txt").read_text()
        assert "peak_force_n = 0.00" in summary
        assert "locked = False" in summary

    def test_full_perch_summary(self, tmp_path):
        code = run_scenario(RunConfig(Scenario.FULL_PERCH,
                                      out_dir=str(tmp_path)))
        assert code == EXIT_SUCCESS
        rows = read_csv(tmp_path / "ensemble.csv")
        assert rows[0][:2] == ["seed", "outcome"]
        perched = sum(r[1] == "Perched" for r in rows[1:])
        assert perched >= 6

    # SHA-256 of every file the three flight scenarios write at seed 0
    # (FullPerch's are perfbench/expected.json's perch_ensemble digests): a
    # change to the flight stack must keep every byte
    @pytest.mark.parametrize("scenario, digests", [
        (Scenario.FLIGHT_ONLY, {
            "summary.txt": "17f58263de144212ca5339891887334b"
                           "40af80d2d3dcdcf12062799b44b034e6",
            "trajectory.csv": "beecfdbc965a56bb14b88e0a342ecf32"
                              "5775bf14b6f75108a26e7c6524b31799",
        }),
        (Scenario.SOFT_BRANCH, {
            "summary.txt": "0bd550f42d75bb9b771a856379b0f566"
                           "fec0d89a5b964ece7eae7900f655bb5e",
            "trajectory.csv": "f5c169c1c0fa31e6313067b3f5e15759"
                              "d23d0c2600d617fa5c922ab6664c06b6",
        }),
        (Scenario.FULL_PERCH, {
            "ensemble.csv": "7fc1b3d5fa9bf8757b9c84d07c8d845c"
                            "70fea5b9cdd46dd804251f7db23001c5",
            "run_0.csv": "db033eaea290f54bde975db50b996199"
                         "5467b1f29cbb5846dd500bb3ed04dba3",
            "run_1.csv": "fdd17544405e2032f5748a3b6e017839"
                         "35044ee87c2bf423356f570138c3e0f8",
            "run_2.csv": "8c51a97f87d6ecb7431d7b8d43a74030"
                         "5710041b0bcc939f086ce5a15b37101a",
            "run_3.csv": "4a5687e3414199e6ed433996bbbf097d"
                         "b5a9a6f9afe7378b15bb8880b7a0b495",
            "run_4.csv": "d3ac490bf3bdc93bf97a6824824a1144"
                         "daee74afa89ec2625f089a33bdf96924",
            "run_5.csv": "990d78854494f7953b1c716df41173fc"
                         "f266d34c03f31b0cd0dd3368bfebb697",
            "run_6.csv": "5cec1becfbee700dedb42a6b7fb58724"
                         "be80543fc05a0d581124321c1c45ab1a",
            "run_7.csv": "f519eb466d6a38ad9766e2c7115e310a"
                         "a0db4889e0fbae179ee75e05a484d474",
            "run_8.csv": "f233366c5630c2d5da25d23612934b17"
                         "82c53c377fed19df8177a883f615643a",
            "summary.txt": "520a5bdff57f5b0a41165a0616adc075"
                           "392baa267ef4537c2b4848cf0fe8a047",
        }),
    ])
    def test_flight_outputs_pinned(self, tmp_path, scenario, digests):
        code = run_scenario(RunConfig(scenario, out_dir=str(tmp_path), seed=0))
        assert code == EXIT_SUCCESS
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.iterdir()} == digests
        # every value is written as a Python float, never a numpy scalar
        for path in tmp_path.iterdir():
            assert b"np.float64(" not in path.read_bytes()

    # SHA-256 of summary.txt at seed 0 for the scenarios that fly nothing
    @pytest.mark.parametrize("scenario, digest", [
        pytest.param(Scenario(name), digest, id=name)
        for name, digest in [
            ("ClawSweep", "74b2c634743b399db3b92a65689e0586"
                          "417afddd9a23b3cb5a55997fa7c66f9a"),
            ("ImpactSuite", "c09a4a2ab2ff158d302932716325f3c9"
                            "1546566b95592d2c6876967cffb24b23"),
            ("Envelope", "5df9dac89b25f76cca668974c38a00e3"
                         "40d92d5b3b7c760341b8a088bd88afba"),
            ("Optimize", "400c43ff5f9bdde7d3e5b9d80dfb4f46"
                         "1a7a98eaebfd54a880f5e012d3cff5e9"),
            ("LauncherProfile", "cc95e5113dbf457e504db268dc4d3b0a"
                                "5d64b96b672b6bd17ff3f9f829a31e9c"),
        ]
    ])
    def test_summary_pinned(self, tmp_path, scenario, digest):
        assert run_scenario(RunConfig(scenario, out_dir=str(tmp_path),
                                      seed=0)) == EXIT_SUCCESS
        summary = (tmp_path / "summary.txt").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == digest

    @pytest.mark.parametrize("scenario, overrides", [
        *[pytest.param(s, {}, id=s.value) for s in Scenario],
        # tumbles before the branch: the criteria fail
        pytest.param(Scenario.SOFT_BRANCH,
                     {"mission.disturbance_sigma_moment_nm": 0.5},
                     id="SoftBranch-tumble"),
    ])
    def test_summary_framed_by_name_and_verdict(self, tmp_path, scenario,
                                                overrides):
        code = run_scenario(RunConfig(scenario, out_dir=str(tmp_path),
                                      overrides=overrides))
        assert code in (EXIT_SUCCESS, EXIT_CRITERIA_FAILED)
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        assert lines[0] == f"scenario = {scenario.value}"
        assert lines[-1] == f"criteria_met = {code == EXIT_SUCCESS}"
        assert sum(line.startswith(("scenario = ", "criteria_met = "))
                   for line in lines) == 2

    def test_trajectory_csv_reads_back_bit_for_bit(self, tmp_path):
        cfg = RunConfig(Scenario.FLIGHT_ONLY, out_dir=str(tmp_path),
                        overrides={"mission.disturbance_sigma_force_n": 0.2})
        trajectory = run_stage(2, cfg.mission).missions[0].trajectory
        run_scenario(cfg)
        header, *rows = read_csv(tmp_path / "trajectory.csv")
        assert tuple(header) == TrajectoryRow._fields
        # bytes tell -0.0 from 0.0
        assert (np.array(rows, dtype=float).tobytes()
                == trajectory.tobytes())

    def test_no_cycle_flown_writes_the_header_alone(self, tmp_path):
        # a branch at the launch point: the first cycle is the crossing
        cfg = RunConfig(Scenario.SOFT_BRANCH, out_dir=str(tmp_path),
                        overrides={"branch.x_m": 0.0})
        trajectory = run_stage(3, cfg.mission).missions[0].trajectory
        assert trajectory.shape == (0, 11)
        assert trajectory.dtype == np.float64
        assert run_scenario(cfg) == EXIT_CRITERIA_FAILED
        assert (tmp_path / "trajectory.csv").read_bytes() == (
            b"t_s,x_m,y_m,z_m,vx_mps,theta_deg,psi_deg,flap_hz,delta_e_deg,"
            b"delta_r_deg,beta_deg\n")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(RunConfig(Scenario.IMPACT_SUITE, out_dir=str(a)))
        run_scenario(RunConfig(Scenario.IMPACT_SUITE, out_dir=str(b)))
        assert (a / "impact_suite.csv").read_bytes() == \
            (b / "impact_suite.csv").read_bytes()


# a config file: any bytes, or lines that set config keys to any value
CONFIG_FILES = st.one_of(st.binary(), st.lists(st.builds(
    "{} = {}".format, st.sampled_from(OVERRIDES),
    st.one_of(st.text(), st.floats().map(repr), st.integers().map(str),
              st.sampled_from(["true", "false"])))).map(
    lambda lines: "\n".join(lines).encode("utf-8")))


class TestCli:
    def test_exit_codes_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        # the launcher's speed is mission.launch_speed_mps: no key of its own
        for line in ("mission.warp_drive = 9",
                     "launcher.target_speed_mps = 4"):
            bad.write_text(line + "\n")
            code = main(["FullPerch", "--config", str(bad),
                         "--out", str(tmp_path)])
            assert code == 2

    def test_missing_config_file(self, tmp_path):
        code = main(["FullPerch", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"mission.launch_speed_mps = 3.0\n\xff\n")
        out = tmp_path / "out"
        code = main(["LauncherProfile", "--config", str(cfg),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"perchsim: configuration error: {cfg}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @settings(max_examples=60, deadline=None)
    @given(CONFIG_FILES)
    @example(b"\xff")
    def test_any_config_file(self, data):
        """Whatever a config file holds, the CLI runs or exits 2 with one
        line on stderr and no output directory; it never raises."""
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
            cfg.write_bytes(data)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["LauncherProfile", "--config", str(cfg),
                             "--out", str(out)])
            assert code in (EXIT_SUCCESS, EXIT_CONFIG_ERROR)
            if code == EXIT_CONFIG_ERROR:
                assert err.getvalue().count("\n") == 1
                assert not out.exists()

    def test_launcher_profile_cli(self, tmp_path):
        code = main(["LauncherProfile", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "launcher.csv").exists()

    def test_config_override_applied(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mission.launch_speed_mps = 3.0\n")
        code = main(["LauncherProfile", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "launcher.csv")
        assert rows[1] == ["3.0", "1.6", "2.8125", "0.4"]

    @pytest.mark.parametrize("line", [
        *[pytest.param(line, id=line) for line in [
            "branch.diameter_m = abc",
            "branch.diameter_m = -1",
            "launcher.rail_length_m = abc",
            "mission.soft_branch = 1",
            "mission.launch_speed_mps = -1",
            "mission.disturbance_sigma_force_n = -1",
            "mission.disturbance_sigma_moment_nm = -1",
            "mission.launch_speed_mps = nan",
            "mission.pitch_setpoint_deg = 44",
            "branch.diameter_m = 0.02",
            "branch.axis_yaw_deg = 5",
            "launcher.rail_length_m = 5e-324",
        ]],
        # only the light airframe, which FlightOnly flies, trims at 36 deg:
        # checked against the full one
        pytest.param("mission.pitch_setpoint_deg = 36",
                     id="FlightOnly-mission.pitch_setpoint_deg = 36"),
        # too wide for the claw, so FullPerch could not classify its
        # touchdowns: it would close short of its snap angle (0.219), or
        # past its travel (0.25 and up)
        *[pytest.param(f"branch.diameter_m = {d}",
                       id=f"FullPerch-branch.diameter_m = {d}")
          for d in (0.219, 0.25, 0.5)],
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, line):
        """Every scenario checks every key: a bad value exits 2 with one
        line on stderr, before the output directory is made."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        for scenario in Scenario:
            out = tmp_path / scenario.value
            code = main([scenario.value, "--config", str(cfg),
                         "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 2, scenario
            assert err.startswith("perchsim: configuration error: ")
            assert err.count("\n") == 1
            assert not out.exists(), scenario

    def test_widest_branch_flies(self, tmp_path, capsys):
        """A branch just narrower than the widest the claw holds with a
        non-negative torque flies the ensemble, and the seeds that lock
        have their touchdowns classified."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("branch.diameter_m = 0.215\n")
        code = main(["FullPerch", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code in (EXIT_SUCCESS, EXIT_CRITERIA_FAILED)
        assert capsys.readouterr().err == ""
        outcomes = [row[1] for row in read_csv(tmp_path / "ensemble.csv")[1:]]
        assert len(outcomes) == 9 and "FallBackward" in outcomes

    # FullPerch flies the seed and the next eight, each a uint64 Philox key
    @pytest.mark.parametrize("scenario, seed, code", [
        ("FullPerch", -1, 2),
        ("Optimize", -1, 2),
        ("FullPerch", 2**64 - 9, None),   # the largest seed accepted
        ("FullPerch", 2**64 - 8, 2),
        ("FlightOnly", 2**64 - 8, 2),
    ])
    def test_seed_range(self, tmp_path, capsys, scenario, seed, code):
        got = main([scenario, "--seed", str(seed), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        if code is None:
            assert got in (EXIT_SUCCESS, EXIT_CRITERIA_FAILED)
            assert err == ""
            assert (tmp_path / f"run_{2**64 - 1}.csv").exists()
            return
        assert got == code
        assert err == ("perchsim: configuration error: RunConfig.seed must "
                       f"lie in [0, {2**64 - 9}], got {seed}\n")

    def test_tumbling_airframe_is_a_miss(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mission.disturbance_sigma_moment_nm = 0.5\n")
        code = main(["SoftBranch", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_CRITERIA_FAILED
        assert capsys.readouterr().err == ""
        summary = (tmp_path / "summary.txt").read_text().splitlines()
        assert "criteria_met = False" in summary
        diverged = [line for line in summary
                    if line.startswith("diverged_t_s = ")]
        assert len(diverged) == 1
        rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) > 1
        # the tumble happened in the step after the last trajectory row
        assert float(diverged[0].split(" = ")[1]) > float(rows[-1][0])

    def test_flight_scenarios_agree_with_their_stages(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mission.disturbance_sigma_moment_nm = 0.5\n")
        config = MissionConfig(disturbance_sigma_moment_nm=0.5)
        for scenario, stage in (("FlightOnly", 2), ("SoftBranch", 3)):
            out = tmp_path / scenario
            code = main([scenario, "--config", str(cfg), "--out", str(out)])
            report = run_stage(stage, config)
            assert code == (EXIT_SUCCESS if report.passed
                            else EXIT_CRITERIA_FAILED)
            if stage == 2:
                summary = (out / "summary.txt").read_text().splitlines()
                err = report.metrics["altitude_error_m"]
                assert f"altitude_error_m = {err:.4f}" in summary

    def test_overspeed_config_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mission.launch_speed_mps = 5.5\n")
        code = main(["LauncherProfile", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 2
