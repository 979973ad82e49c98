"""Acceptance gate: one test per criterion, with the stated tolerances.

Each test prints a single summary line so `pytest -v` reads as a pass/fail
report of the ten acceptance criteria.
"""

import math
import random
import time

import numpy as np
import pytest

from perchsim import claw
from perchsim.autopilot import (
    DT,
    Autopilot,
    MissionConfig,
    run_ensemble,
    run_mission,
)
from perchsim.claw import BranchSpec, BranchSurface, ClawGeometry
from perchsim.config import parse_config, serialize_config
from perchsim.harness import RunConfig, Scenario, launch_profile, run_scenario
from perchsim.leg import DESIGN_BOUNDS, LegParams, impact_sweep, leg_cost_batch, simulate_impact
from perchsim.perception import (
    PIXELS,
    SensorPose,
    SensorSpec,
    detect_branch,
    detection_limit,
    render_scan,
)
from perchsim.plant import RobotState, plant_step, trim_state
from perchsim.pso import PsoConfig, pso_minimize
from perchsim.touchdown import (
    PerchOutcome,
    TouchdownState,
    evaluate_touchdown,
    sweep_envelope,
)
from test_claw import finite_difference_torque, random_bistable_geometry
from test_touchdown import brute_force_outcome

ENVELOPE = {
    "vx_mps": (2.07, 2.8),
    "yaw_deg": (-8.3, 4.0),
    "pitch_deg": (23.6, 31.8),
    "y_m": (-0.23, 0.02),
    "altitude_m": (1.95, 2.06),
}


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok


def test_c01_claw_statics():
    """Contact 56.8 N +-5%, open torque <= 0.2 N*m, release 11.4 N +-15%,
    holding >= 2.0 N*m; runtime < 1 s."""
    t0 = time.time()
    geom, branch = ClawGeometry(), BranchSpec()
    contact = claw.contact_force(geom, branch)
    open_tau = abs(claw.claw_torque(geom, geom.psi_open))
    release = claw.release_force(geom)
    hold = claw.holding_torque(geom, branch)
    ok = (abs(contact - 56.8) / 56.8 <= 0.05 and open_tau <= 0.2
          and abs(release - 11.4) / 11.4 <= 0.15 and hold >= 2.0
          and time.time() - t0 < 1.0)
    report(1, ok, f"contact={contact:.1f} N, open torque={open_tau:.3f} N*m, "
                  f"release={release:.1f} N, hold={hold:.4f} N*m")


def test_c02_diameter_robustness():
    """Holding within 10% of the 6 cm value over 4-7 cm, positive at 11 cm,
    NoSpikeContact below the geometric minimum; runtime < 1 s."""
    geom = ClawGeometry()
    hold6 = claw.holding_torque(geom, BranchSpec())
    holds = [claw.holding_torque(geom, BranchSpec(diameter_m=d))
             for d in np.arange(0.04, 0.0701, 0.005)]
    within = all(abs(h - hold6) / hold6 <= 0.10 for h in holds)
    at11 = claw.holding_torque(geom, BranchSpec(diameter_m=0.11))
    try:
        claw.contact_force(geom, BranchSpec(diameter_m=0.03))
        no_contact_raised = False
    except claw.NoSpikeContactError:
        no_contact_raised = True
    ok = within and at11 > 0.0 and no_contact_raised
    report(2, ok, f"4-7 cm spread within 10% of {hold6:.3f} N*m: {within}, "
                  f"hold(11 cm)={at11:.3f} N*m, small-branch error raised: "
                  f"{no_contact_raised}")


def test_c03_claw_dynamics():
    """Close time 25 ms +-40%, undamped energy balance within 0.5%,
    torque = -dU/dpsi rel err < 1e-4 over 100 random geometries."""
    geom = ClawGeometry()
    _, close_ms = claw.closing_dynamics(geom)
    states, _ = claw.closing_dynamics(geom, damping=0.0)
    drop = claw.spring_potential(geom, states[0].psi_deg) \
        - claw.spring_potential(geom, states[-1].psi_deg)
    kinetic = 0.5 * geom.claw_inertia * math.radians(
        states[-1].psi_rate_dps) ** 2
    energy_ok = abs(kinetic - drop) / drop <= 0.005
    rng = random.Random(20240817)
    max_rel = 0.0
    for _ in range(100):
        g = random_bistable_geometry(rng)
        psi = rng.uniform(g.psi_open + 0.1, g.psi_closed - 0.1)
        expected = finite_difference_torque(g, psi)
        got = claw.claw_torque(g, psi)
        denom = max(abs(expected), 1e-7)
        max_rel = max(max_rel, abs(got - expected) / denom)
    ok = (abs(close_ms - 25.0) / 25.0 <= 0.40 and energy_ok
          and max_rel < 1e-4)
    report(3, ok, f"close={close_ms:.1f} ms, energy err="
                  f"{abs(kinetic - drop) / drop:.2e}, "
                  f"max torque FD rel err={max_rel:.2e}")


def test_c04_impact():
    """Peak < 150 N for speeds <= 4 m/s at tested misalignments, bounce
    50 ms +-50% at defaults, force monotone in speed on a 0.25 m/s grid."""
    leg = LegParams()
    speeds = np.arange(2.0, 4.01, 0.25)
    rows = impact_sweep(leg, speeds, (-0.03, 0.0, 0.03))
    peak_max = max(r[2] for r in rows)
    rec = simulate_impact(leg, speed_mps=2.5, misalignment_z_m=0.0)
    aligned = [r for r in rows if r[1] == 0.0]
    peaks = [r[2] for r in sorted(aligned)]
    monotone = all(b >= a for a, b in zip(peaks, peaks[1:]))
    ok = (peak_max < 150.0
          and abs(rec.time_to_bounce_ms - 50.0) / 50.0 <= 0.50
          and monotone)
    report(4, ok, f"max peak={peak_max:.1f} N, bounce="
                  f"{rec.time_to_bounce_ms:.1f} ms, monotone={monotone}")


def test_c05_flight_control():
    """Pitch step settles within 1 s, overshoot < 5 deg; trim(30 deg) in
    [2.5, 3.0] m/s; infeasible above 40 deg; altitude error <= 10 cm
    disturbance-free; mean across setpoints {1.75, 2.0, 2.25} <= 16 cm."""
    config = MissionConfig()
    ap = Autopilot(config)
    state = RobotState(z_m=2.0, vx_mps=ap.trim_speed, pitch_deg=0.0)
    overshoot, settle_s, t = 0.0, math.inf, 0.0
    for _ in range(int(2.0 / DT)):
        cmd = ap.control_cycle(state)
        state = plant_step(state, cmd, config.mass_kg, DT)
        t += DT
        overshoot = max(overshoot, state.pitch_deg - 30.0)
        if abs(state.pitch_deg - 30.0) <= 1.5:
            if settle_s is math.inf:
                settle_s = t
        else:
            settle_s = math.inf
    trim30 = trim_state(30.0, config.mass_kg)
    infeasible = trim_state(45.0, config.mass_kg) is None
    err0 = run_mission(MissionConfig()).altitude_error_m
    errs = [run_mission(MissionConfig(altitude_setpoint_m=sp))
            .altitude_error_m for sp in (1.75, 2.0, 2.25)]
    mean_err = sum(errs) / len(errs)
    ok = (settle_s <= 1.0 and overshoot < 5.0
          and 2.5 <= trim30[0] <= 3.0 and infeasible
          and err0 <= 0.10 and mean_err <= 0.16)
    report(5, ok, f"settle={settle_s:.2f} s, overshoot={overshoot:.1f} deg, "
                  f"trim30={trim30[0]:.2f} m/s, infeasible@45: {infeasible}, "
                  f"alt err={err0 * 100:.1f} cm, mean={mean_err * 100:.1f} cm")


def test_c06_mission_ensemble():
    """>= 6 of the fixed 9-seed ensemble end Perched and every Perched
    crossing lies within the published state envelope."""
    results = run_ensemble()
    perched = [r for r in results if r.outcome is PerchOutcome.PERCHED]
    in_env = all(
        all(lo <= getattr(r.crossing, name) <= hi
            for name, (lo, hi) in ENVELOPE.items())
        for r in perched)
    ok = len(perched) >= 6 and in_env
    report(6, ok, f"perched={len(perched)}/9, all perched crossings in "
                  f"envelope: {in_env}")


def test_c07_envelopes():
    """Speed ordering per theta_leg row, yaw Perched half-width 10-20 deg,
    and >= 95% agreement with the brute-force pivot ODE on a 20x20 grid."""
    hold = claw.holding_torque(ClawGeometry(), BranchSpec())
    thetas = np.arange(40.0, 90.01, 5.0)
    speeds = np.arange(0.0, 8.01, 0.25)
    psis = np.arange(-25.0, 25.01, 0.5)
    speed_grid, yaw_grid = sweep_envelope(thetas, speeds, psis, hold)
    order = {PerchOutcome.FALL_BACKWARD: 0, PerchOutcome.PERCHED: 1,
             PerchOutcome.FALL_FORWARD: 2}
    ordered = all(
        [order[o] for o in row] == sorted(order[o] for o in row)
        for row in speed_grid)
    best_row = yaw_grid[-1]  # theta_leg = 90
    half_width = max(abs(p) for p, o in zip(psis, best_row)
                     if o is PerchOutcome.PERCHED)
    agree = 0
    for th in np.linspace(40.0, 90.0, 20):
        for v in np.linspace(0.0, 8.0, 20):
            st = TouchdownState(speed_mps=float(v), theta_leg_deg=float(th))
            if evaluate_touchdown(st, hold) is brute_force_outcome(st, hold):
                agree += 1
    ok = ordered and 10.0 <= half_width <= 20.0 and agree >= 380
    report(7, ok, f"rows ordered: {ordered}, yaw half-width="
                  f"{half_width:.1f} deg, ODE agreement={agree}/400")


def test_c08_perception():
    """Detection limit within 10% of 7.7 m; >= 99% detection within +-1 px
    at 1.9 m over 1000 noisy frames; gain invariance; closed leg loop cuts
    2 Hz residual below 25% of open loop."""
    from test_perception import closed_loop_rms
    spec, branch = SensorSpec(), BranchSpec()
    limit = detection_limit(spec, 0.06, 1)
    rng = np.random.default_rng(2024)
    pose = SensorPose(x_m=14.0 - 1.9, z_m=2.0)
    hits = 0
    for _ in range(1000):
        frame = render_scan(pose, branch, spec,
                            rng.normal(0.0, spec.noise_sigma, PIXELS))
        det = detect_branch(frame, spec)
        if det is not None and abs(det - 63.5) <= 1.0:
            hits += 1
    clean = render_scan(SensorPose(13.0, 2.0), branch,
                        SensorSpec(noise_sigma=0.0), np.zeros(PIXELS))
    from perchsim.perception import SensorFrame
    dimmed = SensorFrame(brightness=clean.brightness * 0.5)
    gain_ok = detect_branch(dimmed, spec) == detect_branch(clean, spec)
    from perchsim.perception import LegPdGains
    gains = LegPdGains()
    open_rms = closed_loop_rms(False, 0.05, 2.0, gains, spec, branch)
    closed_rms = closed_loop_rms(True, 0.05, 2.0, gains, spec, branch)
    ratio = closed_rms / open_rms
    ok = (abs(limit - 7.7) / 7.7 <= 0.10 and hits >= 990 and gain_ok
          and ratio < 0.25)
    report(8, ok, f"limit={limit:.2f} m, hits={hits}/1000, gain invariant: "
                  f"{gain_ok}, 2 Hz residual ratio={ratio:.3f}")


def test_c09_pso():
    """Deterministic per seed, best cost within 2% of an exhaustive 20^3
    grid on the leg design problem, history monotone; runtime < 2 min."""
    t0 = time.time()
    axes = [np.linspace(lo, hi, 20) for lo, hi in DESIGN_BOUNDS]
    grid = np.array(np.meshgrid(*axes, indexing="ij")).reshape(3, -1).T
    # 40-row chunks, each capped at the best cost so far: a row under its
    # limit comes back exact, so the minimum keeps its bits
    grid_best = math.inf
    for i in range(0, len(grid), 40):
        rows = grid[i:i + 40]
        grid_best = min(grid_best, float(np.min(
            leg_cost_batch(rows, np.full(len(rows), grid_best)))))
    cfg = PsoConfig(bounds=DESIGN_BOUNDS, particles=40, iterations=60,
                    seed=2024)
    a = pso_minimize(leg_cost_batch, cfg)
    b = pso_minimize(leg_cost_batch, cfg)
    deterministic = (a.best_cost == b.best_cost
                     and np.array_equal(a.best_x, b.best_x))
    monotone = all(y <= x for x, y in zip(a.history, a.history[1:]))
    gap = (a.best_cost - grid_best) / abs(grid_best)
    elapsed = time.time() - t0
    ok = deterministic and monotone and gap <= 0.02 and elapsed < 120.0
    report(9, ok, f"grid best={grid_best:.5f}, pso best={a.best_cost:.5f}, "
                  f"gap={gap:.2e}, deterministic: {deterministic}, "
                  f"monotone: {monotone}, {elapsed:.0f} s")


def test_c10_reproducibility(tmp_path):
    """Identical config+seed -> byte-identical CSVs; config round-trip
    identity; launch_profile(4.0, 1.6) = 5.0 m/s^2."""
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(RunConfig(Scenario.IMPACT_SUITE, out_dir=str(a), seed=1))
    run_scenario(RunConfig(Scenario.IMPACT_SUITE, out_dir=str(b), seed=1))
    identical = (a / "impact_suite.csv").read_bytes() == \
        (b / "impact_suite.csv").read_bytes()
    text = "mission.launch_speed_mps = 4.0\nbranch.diameter_m = 0.06\n"
    mapping = parse_config(text)
    round_trip = parse_config(serialize_config(mapping)) == mapping
    accel = launch_profile(4.0, 1.6).acceleration_mps2
    ok = identical and round_trip and accel == 5.0
    report(10, ok, f"byte-identical CSVs: {identical}, config round-trip: "
                   f"{round_trip}, launch accel={accel} m/s^2")
