"""Tests for touchdown classification and perching envelopes."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies

from perchsim import claw, touchdown
from perchsim.claw import BranchSpec, ClawGeometry
from perchsim.harness import RunConfig, Scenario, run_scenario
from perchsim.touchdown import (
    GRAVITY,
    PerchOutcome,
    TouchdownState,
    evaluate_touchdown,
    sweep_envelope,
)


def scaling_envelope(length_m, reference_length_m=1.5,
                     reference_speed_mps=4.0):
    """Maximum perch speed under the constant L*v^2 kinetic-energy scaling."""
    if length_m <= 0:
        raise ValueError("length must be positive")
    return reference_speed_mps * math.sqrt(reference_length_m / length_m)


@pytest.fixture
def hold():
    return claw.holding_torque(ClawGeometry(), BranchSpec())


def start_angle_deg(st):
    """The CoM's start angle behind vertical-up, from the module constants."""
    return (touchdown.START_ANGLE_BASE_DEG
            + touchdown.START_ANGLE_PER_LEG_DEG * (90.0 - st.theta_leg_deg)
            + touchdown.START_ANGLE_PER_PITCH_DEG * (st.body_pitch_deg - 30.0))


def yawed_hold(hold_nm, psi_branch_deg):
    """The hold a branch yawed by ``psi_branch_deg`` leaves the grip."""
    c = math.cos(math.radians(min(89.9, abs(psi_branch_deg))))
    return hold_nm * c ** touchdown.YAW_HOLD_POWER


def rotation_budget(budget_deg):
    """Run the touchdown, and the oracles here, with another rotation
    budget."""
    return mock.patch.object(touchdown, "ROTATION_BUDGET_DEG", budget_deg)


def brute_force_outcome(st, hold_nm, dt=2e-5):
    """Independent oracle: integrate the pivot ODE with Coulomb friction at
    the hold torque and classify from where the motion stops."""
    com, inertia = touchdown.COM_OFFSET_M, touchdown.INERTIA_KGM2
    hold_eff = yawed_hold(hold_nm, st.psi_branch_deg)
    mgr = st.mass_kg * GRAVITY * com
    delta0 = math.radians(start_angle_deg(st))
    budget = math.radians(touchdown.ROTATION_BUDGET_DEG)
    tangential = max(0.0, math.cos(delta0))
    omega = -(st.mass_kg * st.speed_mps * com * tangential
              / inertia)  # forward rotation decreases delta
    delta = delta0
    if omega < 0.0:
        for _ in range(int(10.0 / dt)):
            acc = (mgr * math.sin(delta) + hold_eff) / inertia
            omega += acc * dt  # gravity pulls back toward delta0; friction resists
            delta += omega * dt
            if delta0 - delta >= budget:
                return PerchOutcome.FALL_FORWARD
            if omega >= 0.0:
                break
    gravity_torque = mgr * math.sin(abs(delta))
    if gravity_torque > hold_eff:
        return (PerchOutcome.FALL_BACKWARD if delta > 0.0
                else PerchOutcome.FALL_FORWARD)
    return PerchOutcome.PERCHED


class TestEvaluateTouchdown:
    def test_operating_point_perches(self, hold):
        st = TouchdownState(speed_mps=2.5, theta_leg_deg=90.0)
        assert evaluate_touchdown(st, hold) is PerchOutcome.PERCHED

    def test_zero_speed_falls_backward(self, hold):
        st = TouchdownState(speed_mps=0.0)
        assert evaluate_touchdown(st, hold) is PerchOutcome.FALL_BACKWARD

    def test_infinite_hold_always_perches(self):
        for v in (0.5, 2.5, 6.0, 20.0):
            st = TouchdownState(speed_mps=v)
            assert evaluate_touchdown(st, math.inf) is PerchOutcome.PERCHED

    @pytest.mark.parametrize("hold_nm", [math.nan, -1e-9, -1.0, -math.inf])
    def test_bad_hold_rejected(self, hold_nm):
        # NaN fails every comparison, which would let a 7.9 m/s touchdown
        # perch
        st = TouchdownState(speed_mps=7.9)
        with pytest.raises(ValueError):
            evaluate_touchdown(st, hold_nm)

    def test_high_speed_falls_forward(self, hold):
        st = TouchdownState(speed_mps=7.5, theta_leg_deg=90.0)
        assert evaluate_touchdown(st, hold) is PerchOutcome.FALL_FORWARD

    def test_psi_symmetry(self, hold):
        for v in (1.0, 2.5, 4.0):
            for psi in (5.0, 12.0, 18.0):
                plus = evaluate_touchdown(
                    TouchdownState(speed_mps=v, psi_branch_deg=psi), hold)
                minus = evaluate_touchdown(
                    TouchdownState(speed_mps=v, psi_branch_deg=-psi), hold)
                assert plus is minus

    # the start angle is 180 deg at pitch 273 and -180 deg at pitch -447
    @pytest.mark.parametrize("pitch", [273.0, -447.0])
    def test_half_turn_start_angle_accepted(self, hold, pitch):
        st = TouchdownState(theta_leg_deg=90.0, body_pitch_deg=pitch)
        assert abs(start_angle_deg(st)) == 180.0
        evaluate_touchdown(st, hold)

    # a pitch of 1e308 was classified Perched; the ids are those the cases
    # had when each also carried a pivot calibration
    @pytest.mark.parametrize("pitch", [273.001, -447.001, 1e308], ids=[
        "273.001-geom0", "-447.001-geom1", "1e+308-geom2"])
    def test_start_angle_past_a_half_turn_rejected(self, hold, pitch):
        st = TouchdownState(theta_leg_deg=90.0, body_pitch_deg=pitch)
        with pytest.raises(ValueError, match=r"^touchdown start angle must "
                                             r"lie in \[-180, 180\] deg, got"):
            evaluate_touchdown(st, hold)


def eighty_pass_touchdown(st, hold_nm):
    """Reference: the classifier as it was with a fixed 80-pass bisection.

    Returns the outcome, the name of the return that gave it and, past the
    forward-fall check, the bisection's inputs with the stop angle."""
    com, inertia = touchdown.COM_OFFSET_M, touchdown.INERTIA_KGM2
    if math.isinf(hold_nm):
        return PerchOutcome.PERCHED, "infinite_hold", None
    hold = yawed_hold(hold_nm, st.psi_branch_deg)
    mgr = st.mass_kg * GRAVITY * com
    delta0 = math.radians(start_angle_deg(st))
    budget = math.radians(touchdown.ROTATION_BUDGET_DEG)

    def work(dtheta):
        return (mgr * (math.cos(delta0 - dtheta) - math.cos(delta0))
                + hold * dtheta)

    tangential = max(0.0, math.cos(delta0))
    omega0 = st.mass_kg * st.speed_mps * com * tangential / inertia
    energy = 0.5 * inertia * omega0 * omega0
    if energy >= work(budget):
        return PerchOutcome.FALL_FORWARD, "over_budget", None
    lo, hi = 0.0, budget
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if work(mid) < energy:
            lo = mid
        else:
            hi = mid
    delta_stop = delta0 - 0.5 * (lo + hi)
    bisection = ((delta0, math.cos(delta0), budget, mgr, hold, energy),
                 delta_stop)
    if mgr * math.sin(abs(delta_stop)) > hold:
        if delta_stop > 0.0:
            return PerchOutcome.FALL_BACKWARD, "slips_back", bisection
        return PerchOutcome.FALL_FORWARD, "slips_forward", bisection
    return PerchOutcome.PERCHED, "holds", bisection


class TestEightyPassOracle:
    """Run to the end, the bisection stops at its fixed point, with the same
    bits as the fixed 80 passes; the classifier, which ends it once the
    outcome is settled, gives the 80-pass outcome.

    The examples reach every return but the forward slip after the
    bisection. That one needs the stop past the work maximum, where the
    work falls with rotation, and bisection keeps ``work(lo) < energy <=
    work(hi)``, so it only finds a stop where the work rises: there the
    gravity torque past the vertical is at most the hold.
    """

    # (touchdown, hold, rotation budget)
    BUDGET = touchdown.ROTATION_BUDGET_DEG
    EXAMPLES = {
        "infinite_hold": (TouchdownState(), math.inf, BUDGET),
        "over_budget": (TouchdownState(speed_mps=6.0), 2.0, BUDGET),
        # no impact energy: the midpoint halves toward 0 for all 80 passes
        "slips_back": (TouchdownState(speed_mps=0.0), 2.0, BUDGET),
        "holds": (TouchdownState(), 2.0, BUDGET),
    }

    def test_examples_reach_each_return(self):
        returns = {}
        for name, (st, hold_nm, budget) in self.EXAMPLES.items():
            with rotation_budget(budget):
                returns[name] = eighty_pass_touchdown(st, hold_nm)[1]
        assert returns == {name: name for name in self.EXAMPLES}

    @given(case=strategies.tuples(
        strategies.builds(TouchdownState,
                          speed_mps=strategies.floats(0.0, 8.0),
                          theta_leg_deg=strategies.floats(0.0, 90.0),
                          psi_branch_deg=strategies.floats(-89.0, 89.0),
                          body_pitch_deg=strategies.floats(-120.0, 120.0)),
        strategies.floats(0.0, 4.0) | strategies.just(math.inf),
        strategies.floats(1.0, 300.0)))
    @example(case=EXAMPLES["infinite_hold"])
    @example(case=EXAMPLES["over_budget"])
    @example(case=EXAMPLES["slips_back"])
    @example(case=EXAMPLES["holds"])
    # a stop angle of 119 deg, past pi/2, where the gravity torque falls as
    # the angle grows: an end of the bracket does not bound it there
    @example(case=(TouchdownState(speed_mps=0.25, theta_leg_deg=27.0,
                                  psi_branch_deg=30.0, body_pitch_deg=120.0),
                   2.9, 190.0))
    def test_matches_eighty_passes(self, case):
        st, hold_nm, budget = case
        # patched in the body: hypothesis rejects a function-scoped fixture
        with rotation_budget(budget):
            outcome, _, bisection = eighty_pass_touchdown(st, hold_nm)
            assert evaluate_touchdown(st, hold_nm) is outcome
        if bisection is not None:
            args, delta_stop = bisection
            # infinite bounds never end the bisection early: full depth
            assert args[0] - touchdown._stop_rotation(
                *args, -math.inf, math.inf) == delta_stop


class TestKnifeEdge:
    """Where the outcome flips with speed, the early exit still matches the
    80-pass oracle on the adjacent doubles either side of the flip."""

    @settings(deadline=None, max_examples=60)
    # (theta_leg, psi_branch, body_pitch, hold, rotation budget)
    @given(case=strategies.tuples(
        strategies.floats(0.0, 90.0), strategies.floats(-89.0, 89.0),
        strategies.floats(-60.0, 60.0), strategies.floats(0.0, 4.0),
        strategies.floats(1.0, 300.0)))
    # the default operating row: perched between two falls
    @example(case=(90.0, 0.0, 30.0, 2.0, 60.0))
    def test_matches_oracle_across_the_flip(self, case):
        theta, psi, pitch, hold_nm, budget = case

        def at(speed):
            return TouchdownState(speed_mps=speed, theta_leg_deg=theta,
                                  psi_branch_deg=psi, body_pitch_deg=pitch)

        def oracle(speed):
            return eighty_pass_touchdown(at(speed), hold_nm)[0]

        with rotation_budget(budget):
            slow, fast = 0.0, 8.0
            first = oracle(slow)
            assume(oracle(fast) is not first)
            while True:   # bisect on speed down to adjacent doubles
                mid = 0.5 * (slow + fast)
                if mid == slow or mid == fast:
                    break
                if oracle(mid) is first:
                    slow = mid
                else:
                    fast = mid
            assert math.nextafter(slow, math.inf) == fast
            for speed in (slow, fast):
                assert evaluate_touchdown(at(speed), hold_nm) is oracle(speed)


@pytest.fixture
def cos_calls(monkeypatch):
    """Arguments of every ``math.cos`` call the touchdown module makes."""
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def cos(x):
            calls.append(x)
            return math.cos(x)

    monkeypatch.setattr(touchdown, "math", CountingMath())
    return calls


class TestEarlyExit:
    def test_envelope_grid_ends_most_bisections_early(self, cos_calls,
                                                      monkeypatch, tmp_path):
        run_scenario(RunConfig(Scenario.ENVELOPE, out_dir=str(tmp_path / "a")))
        early = len(cos_calls)
        # an infinite margin never settles a bracket: full-depth bisections
        monkeypatch.setattr(touchdown, "_HOLD_MARGIN", math.inf)
        cos_calls.clear()
        run_scenario(RunConfig(Scenario.ENVELOPE, out_dir=str(tmp_path / "b")))
        assert early < 0.5 * len(cos_calls)
        for name in ("envelope_speed.csv", "envelope_yaw.csv", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestOdeOracle:
    def test_agreement_on_grid(self, hold):
        """Closed-form energy walk vs brute-force pivot ODE: >= 95%
        agreement on a 20x20 grid."""
        thetas = np.linspace(40.0, 90.0, 20)
        speeds = np.linspace(0.0, 8.0, 20)
        agree = 0
        for th in thetas:
            for v in speeds:
                st = TouchdownState(speed_mps=float(v),
                                    theta_leg_deg=float(th))
                if evaluate_touchdown(st, hold) is \
                        brute_force_outcome(st, hold):
                    agree += 1
        assert agree >= 0.95 * 400


class TestSweepEnvelope:
    def test_speed_ordering_per_row(self, hold):
        thetas = np.arange(40.0, 91.0, 5.0)
        speeds = np.arange(0.0, 8.01, 0.25)
        speed_grid, _ = sweep_envelope(thetas, speeds, [], hold)
        order = {PerchOutcome.FALL_BACKWARD: 0, PerchOutcome.PERCHED: 1,
                 PerchOutcome.FALL_FORWARD: 2}
        rows_with_band = 0
        for i in range(speed_grid.shape[0]):
            codes = [order[o] for o in speed_grid[i]]
            assert codes == sorted(codes)  # back -> perch -> forward
            if 1 in codes:
                rows_with_band += 1
        assert rows_with_band >= 3

    def test_perched_band_brackets_flight_envelope(self, hold):
        speeds = np.arange(1.9, 3.01, 0.1)
        grid, _ = sweep_envelope([90.0], speeds, [], hold)
        assert all(o is PerchOutcome.PERCHED for o in grid[0])

    def test_yaw_half_width_in_published_range(self, hold):
        psis = np.arange(-25.0, 25.1, 0.5)
        _, yaw_grid = sweep_envelope([90.0], [], psis, hold)
        perched = [abs(p) for p, o in zip(psis, yaw_grid[0])
                   if o is PerchOutcome.PERCHED]
        half_width = max(perched)
        assert 10.0 <= half_width <= 20.0

    def test_more_hold_never_shrinks_band(self, hold):
        speeds = np.arange(0.0, 8.01, 0.25)
        lo, _ = sweep_envelope([90.0, 75.0], speeds, [], hold)
        hi, _ = sweep_envelope([90.0, 75.0], speeds, [], 1.5 * hold)
        for i in range(lo.shape[0]):
            for j in range(lo.shape[1]):
                if lo[i, j] is PerchOutcome.PERCHED:
                    assert hi[i, j] is PerchOutcome.PERCHED

    def test_zero_size_grid(self, hold):
        speed_grid, yaw_grid = sweep_envelope([], [], [], hold)
        assert speed_grid.size == 0
        assert yaw_grid.size == 0


class TestScalingEnvelope:
    def test_reference_identity(self):
        assert scaling_envelope(1.5) == 4.0

    def test_quadruple_length_halves_speed(self):
        assert scaling_envelope(6.0) == pytest.approx(2.0)

    def test_product_invariant(self):
        for length in (0.5, 1.5, 3.0, 10.0):
            v = scaling_envelope(length)
            assert length * v * v == pytest.approx(1.5 * 16.0)

    def test_positive_length_required(self):
        with pytest.raises(ValueError):
            scaling_envelope(0.0)
