"""Tests for the bistable claw statics and dynamics."""

import math
import random

import pytest

from perchsim import claw
from perchsim.claw import (
    BranchSpec,
    BranchSurface,
    ClawGeometry,
)


@pytest.fixture
def geom():
    return ClawGeometry()


def finite_difference_torque(geom, psi_deg, h_deg=1e-3):
    """Independent oracle: torque = -dU/dpsi by central differences."""
    u_plus = claw.spring_potential(geom, psi_deg + h_deg)
    u_minus = claw.spring_potential(geom, psi_deg - h_deg)
    return -(u_plus - u_minus) / (2.0 * math.radians(h_deg))


def spring_force(extension_mm):
    """Spring tension in N; zero below zero extension."""
    return claw.SPRING_RATE_N_PER_MM * max(0.0, extension_mm)


class TestSpringForce:
    def test_zero_extension(self):
        assert spring_force(0.0) == 0.0

    def test_rated_extension(self):
        # 111 N / (5 N/mm) = 22.2 mm
        assert spring_force(22.2) == pytest.approx(111.0)

    def test_linear_law(self):
        assert spring_force(10.0) == pytest.approx(50.0)

    def test_negative_extension_clamps_to_zero(self):
        assert spring_force(-5.0) == 0.0


class TestClawTorque:
    def test_zero_at_snap(self, geom):
        snap = claw.snap_angle(geom)
        assert abs(claw.claw_torque(geom, snap)) < 1e-6

    def test_small_opening_torque_at_rest(self, geom):
        tau = claw.claw_torque(geom, geom.psi_open)
        assert abs(tau) < 0.2
        assert tau < 0.0  # holds the claw open

    def test_matches_energy_gradient(self, geom):
        for psi in [-3.5, 0.0, 10.0, 25.0, 40.0, 54.0]:
            expected = finite_difference_torque(geom, psi)
            got = claw.claw_torque(geom, psi)
            assert got == pytest.approx(expected, rel=1e-4, abs=1e-9)

    def test_out_of_range_rejected(self, geom):
        with pytest.raises(ValueError):
            claw.claw_torque(geom, -30.0)


def random_bistable_geometry(rng):
    """Random anchor perturbations that keep the type invariants."""
    while True:
        r_a = rng.uniform(26.0, 32.0)
        theta = rng.uniform(85.0, 90.0)
        r_b = rng.uniform(29.0, 34.0)
        geom = ClawGeometry(
            spring_anchor_claw=(
                r_a * math.cos(math.radians(theta)),
                r_a * math.sin(math.radians(theta)),
            ),
            spring_anchor_frame=(0.0, -r_b),
            psi_open=rng.uniform(-6.0, -2.0),
            psi_closed=rng.uniform(48.0, 60.0),
        )
        try:
            snap = claw.snap_angle(geom)
        except claw.GeometryNotBistableError:
            continue
        if geom.psi_open < snap < geom.psi_closed:
            return geom


class TestSnapAngle:
    def test_sign_change_across_snap(self, geom):
        snap = claw.snap_angle(geom)
        assert geom.psi_open < snap < geom.psi_closed
        # independent sign-scan oracle at 0.1 deg steps
        psi = geom.psi_open
        crossings = 0
        prev = claw.claw_torque(geom, psi)
        while psi < geom.psi_closed - 0.1:
            psi += 0.1
            cur = claw.claw_torque(geom, psi)
            if prev * cur < 0:
                crossings += 1
                assert psi - 0.1 <= snap <= psi
            prev = cur
        assert crossings == 1

    def test_degenerate_anchor_on_pivot_line(self, geom):
        # claw anchor rotated so the spring line passes the pivot at psi_open:
        # anchor opposite the frame anchor at psi_open (straight up at -4 deg)
        r_a = 30.0
        theta0 = 90.0 - geom.psi_open
        degenerate = ClawGeometry(
            spring_anchor_claw=(
                r_a * math.cos(math.radians(theta0)),
                r_a * math.sin(math.radians(theta0)),
            )
        )
        assert claw.snap_angle(degenerate) == pytest.approx(
            degenerate.psi_open, abs=1e-6
        )

    def test_mirror_symmetry(self, geom):
        snap = claw.snap_angle(geom)
        ax, ay = geom.spring_anchor_claw
        mirrored = ClawGeometry(
            spring_anchor_claw=(-ax, ay),
            psi_open=-geom.psi_closed,
            psi_closed=-geom.psi_open,
        )
        assert claw.snap_angle(mirrored) == pytest.approx(-snap, abs=1e-5)

    def test_not_bistable_raises(self):
        # anchor so close to the pivot that the spring never goes slack-side
        bad = ClawGeometry(spring_anchor_claw=(0.0, 2.0))
        with pytest.raises(claw.GeometryNotBistableError):
            claw.snap_angle(bad)


class TestReleaseForce:
    def test_calibrated_value(self, geom):
        assert claw.release_force(geom) == pytest.approx(11.4, rel=0.15)

    def test_division_consistency(self):
        # the two published numbers: 0.2 N*m over a 17.5 mm lever
        assert 0.2 / 0.0175 == pytest.approx(11.43, abs=0.01)

    def test_exact_by_construction(self, geom):
        force = claw.release_force(geom)
        tau = abs(claw.claw_torque(geom, geom.psi_open))
        assert force * geom.trigger_lever / 1000.0 == pytest.approx(tau, rel=1e-12)

    def test_lever_doubled_halves_force(self, geom):
        doubled = ClawGeometry(trigger_lever=2 * geom.trigger_lever)
        assert claw.release_force(doubled) == pytest.approx(
            0.5 * claw.release_force(geom)
        )

    def test_bad_lever_rejected(self):
        with pytest.raises(ValueError):
            claw.release_force(ClawGeometry(trigger_lever=0.0))


class TestContactForce:
    def test_nominal_branch(self, geom):
        force = claw.contact_force(geom, BranchSpec())
        assert force == pytest.approx(56.8, rel=0.05)

    def test_flat_over_design_range(self, geom):
        nominal = claw.contact_force(geom, BranchSpec())
        d = 0.04
        while d <= 0.0701:
            force = claw.contact_force(geom, BranchSpec(diameter_m=d))
            assert abs(force - nominal) <= 0.10 * nominal
            d += 0.0025

    def test_degraded_but_positive_at_11cm(self, geom):
        nominal = claw.contact_force(geom, BranchSpec())
        wide = claw.contact_force(geom, BranchSpec(diameter_m=0.11))
        assert 0.0 < wide < nominal

    def test_too_thin_branch_rejected(self, geom):
        with pytest.raises(claw.NoSpikeContactError):
            claw.contact_force(geom, BranchSpec(diameter_m=0.03))


class TestHoldingTorque:
    def test_pads_hold_two_newton_meters(self, geom):
        hold = claw.holding_torque(geom, BranchSpec())
        assert hold >= 2.0

    def test_surface_ranking(self, geom):
        holds = {
            surface: claw.holding_torque(geom, BranchSpec(surface=surface))
            for surface in BranchSurface
        }
        assert (
            holds[BranchSurface.SPIKES_PLUS_PADS]
            > holds[BranchSurface.SPIKES_ONLY]
            > holds[BranchSurface.BARE_CARBON]
        )

    def test_flat_over_design_range(self, geom):
        nominal = claw.holding_torque(geom, BranchSpec())
        d = 0.04
        while d <= 0.0701:
            hold = claw.holding_torque(geom, BranchSpec(diameter_m=d))
            assert abs(hold - nominal) <= 0.10 * nominal
            d += 0.0025

    def test_monotone_above_seven_cm(self, geom):
        diameters = [0.07 + 0.001 * i for i in range(41)]
        forces = [
            claw.contact_force(geom, BranchSpec(diameter_m=d))
            for d in diameters
        ]
        holds = [
            claw.holding_torque(geom, BranchSpec(diameter_m=d))
            for d in diameters
        ]
        for a, b in zip(forces, forces[1:]):
            assert b <= a + 1e-12
        for a, b in zip(holds, holds[1:]):
            assert b <= a + 1e-12


class TestClosingDynamics:
    def test_close_time_near_25ms(self, geom):
        _, close_ms = claw.closing_dynamics(geom)
        assert close_ms == pytest.approx(25.0, rel=0.40)

    def test_final_state_locked(self, geom):
        # the trigger state rests 0.5 deg past the snap angle; the locked
        # one has reached the closed angle, still moving
        (trigger, locked), _ = claw.closing_dynamics(geom)
        assert trigger.psi_deg == pytest.approx(claw.snap_angle(geom) + 0.5)
        assert trigger.psi_rate_dps == 0.0
        assert locked.psi_deg == pytest.approx(geom.psi_closed)
        assert locked.psi_rate_dps > 0.0

    def test_undamped_energy_balance(self, geom):
        states, _ = claw.closing_dynamics(geom, damping=0.0)
        start, end = states[0], states[-1]
        potential_drop = claw.spring_potential(
            geom, start.psi_deg) - claw.spring_potential(geom, end.psi_deg)
        kinetic = 0.5 * geom.claw_inertia * math.radians(end.psi_rate_dps) ** 2
        assert kinetic == pytest.approx(potential_drop, rel=0.005)

    def test_pendulum_time_scaling(self, geom):
        _, t1 = claw.closing_dynamics(geom, damping=0.0)
        heavy = ClawGeometry(claw_inertia=4.0 * geom.claw_inertia)
        _, t2 = claw.closing_dynamics(heavy, damping=0.0)
        assert t2 / t1 == pytest.approx(2.0, rel=0.01)

    # a claw that gains energy, or a damping that is no number, is rejected
    # by name rather than closing, or failing on its travel range
    @pytest.mark.parametrize("damping", [math.nan, math.inf, -1.0])
    def test_bad_damping_rejected(self, geom, damping):
        with pytest.raises(ValueError, match="^damping must be"):
            claw.closing_dynamics(geom, damping=damping)


class TestReopenProfile:
    def test_defaults_match_published_figures(self):
        duration, power, peak = claw.reopen_profile()
        assert duration == pytest.approx(20.0, rel=0.25)
        assert power == pytest.approx(3.0, rel=0.30)
        assert peak <= 200.0

    def test_zero_travel(self):
        assert claw.reopen_profile(travel_mm=0.0) == (0.0, 0.0, 0.0)

    def test_speed_doubled_same_work(self):
        d1, p1, _ = claw.reopen_profile(speed_mm_s=2.0)
        d2, p2, _ = claw.reopen_profile(speed_mm_s=4.0)
        assert d2 == pytest.approx(0.5 * d1)
        assert p2 == pytest.approx(2.0 * p1)
        assert p1 * d1 == pytest.approx(p2 * d2)  # same total work

    def test_insufficient_capacity(self):
        with pytest.raises(claw.CannotReopenError):
            claw.reopen_profile(pull_capacity_n=10.0)

    @pytest.mark.parametrize("name, value", [
        ("travel_mm", math.nan), ("travel_mm", math.inf), ("travel_mm", -1.0),
        ("speed_mm_s", math.nan), ("speed_mm_s", math.inf),
        ("speed_mm_s", 0.0), ("pull_capacity_n", math.nan)])
    def test_bad_input_rejected(self, name, value):
        with pytest.raises(ValueError):
            claw.reopen_profile(**{name: value})


class TestEnergyConsistencyProperty:
    def test_torque_is_energy_gradient_for_random_geometries(self):
        rng = random.Random(20240817)
        for _ in range(100):
            geom = random_bistable_geometry(rng)
            lo = geom.psi_open + 0.1
            hi = geom.psi_closed - 0.1
            for _ in range(5):
                psi = rng.uniform(lo, hi)
                expected = finite_difference_torque(geom, psi)
                got = claw.claw_torque(geom, psi)
                assert got == pytest.approx(expected, rel=1e-4, abs=1e-7)


def test_sweep_rows(geom):
    rows = claw.diameter_sweep(geom, [0.04, 0.06, 0.07])
    assert len(rows) == 3
    assert rows[1][1] == pytest.approx(56.8, rel=0.05)

