"""Tests for the leg impact model and design cost."""

import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from perchsim import leg as legmod
from perchsim.harness import RunConfig, Scenario, run_scenario
from perchsim.leg import (
    DESIGN_SPEED_SUITE,
    SERVO_LIMIT_TORQUE_NM,
    ImpactRecord,
    IntegrationError,
    LegParams,
    impact_sweep,
    leg_cost_batch,
    simulate_impact,
    simulate_impact_batch,
)
from perchsim.pso import PsoConfig, pso_minimize


@pytest.fixture
def default_leg():
    return LegParams()


class TestImpactEnvelope:
    def test_peak_force_under_150_up_to_4mps(self, default_leg):
        for v in (2.0, 3.0, 4.0):
            rec = simulate_impact(default_leg, speed_mps=v)
            assert 0.0 < rec.peak_force_n < 150.0

    def test_bounce_time_near_50ms(self, default_leg):
        rec = simulate_impact(default_leg, speed_mps=2.5)
        assert rec.time_to_bounce_ms == pytest.approx(50.0, rel=0.50)

    def test_servo_torque_within_limit(self, default_leg):
        for v in (2.0, 3.0, 4.0):
            rec = simulate_impact(default_leg, speed_mps=v,
                                  misalignment_z_m=0.03)
            assert rec.servo_peak_torque_nm <= SERVO_LIMIT_TORQUE_NM

    def test_peak_force_monotone_in_speed(self, default_leg):
        peaks = [
            simulate_impact(default_leg, speed_mps=v).peak_force_n
            for v in np.linspace(1.0, 4.0, 7)
        ]
        for a, b in zip(peaks, peaks[1:]):
            assert b > a

    def test_misses_beyond_capture_window(self, default_leg):
        rec = simulate_impact(default_leg, speed_mps=2.5,
                              misalignment_z_m=0.08)
        assert rec.peak_force_n == 0.0
        assert rec.time_to_bounce_ms == 0.0
        assert not rec.locked

    def test_captures_within_window(self, default_leg):
        rec = simulate_impact(default_leg, speed_mps=2.5,
                              misalignment_z_m=0.04)
        assert rec.locked
        assert rec.peak_force_n > 0.0


class TestSingleDofOracle:
    def test_rigid_leg_matches_damped_oscillator(self):
        """With a near-rigid hip joint and zero misalignment the system is a
        single mass on the Kelvin-Voigt contact; compare against the
        closed-form underdamped solution sampled independently."""
        mt, v0 = 0.700, 2.5
        k = legmod.CONTACT_STIFFNESS
        zeta = legmod.CONTACT_DAMPING_RATIO
        c = 2.0 * zeta * math.sqrt(k * mt)
        wn = math.sqrt(k / mt)
        wd = wn * math.sqrt(1.0 - zeta * zeta)

        t = np.linspace(0.0, 0.2, 400001)
        x = (v0 / wd) * np.exp(-zeta * wn * t) * np.sin(wd * t)
        xd = v0 * np.exp(-zeta * wn * t) * (
            np.cos(wd * t) - (zeta * wn / wd) * np.sin(wd * t)
        )
        force = np.maximum(0.0, k * x + c * xd)
        # contact ends at the first force zero after entry
        in_contact = force > 0.0
        end_idx = np.argmax(~in_contact[1:]) + 1
        expected_peak = float(force[:end_idx].max())
        expected_bounce_ms = float(t[end_idx]) * 1000.0

        stiff = LegParams(leg_spring_rate_n_m=1e6)
        rec = simulate_impact(stiff, total_mass_kg=mt, speed_mps=v0, dt=5e-5)
        assert rec.peak_force_n == pytest.approx(expected_peak, rel=0.02)
        assert rec.time_to_bounce_ms == pytest.approx(expected_bounce_ms,
                                                      rel=0.05)


class TestNumerics:
    def test_batch_matches_scalar(self, default_leg):
        speeds = np.array([2.0, 3.0, 4.0])
        peak, t_b, servo, jl, locked = simulate_impact_batch(
            default_leg.link_length_m,
            default_leg.leg_mass_kg,
            default_leg.leg_spring_rate_n_m,
            0.700,
            speeds,
            0.02,
        )
        for i, v in enumerate(speeds):
            rec = simulate_impact(default_leg, speed_mps=float(v),
                                  misalignment_z_m=0.02)
            assert rec.peak_force_n == peak[i]
            assert rec.time_to_bounce_ms == pytest.approx(t_b[i] * 1000.0)
            assert rec.servo_peak_torque_nm == servo[i]

    def test_deterministic(self, default_leg):
        a = simulate_impact(default_leg, speed_mps=3.1, misalignment_z_m=0.01)
        b = simulate_impact(default_leg, speed_mps=3.1, misalignment_z_m=0.01)
        assert a == b

    def test_step_refinement_converges(self, default_leg):
        coarse = simulate_impact(default_leg, speed_mps=3.0, dt=2e-4)
        fine = simulate_impact(default_leg, speed_mps=3.0, dt=5e-5)
        assert coarse.peak_force_n == pytest.approx(fine.peak_force_n,
                                                    rel=0.01)
        assert coarse.time_to_bounce_ms == pytest.approx(
            fine.time_to_bounce_ms, abs=1.0)

    # a step of zero or less, or NaN, is no step either; not a
    # ZeroDivisionError, nor an all-zero record that reads as a miss
    @pytest.mark.parametrize("dt", [1e-3, 0.0, -1e-4, math.nan])
    def test_coarse_step_rejected(self, default_leg, dt):
        with pytest.raises(ValueError, match="dt"):
            simulate_impact(default_leg, dt=dt)

    def test_speed_range_enforced(self, default_leg):
        with pytest.raises(ValueError):
            simulate_impact(default_leg, speed_mps=8.0)

    # not an IntegrationError, which would blame the step size
    @pytest.mark.parametrize("mass, misalignment", [
        (math.nan, 0.0), (math.inf, 0.0), (0.7, math.inf), (0.7, -math.inf),
        (0.7, math.nan)])
    def test_non_finite_mass_or_misalignment_rejected(
            self, default_leg, mass, misalignment):
        with pytest.raises(ValueError, match="^total mass and misalignment "
                                             "must be finite$"):
            simulate_impact(default_leg, total_mass_kg=mass,
                            misalignment_z_m=misalignment)


class TestPinnedOutputs:
    """Exact kernel outputs, recorded as ``repr`` floats and compared with
    ``==``: a change to the integrator must keep every bit."""

    SPEEDS = (2.0, 2.5, 3.0, 4.0, 3.5, 4.0)
    MISALIGNMENTS = (0.0, 0.03, -0.04, 0.02, 0.06, -0.08)  # last two missed
    BATCH = {
        1e-4: (
            (61.34448784039462, 71.72195497558928, 85.24106811467198,
             117.98568591333972, 0.0, 0.0),
            (0.0498000000000004, 0.06870000000000094, 0.08170000000000131,
             0.06930000000000096, 0.0, 0.0),
            (0.0, 0.5495492293943335, 0.7820131753164083,
             0.8203599818145011, 0.0, 0.0),
            (0.0, 0.014134607372499403, 0.01984432651664723,
             0.020241194856055682, 0.0, 0.0),
            (True, True, True, True, False, False),
        ),
        2e-4: (
            (61.3859362674562, 71.78597558647238, 85.2888017080323,
             118.07658348436998, 0.0, 0.0),
            (0.04979999999999981, 0.06859999999999991, 0.08160000000000028,
             0.06919999999999993, 0.0, 0.0),
            (0.0, 0.5497412986206974, 0.7822317371245139,
             0.8206382639239145, 0.0, 0.0),
            (0.0, 0.014144248272207617, 0.01985740452751375,
             0.020255486964703473, 0.0, 0.0),
            (True, True, True, True, False, False),
        ),
    }

    @pytest.mark.parametrize("dt", [1e-4, 2e-4])
    def test_mixed_batch(self, default_leg, dt):
        out = simulate_impact_batch(
            default_leg.link_length_m, default_leg.leg_mass_kg,
            default_leg.leg_spring_rate_n_m, 0.700,
            np.array(self.SPEEDS), np.array(self.MISALIGNMENTS), dt=dt)
        assert tuple(tuple(a.tolist()) for a in out) == self.BATCH[dt]
        for i, (v, z) in enumerate(zip(self.SPEEDS, self.MISALIGNMENTS)):
            rec = simulate_impact(default_leg, speed_mps=v,
                                  misalignment_z_m=z, dt=dt)
            assert rec == ImpactRecord(
                peak_force_n=out[0][i],
                time_to_bounce_ms=out[1][i] * 1000.0,
                servo_peak_torque_nm=out[2][i],
                joint_angular_momentum=out[3][i],
                locked=bool(out[4][i]),
            )

    def test_cost_baselines(self):
        assert legmod._baselines() == (0.9814146675644674,
                                       0.024055068773550452)

    def test_cost_batch(self):
        params = np.array([[0.20, 1200.0, 0.12],
                           [0.15, 800.0, 0.08],
                           [0.28, 1800.0, 0.18]])
        assert leg_cost_batch(params).tolist() == [
            7.0, 5.820048816080302, 8.953313064993804]


class TestIntegrationError:
    def test_uncaptured_body_flies_past_two_metres(self):
        for speed in (20.0, [20.0, 3.0], [3.0, 20.0]):
            for integrate in (simulate_impact_batch, numpy_rk4):
                with pytest.raises(IntegrationError):
                    integrate(0.2, 0.12, 1200.0, 0.7, speed, 0.1)

    def test_uncaptured_lane_just_past_two_metres_runs_on(self):
        # 13.4 m/s for 0.15 s carries the body 2.01 m, so no check may stop
        # the lane early
        with pytest.raises(IntegrationError):
            simulate_impact_batch(0.2, 0.12, 1200.0, 0.7, 13.4, 0.1)

    def test_nan_speed(self):
        with pytest.raises(IntegrationError):
            simulate_impact_batch(0.2, 0.12, 1200.0, 0.7, math.nan, 0.1)

    def test_fast_miss_within_two_metres_passes(self):
        # 13 m/s for 0.15 s carries the body 1.95 m
        peak, *_ = simulate_impact_batch(0.2, 0.12, 1200.0, 0.7, 13.0, 0.1)
        assert peak == 0.0

    @pytest.mark.parametrize("link, spring", [
        (0.2, -1e6),   # k_rot * i_hip < 0: np.sqrt gives NaN
        (0.0, 1200.0),  # zero mass-matrix determinant
    ])
    def test_degenerate_lane_on_both_paths(self, link, spring):
        for speed in (2.0, np.array([2.0, 3.0])):
            for integrate in (simulate_impact_batch, numpy_rk4):
                with pytest.raises(IntegrationError):
                    integrate(link, 0.12, spring, 0.7, speed, 0.0)

    def test_negative_contact_radicand_uncaptured(self):
        # k_c * mt < 0 leaves c_c NaN, which a lane that never touches the
        # branch never reads: the lane and the oracle give the same finite
        # miss
        args = (0.2, -1.0, -1e6, -0.5)
        single = simulate_impact_batch(*args, 2.0, 0.1)
        oracle = numpy_rk4(*args, [2.0, 3.0], 0.1)
        assert [a.item() for a in single] == [a[0].item() for a in oracle]
        assert single[0] == 0.0


@pytest.fixture
def sin_calls(monkeypatch):
    """Arguments of every ``math.sin`` call the leg module makes."""
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def sin(x):
            calls.append(x)
            return math.sin(x)

    monkeypatch.setattr(legmod, "math", CountingMath())
    return calls


def numpy_rk4(link_length, leg_mass, spring_rate, total_mass, speed,
              misalignment_z, servo_stiffness=2.0, servo_damping=0.02,
              spring_anchor_fraction=0.4, joint_damping_ratio=0.7, dt=1e-4,
              t_max=0.15):
    """The impact RK4 on arrays, one numpy operation per term for all lanes
    at once: the oracle for ``simulate_impact_batch``'s float lanes.

    It takes the same lane arguments, and the joint's calibration as
    keywords whose defaults are the leg module's constants.  It returns the
    same five arrays, but integrates the signed misalignment with no
    mirroring, runs every lane to ``t_max`` and checks |x| <= 2 only at the
    end.  Its products and sums are associated as the float lanes' are, so
    the two agree bit for bit when libm's sin and cos round as numpy's do
    and sine is odd and cosine even (``test_libm_sin_cos_match_numpy``).
    """
    l, m, k_sp, mt, v0, zb = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in
          (link_length, leg_mass, spring_rate, total_mass, speed,
           misalignment_z)))
    shape = l.shape
    k_c = legmod.CONTACT_STIFFNESS
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mb = mt - m
        arm = spring_anchor_fraction * l
        k_rot = servo_stiffness + k_sp * arm * arm
        i_hip = m * l * l / 3.0
        c_rot = 2.0 * joint_damping_ratio * np.sqrt(k_rot * i_hip)
        c_c = 2.0 * legmod.CONTACT_DAMPING_RATIO * np.sqrt(k_c * mt)
        capture = np.abs(zb) <= legmod.CAPTURE_HALF_WIDTH
        ml_half = m * (l / 2.0)
        m11 = mb + m
        m11_m22 = m11 * i_hip

        # state rows: x, phi, xd, phid
        s = np.zeros((4,) + shape)
        s[2] = v0
        peak = np.zeros(shape)
        servo_peak = np.zeros(shape)
        l_peak = np.zeros(shape)
        x_max = np.zeros(shape)   # a NaN anywhere stays NaN
        touched = np.zeros(shape, dtype=bool)
        bounced = np.zeros(shape, dtype=bool)
        t_touch = np.zeros(shape)
        t_bounce = np.zeros(shape)

        def contact_force(s_):
            sin_p, cos_p = np.sin(s_[1]), np.cos(s_[1])
            r_y = l * sin_p + zb * cos_p
            delta = s_[0] + l * cos_p - zb * sin_p - l
            ddot = s_[2] - r_y * s_[3]
            f = np.zeros(shape)
            np.maximum(0.0, k_c * delta + c_c * ddot, out=f,
                       where=capture & (delta > 0.0))
            return f, r_y, sin_p, cos_p

        def deriv(s_, contact):
            f, r_y, sin_p, cos_p = contact
            m12 = -ml_half * sin_p
            q_x = ml_half * cos_p * s_[3] * s_[3] - f
            q_phi = f * r_y - k_rot * s_[1] - c_rot * s_[3]
            det = m11_m22 - m12 * m12
            k = np.empty_like(s_)
            k[:2] = s_[2:]
            k[2] = (i_hip * q_x - m12 * q_phi) / det
            k[3] = (m11 * q_phi - m12 * q_x) / det
            return k

        half_dt, sixth_dt = 0.5 * dt, dt / 6.0
        t = 0.0
        contact = contact_force(s)
        for _ in range(int(round(t_max / dt))):
            k1 = deriv(s, contact)
            s2 = s + half_dt * k1
            k2 = deriv(s2, contact_force(s2))
            s3 = s + half_dt * k2
            k3 = deriv(s3, contact_force(s3))
            s4 = s + dt * k3
            k4 = deriv(s4, contact_force(s4))
            s = s + sixth_dt * (((k1 + 2 * k2) + 2 * k3) + k4)
            t += dt

            contact = contact_force(s)
            f_now, _, sin_p, _ = contact
            in_contact = f_now > 0.0
            np.copyto(t_touch, t, where=in_contact & ~touched)
            touched |= in_contact
            new_bounce = touched & ~in_contact & ~bounced
            np.copyto(t_bounce, t - t_touch, where=new_bounce)
            bounced |= new_bounce

            np.maximum(peak, f_now, out=peak)
            np.maximum(servo_peak, np.abs(servo_stiffness * s[1]
                                          + servo_damping * s[3]),
                       out=servo_peak)
            np.maximum(l_peak, np.abs(i_hip * s[3] - ml_half * sin_p * s[2]),
                       out=l_peak)
            np.maximum(x_max, np.abs(s[0]), out=x_max)

    if not np.all(x_max <= 2.0):
        raise IntegrationError("contact integration diverged")
    time_to_bounce = np.where(touched, np.where(bounced, t_bounce, t_max), 0.0)
    return peak, time_to_bounce, servo_peak, l_peak, touched & capture


class TestFloatLanes:
    """``simulate_impact_batch`` integrates each lane on Python floats;
    ``numpy_rk4`` is the oracle for its bits."""

    def test_libm_sin_cos_match_numpy(self):
        # the two paths agree bit for bit only if these do
        phi = np.concatenate([np.linspace(-1.6, 1.6, 20001),
                              np.linspace(-7.0, 7.0, 3001), [0.0, -0.0]])
        assert [math.sin(p) for p in phi.tolist()] == np.sin(phi).tolist()
        assert [math.cos(p) for p in phi.tolist()] == np.cos(phi).tolist()
        # and the mirrored lane at -zb, which swings phi the other way, has
        # the same outputs only if sine is odd and cosine even
        assert [math.sin(-p) for p in phi.tolist()] == \
            [-math.sin(p) for p in phi.tolist()]
        assert [math.cos(-p) for p in phi.tolist()] == \
            [math.cos(p) for p in phi.tolist()]
        assert np.sin(-phi).tolist() == (-np.sin(phi)).tolist()
        assert np.cos(-phi).tolist() == np.cos(phi).tolist()

    # the early stop reads every lane input, so each one is drawn; a failing
    # example is reported as found, not shrunk: each shrink step would run
    # numpy_rk4 over the full horizon, minutes in all
    @settings(deadline=None, max_examples=40,
              phases=(Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.target))
    @given(lanes=st.lists(st.tuples(
               st.floats(0.12, 0.30), st.floats(0.06, 0.20),
               st.floats(600.0, 2000.0), st.floats(0.3, 1.5),
               st.floats(0.0, 6.0),
               st.floats(-0.08, 0.08) | st.floats(-0.5, 0.5)),
               min_size=1, max_size=3),
           dt=st.sampled_from([1e-4, 2e-4]))
    # a leg exactly at rest, one whose energy squares flush to zero, and
    # fast lanes outside the capture window, the first carried 1.95 m
    @example(lanes=[(0.2, 0.12, 1200.0, 0.7, 2.5, 0.0)], dt=2e-4)
    @example(lanes=[(0.2, 0.12, 1200.0, 0.7, 13.0, -0.1),
                    (0.2, 0.12, 1200.0, 0.7, 6.0, 0.0500001),
                    (0.2, 0.12, 1200.0, 0.7, 2.5, 0.05)], dt=1e-4)
    @example(lanes=[(0.25, 0.125, 600.0, 1.0, 1.0, 7.549783701938385e-247)],
             dt=1e-4)
    # two lanes whose outputs show the rounding of each of the four RK4
    # sums: regrouping any of them as (k1 + 2 k2) + (2 k3 + k4) or
    # (k1 + 2 (k2 + k3)) + k4 changes a bit here, as it does in only about
    # one lane in five drawn
    @example(lanes=[(0.238, 0.07, 1817.0, 1.34, 2.82, 0.008),
                    (0.132, 0.11, 1028.0, 1.14, 1.11, -0.004)], dt=1e-4)
    def test_matches_numpy_kernel(self, lanes, dt):
        n = len(lanes)
        columns = [np.array(c) for c in zip(*lanes)]
        narrow = simulate_impact_batch(*columns, dt=dt)
        oracle = numpy_rk4(*columns, dt=dt)
        assert [a.tolist() for a in narrow] == [a[:n].tolist() for a in oracle]
        single = simulate_impact_batch(*lanes[0], dt=dt)
        assert [a.item() for a in single] == [a[0].item() for a in oracle]

    def test_undamped_joint_runs_past_a_flushed_energy_bound(
            self, monkeypatch):
        """With no joint damping the leg swings on after the bounce, and
        its energy squares flush to zero: a lane that took that zero as a
        bound would stop early, short of the oracle's servo and joint
        peaks."""
        monkeypatch.setattr(legmod, "SPRING_ANCHOR_FRACTION", 0.0)
        monkeypatch.setattr(legmod, "JOINT_DAMPING_RATIO", 0.0)
        lane = (0.25, 0.125, 600.0, 1.0, 1.0, 7.549783701938385e-247)
        out = simulate_impact_batch(*lane)
        oracle = numpy_rk4(*lane, spring_anchor_fraction=0.0,
                           joint_damping_ratio=0.0)
        assert [a.item() for a in out] == [a.item() for a in oracle]

    @pytest.mark.parametrize("dt", [1e-4, 2e-4])
    def test_widest_float_call_matches_numpy_kernel(self, dt):
        rng = np.random.default_rng(7)
        n = 64
        link, leg_mass, spring, speed, misalignment = (
            rng.uniform(0.12, 0.30, n), rng.uniform(0.06, 0.20, n),
            rng.uniform(600.0, 2000.0, n), rng.uniform(0.0, 6.0, n),
            rng.uniform(-0.08, 0.08, n))
        out = simulate_impact_batch(link, leg_mass, spring, 0.700, speed,
                                    misalignment, dt=dt)
        oracle = numpy_rk4(link, leg_mass, spring, 0.700, speed,
                           misalignment, dt=dt)
        assert [a.tolist() for a in out] == [a.tolist() for a in oracle]

    @pytest.mark.parametrize("dt", [1e-4, 2e-4])
    def test_signed_misalignment_oracle(self, dt):
        """The lanes integrate |zb|; the oracle integrates the signed zb, so
        a lane and its mirror must get the same bits from both."""
        rng = np.random.default_rng(11)
        n = 8
        link, leg_mass, spring = (rng.uniform(0.12, 0.30, n),
                                  rng.uniform(0.06, 0.20, n),
                                  rng.uniform(600.0, 2000.0, n))
        speed = rng.uniform(0.0, 6.0, n)
        misalignment = rng.uniform(0.0, 0.08, n)
        misalignment[:4] = (0.03, 0.04, 0.05, 0.0)
        # each lane, then its mirror
        args = [np.tile(a, 2) for a in (link, leg_mass, spring)]
        args += [0.700, np.tile(speed, 2),
                 np.concatenate([misalignment, -misalignment])]
        out = simulate_impact_batch(*args, dt=dt)
        oracle = numpy_rk4(*args, dt=dt)
        assert [a.tolist() for a in out] == [a.tolist() for a in oracle]
        assert [a[:n].tolist() for a in oracle] == \
            [a[n:].tolist() for a in oracle]

    def test_stops_lanes_whose_outputs_are_final(self, sin_calls):
        legmod._baselines()   # cached, so only the cost call is counted
        sin_calls.clear()
        # 20 distinct designs, as a swarm draws them, so no lane is shared
        lo, hi = np.array(legmod.DESIGN_BOUNDS).T
        leg_cost_batch(np.random.default_rng(0).uniform(lo, hi, (20, 3)))
        full_horizon = 3 * 20 * (4 * 750 + 1)   # 4 sin per step, 1 at t = 0
        assert len(sin_calls) < 0.7 * full_horizon

    def test_integrates_each_distinct_lane_once(self, monkeypatch, tmp_path):
        lane_calls = []
        impact_lane = legmod._impact_lane

        def counting(*args):
            lane_calls.append(args)
            return impact_lane(*args)

        monkeypatch.setattr(legmod, "_impact_lane", counting)
        # mirrored zb, a repeat, and lanes that differ only in a zero's sign
        speed = [2.5, 2.5, 2.5, 3.0, 3.0, 0.0, -0.0, 4.0]
        misalignment = [0.03, -0.03, 0.03, 0.0, -0.0, 0.02, 0.02, -0.08]
        out = simulate_impact_batch(0.20, 0.12, 1200.0, 0.700, speed,
                                    misalignment)
        assert len(lane_calls) == 4
        for i, (v, z) in enumerate(zip(speed, misalignment)):
            single = simulate_impact_batch(0.20, 0.12, 1200.0, 0.700, v, z)
            assert [a.tobytes() for a in single] == \
                [a[i].tobytes() for a in out]

        lane_calls.clear()
        run_scenario(RunConfig(Scenario.IMPACT_SUITE, out_dir=str(tmp_path)))
        assert len(lane_calls) == 18   # 9 speeds x |zb| of 0 and 3 cm

    @pytest.mark.parametrize("speed, misalignment", [
        (2.5, 0.08), (0.0, -0.3), (13.0, 0.1)])
    def test_lanes_outside_the_capture_window_stop_at_first_check(
            self, sin_calls, speed, misalignment):
        out = simulate_impact_batch(0.20, 0.12, 1200.0, 0.700, speed,
                                    misalignment, dt=1e-4, t_max=0.15)
        assert [a.item() for a in out] == [0.0, 0.0, 0.0, 0.0, False]
        assert len(sin_calls) == 4 + 1   # one step, 1 sin at t = 0

    @pytest.mark.parametrize("total_mass, speed, misalignment, t_bounce", [
        (0.700, 0.0, 0.0, 0.0),    # at rest on the branch: no force
        (50.0, 2.5, 0.0, 0.15),    # still pressing on the branch at t_max
    ])
    def test_lanes_that_never_bounce_run_every_step(
            self, sin_calls, total_mass, speed, misalignment, t_bounce):
        out = simulate_impact_batch(0.20, 0.12, 1200.0, total_mass, speed,
                                    misalignment, dt=1e-4, t_max=0.15)
        assert out[1].item() == t_bounce
        assert len(sin_calls) == 4 * 1500 + 1

    @pytest.mark.parametrize("width", [1, 48, 49])
    def test_keeps_the_broadcast_shape(self, default_leg, width):
        out = simulate_impact_batch(
            np.full(width, default_leg.link_length_m), default_leg.leg_mass_kg,
            default_leg.leg_spring_rate_n_m, 0.700, 2.5, 0.0)
        assert [(a.shape, a.dtype) for a in out] == [
            ((width,), np.float64)] * 4 + [((width,), np.bool_)]


class TestSweep:
    def test_sweep_shape_and_values(self, default_leg):
        rows = impact_sweep(default_leg, [2.0, 3.0], [0.0, 0.03, 0.08])
        assert len(rows) == 6
        by_key = {(r[0], r[1]): r for r in rows}
        # missed branch rows report zero force and zero bounce time
        assert by_key[(2.0, 0.08)][2] == 0.0
        assert by_key[(2.0, 0.08)][3] == 0.0
        assert by_key[(3.0, 0.0)][2] > by_key[(2.0, 0.0)][2]


def leg_cost(leg):
    """Scalar design cost of one leg: one row of ``leg_cost_batch``."""
    params = [[leg.link_length_m, leg.leg_spring_rate_n_m, leg.leg_mass_kg]]
    return float(leg_cost_batch(params)[0])


class TestDesignCost:
    def test_baseline_cost_is_weight_sum(self, default_leg):
        # each normalized term equals 1 at the baseline design
        w = legmod.DEFAULT_COST_WEIGHTS
        assert leg_cost(default_leg) == pytest.approx(sum(w), rel=1e-9)

    def test_lighter_leg_cheaper_mass_term(self, default_leg):
        base = leg_cost(default_leg)
        light = LegParams(leg_mass_kg=0.08)
        assert leg_cost(light) < base

    def test_batch_matches_scalar(self, default_leg):
        params = np.array([
            [0.20, 1200.0, 0.12],
            [0.18, 900.0, 0.10],
        ])
        batch = leg_cost_batch(params)
        assert batch[0] == pytest.approx(leg_cost(default_leg), rel=1e-12)
        other = LegParams(link_length_m=0.18, leg_spring_rate_n_m=900.0,
                          leg_mass_kg=0.10)
        assert batch[1] == pytest.approx(leg_cost(other), rel=1e-12)


def exact_leg_cost(xs, limit):
    """``leg_cost_batch`` with the limit ignored: every row exact."""
    return leg_cost_batch(xs)


def design_corners():
    """The 8 corners and the centre of ``DESIGN_BOUNDS``."""
    box = np.array(legmod.DESIGN_BOUNDS)
    corners = np.array(np.meshgrid(*box, indexing="ij")).reshape(3, -1).T
    return np.vstack([corners, box.mean(axis=1)])


class TestCostCap:
    """A swarm passes each particle's personal best as the limit of
    ``leg_cost_batch``, whose lanes stop once a row cannot come in under
    it; a row below its limit stays exact, any other lies in
    ``[limit, exact]``."""

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 2**64 - 1), particles=st.integers(2, 12),
           iterations=st.integers(0, 6))
    def test_swarm_keeps_every_bit(self, seed, particles, iterations):
        cfg = PsoConfig(bounds=legmod.DESIGN_BOUNDS, particles=particles,
                        iterations=iterations, seed=seed)
        capped = pso_minimize(leg_cost_batch, cfg)
        exact = pso_minimize(exact_leg_cost, cfg)
        assert capped.history == exact.history
        assert capped.best_cost == exact.best_cost
        assert capped.best_x.tobytes() == exact.best_x.tobytes()

    # 64 rows: the cap holds at any call width
    @pytest.mark.parametrize("rows", [24, 64])
    def test_rows_at_or_over_their_limit_lie_between(self, rows):
        lo, hi = np.array(legmod.DESIGN_BOUNDS).T
        params = np.random.default_rng(3).uniform(lo, hi, (rows, 3))
        exact = leg_cost_batch(params)
        # under, at and over each row's cost, and no cap at all
        scale = np.resize([0.0, 0.5, 0.99, 1.0, 1.01, np.inf], rows)
        limit = exact * scale
        capped = leg_cost_batch(params, limit)
        below = exact < limit
        assert capped[below].tolist() == exact[below].tolist()
        assert np.all(np.isfinite(capped))
        assert np.all((limit[~below] <= capped[~below])
                      & (capped[~below] <= exact[~below]))
        # the cap did stop lanes: far-under limits end short of the cost
        assert np.all(capped[scale == 0.0] < exact[scale == 0.0])

    def test_equal_designs_with_different_limits(self):
        design = [0.2, 1200.0, 0.12]
        exact = leg_cost_batch([design])[0]
        limit = [0.0, np.inf, 2.0 * exact, exact, 0.0]
        capped = leg_cost_batch([design] * 5, limit)
        assert capped[1] == capped[2] == exact
        assert capped[0] == capped[4] < exact
        assert capped[3] == exact   # a cost at its limit may only be exact

    def test_mirrored_lanes_with_different_limits(self):
        mass_term = legmod.DEFAULT_COST_WEIGHTS[2]
        zb = [0.03, -0.03, -0.03, 0.03]
        limit = [0.0, np.inf, 0.0, np.inf]
        args = (0.2, 0.12, 1200.0, 0.700, 4.0, zb)
        exact = simulate_impact_batch(*args, dt=legmod._COST_DT)
        capped = simulate_impact_batch(
            *args, dt=legmod._COST_DT,
            cap=(0.0, 0.0, mass_term, limit))
        servo, joint = capped[2], capped[3]
        for i in (1, 3):   # no cap: the exact row, mirrored or not
            assert [a[i].item() for a in capped] == \
                [a[i].item() for a in exact]
        for i in (0, 2):   # capped at the first check
            assert servo[i] < exact[2][i] and joint[i] < exact[3][i]
        assert servo[0] == servo[2] and joint[0] == joint[2]

    def test_chunked_grid_search_keeps_the_minimum_bits(self):
        """``test_c09_pso`` finds its grid's best cost in 40-row chunks, each
        capped at the best so far; a row under its limit is exact, so the
        minimum keeps its bits."""
        axes = [np.linspace(lo, hi, 5) for lo, hi in legmod.DESIGN_BOUNDS]
        grid = np.array(np.meshgrid(*axes, indexing="ij")).reshape(3, -1).T
        best = math.inf
        for i in range(0, len(grid), 40):
            rows = grid[i:i + 40]
            best = min(best, float(np.min(
                leg_cost_batch(rows, np.full(len(rows), best)))))
        assert best == float(np.min(leg_cost_batch(grid)))

    def test_design_box_integrates_uncapped(self):
        """A capped lane skips the steps where a lane could diverge, so no
        design of the box that swarms search may diverge uncapped."""
        speed = np.array(DESIGN_SPEED_SUITE)[:, None]
        link, spring, leg_mass = design_corners().T
        out = simulate_impact_batch(link, leg_mass, spring, 0.700, speed,
                                    legmod._COST_MISALIGNMENT,
                                    dt=legmod._COST_DT)
        assert all(np.all(np.isfinite(a)) for a in out[:4])
