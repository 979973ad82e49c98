"""Tests for line-scan branch sensing and the leg centering loop."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from perchsim.claw import BranchSpec
from perchsim.perception import (
    PIXELS,
    LegLoopState,
    LegPdGains,
    SensorFrame,
    SensorPose,
    SensorSpec,
    detect_branch,
    detection_limit,
    leg_pd_step,
    render_scan,
)

CENTER_PX = 63.5


@pytest.fixture
def spec():
    return SensorSpec()


@pytest.fixture
def branch():
    return BranchSpec()  # 6 cm at (14, 0, 2)


def noiseless():
    return SensorSpec(noise_sigma=0.0)


def noise(spec, rng):
    """One frame's row of sensor noise, drawn as a single frame's draw."""
    return rng.normal(0.0, spec.noise_sigma, PIXELS)


def detect_branch_loop(frame, spec):
    """Reference: the pixel-by-pixel run search ``detect_branch`` replaced."""
    angles = spec.pixel_angle_rad(np.arange(128))
    rectified = frame.brightness / np.cos(angles)
    threshold = spec.threshold_fraction * float(rectified.mean())
    dark = rectified < threshold
    best = None  # (start, length), keep highest
    start = None
    for i, d in enumerate(np.append(dark, False)):
        if d and start is None:
            start = i
        elif not d and start is not None:
            length = i - start
            if length >= spec.min_run_px:
                best = (start, length)  # later runs sit higher in the scene
            start = None
    if best is None:
        return None
    run_start, run_len = best
    return run_start + (run_len - 1) / 2.0


def test_read_rate_above_capability_rejected():
    # a cross-field check: each rate alone lies in its range
    assert SensorSpec(read_hz=330.0).read_hz == 330.0
    with pytest.raises(ValueError, match="exceeds sensor capability"):
        SensorSpec(read_hz=400.0)


class TestRenderScan:
    def test_branch_outside_fov_is_bright(self, branch):
        spec = noiseless()
        pose = SensorPose(x_m=13.0, z_m=4.0)  # branch 2 m below boresight
        frame = render_scan(pose, branch, spec,
                            noise(spec, np.random.default_rng(0)))
        angles = spec.pixel_angle_rad(np.arange(128))
        assert np.allclose(frame.brightness, np.cos(angles))

    def test_band_width_at_one_meter(self, branch):
        """Width oracle: 2*atan(0.03/1.0) over the per-pixel ifov."""
        spec = noiseless()
        pose = SensorPose(x_m=13.0, z_m=2.0)
        frame = render_scan(pose, branch, spec,
                            noise(spec, np.random.default_rng(0)))
        dark = frame.brightness < 0.5
        expected = 2.0 * math.atan(0.03 / 1.0) / spec.ifov_rad
        assert dark.sum() == pytest.approx(expected, abs=1.0)

    def test_width_halves_when_distance_doubles(self, branch):
        spec = noiseless()
        rng = np.random.default_rng(0)
        near = render_scan(SensorPose(13.0, 2.0), branch, spec,
                           noise(spec, rng))
        far = render_scan(SensorPose(12.0, 2.0), branch, spec,
                          noise(spec, rng))
        w_near = (near.brightness < 0.5).sum()
        w_far = (far.brightness < 0.5).sum()
        assert w_far == pytest.approx(w_near / 2.0, abs=1.0)

    def test_deterministic_per_seed(self, spec, branch):
        a = render_scan(SensorPose(13.0, 2.0), branch, spec,
                        noise(spec, np.random.default_rng(5)))
        b = render_scan(SensorPose(13.0, 2.0), branch, spec,
                        noise(spec, np.random.default_rng(5)))
        assert np.array_equal(a.brightness, b.brightness)

    def test_values_clamped(self, branch):
        spec = SensorSpec(noise_sigma=0.5)
        frame = render_scan(SensorPose(13.0, 2.0), branch, spec,
                            noise(spec, np.random.default_rng(1)))
        assert frame.brightness.min() >= 0.0
        assert frame.brightness.max() <= 1.0

    @given(noise=st.lists(st.floats() | st.sampled_from(
               [math.nan, 0.0, -0.0, math.inf, -math.inf]),
               min_size=PIXELS, max_size=PIXELS),
           dark_level=st.sampled_from([0.0, 0.15]))
    @example(noise=[-0.0] * PIXELS, dark_level=0.0)
    @example(noise=[math.nan, math.inf, -math.inf, 0.0] * (PIXELS // 4),
             dark_level=0.15)
    def test_clamp_matches_np_clip(self, noise, dark_level):
        """The frame is ``np.clip(scene * cos + noise, 0, 1)``, bit for bit,
        whatever the noise holds."""
        spec = SensorSpec(dark_level=dark_level)
        noise = np.array(noise)
        row = noise.copy()
        frame = render_scan(SensorPose(13.0, 2.0), BranchSpec(), spec, row)
        assert row.tobytes() == noise.tobytes()   # the row is only read
        # the branch sits on the boresight, 1 m away
        angles = spec.pixel_angle_rad(np.arange(PIXELS))
        scene = np.where(np.abs(angles) <= math.atan2(0.03, 1.0),
                         dark_level, 1.0)
        want = np.clip(scene * np.cos(angles) + noise, 0.0, 1.0)
        assert frame.brightness.tobytes() == want.tobytes()


class TestPixelGeometry:
    def test_computed_once_and_read_only(self):
        spec = SensorSpec(ifov_arcmin=20.0)
        angles, falloff = spec.pixel_angles, spec.pixel_falloff
        assert spec.pixel_angles is angles and spec.pixel_falloff is falloff
        assert angles.tolist() == spec.pixel_angle_rad(
            np.arange(PIXELS)).tolist()
        assert falloff.tolist() == np.cos(angles).tolist()
        for array in (angles, falloff):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_each_spec_has_its_own(self):
        assert (SensorSpec(ifov_arcmin=20.0).pixel_angles[0]
                != SensorSpec().pixel_angles[0])


class TestPinnedFrames:
    """Exact frames and detections, recorded as ``repr`` floats in
    ``pinned_frames.json`` and compared with ``==``: a change to the sensor
    path must keep every bit."""

    PINNED = json.loads(
        (Path(__file__).parent / "pinned_frames.json").read_text())
    # spec fields, pose (x, z, boresight) and noise seed; branch 6 cm at
    # (14, 0, 2)
    CASES = {
        "in_view": ({}, (12.5, 1.95, 0.02), 11),
        "out_of_view": ({}, (13.0, 0.5, 0.0), 12),
        "behind_sensor": ({}, (14.5, 2.0, 0.0), 13),
        "inside_branch": ({}, (13.99, 2.0, 0.0), 14),
        "noise_free": ({"noise_sigma": 0.0}, (12.0, 2.05, -0.03), 15),
        "black_branch": ({"dark_level": 0.0}, (13.2, 1.9, 0.1), 16),
        "clipped": ({"noise_sigma": 0.4, "threshold_fraction": 0.9,
                     "min_run_px": 1, "ifov_arcmin": 20.0},
                    (12.8, 2.1, -0.05), 17),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_frame_and_detection(self, branch, name):
        fields, pose, seed = self.CASES[name]
        spec = SensorSpec(**fields)
        frame = render_scan(SensorPose(*pose), branch, spec,
                            noise(spec, np.random.default_rng(seed)))
        assert frame.brightness.tolist() == self.PINNED[name]["brightness"]
        assert detect_branch(frame, spec) == self.PINNED[name]["detection"]


class TestDetectBranch:
    def test_uniform_bright_none(self, spec):
        angles = spec.pixel_angle_rad(np.arange(128))
        frame = SensorFrame(brightness=np.cos(angles))
        assert detect_branch(frame, spec) is None

    def test_reliable_at_1p9m(self, spec, branch):
        """1000 seeded noisy frames at 1.9 m: >= 99% within +-1 px."""
        rng = np.random.default_rng(2024)
        pose = SensorPose(x_m=14.0 - 1.9, z_m=2.0)
        hits = 0
        for _ in range(1000):
            frame = render_scan(pose, branch, spec, noise(spec, rng))
            det = detect_branch(frame, spec)
            if det is not None and abs(det - CENTER_PX) <= 1.0:
                hits += 1
        assert hits >= 990

    def test_highest_band_wins(self, spec):
        angles = spec.pixel_angle_rad(np.arange(128))
        scene = np.ones(128)
        scene[20:26] = 0.1   # low band, wider
        scene[90:93] = 0.1   # high band
        frame = SensorFrame(brightness=scene * np.cos(angles))
        assert detect_branch(frame, spec) == pytest.approx(91.0)

    def test_single_pixel_noise_rejected(self, spec):
        angles = spec.pixel_angle_rad(np.arange(128))
        scene = np.ones(128)
        scene[64] = 0.0
        frame = SensorFrame(brightness=scene * np.cos(angles))
        assert detect_branch(frame, spec) is None

    def test_gain_invariance(self, spec, branch):
        clean = noiseless()
        frame = render_scan(SensorPose(13.0, 2.0), branch, clean,
                            noise(clean, np.random.default_rng(0)))
        dimmed = SensorFrame(brightness=frame.brightness * 0.5)
        assert detect_branch(dimmed, spec) == detect_branch(frame, spec)

    def test_translation_monotone(self, branch):
        """Raising the branch never lowers the detected pixel index, and
        raising it 0.6 m moves it."""
        spec = noiseless()
        dets = []
        for dz in np.arange(-0.3, 0.31, 0.05):
            b = BranchSpec(z_m=2.0 + float(dz))
            frame = render_scan(SensorPose(12.5, 2.0), b, spec,
                                noise(spec, np.random.default_rng(0)))
            det = detect_branch(frame, spec)
            assert det is not None
            assert det >= (dets[-1] if dets else -1.0)
            dets.append(det)
        assert dets[-1] > dets[0]

    @given(mask=st.lists(st.booleans(), min_size=128, max_size=128),
           min_run_px=st.integers(1, 12))
    def test_matches_loop_reference(self, mask, min_run_px):
        spec = SensorSpec(min_run_px=min_run_px)
        angles = spec.pixel_angle_rad(np.arange(128))
        frame = SensorFrame(
            brightness=np.where(mask, spec.dark_level, 1.0) * np.cos(angles))
        got = detect_branch(frame, spec)
        want = detect_branch_loop(frame, spec)
        assert got == want
        assert type(got) is type(want)


class TestDetectionLimit:
    def test_six_cm_near_published_limit(self, spec):
        limit = detection_limit(spec, 0.06, 1)
        assert abs(limit - 7.7) / 7.7 <= 0.10

    def test_diameter_linearity(self, spec):
        assert detection_limit(spec, 0.12, 1) == pytest.approx(
            2.0 * detection_limit(spec, 0.06, 1), rel=1e-4)

    def test_two_pixel_requirement_halves_range(self, spec):
        assert detection_limit(spec, 0.06, 2) == pytest.approx(
            detection_limit(spec, 0.06, 1) / 2.0, rel=1e-4)

    def test_invalid_inputs(self, spec):
        for diameter in (-0.01, math.nan, math.inf):
            with pytest.raises(ValueError, match="^diameter must be"):
                detection_limit(spec, diameter, 1)
        for min_pixels in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^min_pixels must be"):
                detection_limit(spec, 0.06, min_pixels)


def closed_loop_rms(closed, amp, freq, gains, spec, branch, seconds=3.0):
    """Leg-mounted sensor tracking a vertically oscillating body, the loop
    acceptance check c08 scores.  The PD loop steps at ``spec.read_hz``,
    the one rate that field sets: a mission reads one frame per 120 Hz
    control cycle."""
    leg = 0.2
    state = LegLoopState(beta_cmd_deg=45.0)
    beta = 45.0
    dt = 1.0 / spec.read_hz
    offsets = []
    for i in range(int(seconds / dt)):
        t = i * dt
        body_z = 2.0 + amp * math.sin(2.0 * math.pi * freq * t) \
            + leg * math.cos(math.radians(45.0))
        pose = SensorPose(
            x_m=13.0,
            z_m=body_z - leg * math.cos(math.radians(beta)),
            boresight_rad=math.radians(beta - 45.0),
        )
        frame = render_scan(pose, branch, spec,
                            noise(spec, np.random.default_rng(i)))
        det = detect_branch(frame, spec)
        if det is None:
            continue
        offset = det - CENTER_PX
        offsets.append(offset)
        if closed:
            beta, state = leg_pd_step(offset, gains, dt, state)
    return float(np.sqrt(np.mean(np.square(offsets))))


class TestLegLoop:
    def test_zero_offset_no_motion(self):
        state = LegLoopState(beta_cmd_deg=40.0)
        beta, state = leg_pd_step(0.0, LegPdGains(), 1.0 / 200.0, state)
        assert beta == 40.0

    def test_output_clamped_to_hip_range(self):
        gains = LegPdGains(rate_limit_dps=1e6)
        state = LegLoopState(beta_cmd_deg=89.0)
        beta, _ = leg_pd_step(500.0, gains, 1.0 / 200.0, state)
        assert beta == 90.0
        state = LegLoopState(beta_cmd_deg=1.0)
        beta, _ = leg_pd_step(-500.0, gains, 1.0 / 200.0, state)
        assert beta == 0.0

    def test_rate_limit(self):
        gains = LegPdGains(rate_limit_dps=60.0)
        state = LegLoopState(beta_cmd_deg=45.0)
        beta, _ = leg_pd_step(100.0, gains, 1.0 / 200.0, state)
        assert beta - 45.0 == pytest.approx(60.0 / 200.0)

    def test_two_hertz_rejection(self, spec, branch):
        """Closed loop cuts the 2 Hz oscillation residual below 25% of
        open loop."""
        gains = LegPdGains()
        open_rms = closed_loop_rms(False, 0.05, 2.0, gains, spec, branch)
        closed = closed_loop_rms(True, 0.05, 2.0, gains, spec, branch)
        assert closed < 0.25 * open_rms

    def test_four_hertz_bounded(self, spec, branch):
        gains = LegPdGains()
        open_rms = closed_loop_rms(False, 0.01, 4.0, gains, spec, branch)
        closed = closed_loop_rms(True, 0.01, 4.0, gains, spec, branch)
        assert closed < max(open_rms, 1.0)

    def test_scripted_approach_ends_in_capture_window(self, spec):
        """Launch-style approach at 2.5 m/s with the branch 5 cm above the
        initial boresight: the loop steers the claw into the capture
        window before contact."""
        leg = 0.2
        branch = BranchSpec(z_m=2.05)
        state = LegLoopState(beta_cmd_deg=45.0)
        beta = 45.0
        dt = 1.0 / spec.read_hz
        x = 12.5
        body_z = 2.0 + leg * math.cos(math.radians(45.0))
        while x < 13.9:
            pose = SensorPose(
                x_m=x,
                z_m=body_z - leg * math.cos(math.radians(beta)),
                boresight_rad=math.radians(beta - 45.0),
            )
            frame = render_scan(
                pose, branch, spec,
                noise(spec, np.random.default_rng(int(x * 1000))))
            det = detect_branch(frame, spec)
            if det is not None:
                beta, state = leg_pd_step(det - CENTER_PX, LegPdGains(),
                                          dt, state)
            x += 2.5 * dt
        claw_z = body_z - leg * math.cos(math.radians(beta))
        assert abs(claw_z - 2.05) < 0.05
