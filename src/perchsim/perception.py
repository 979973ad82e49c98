"""Line-scan branch sensing and the leg centering loop.

A simulated 1x128 line-scan sensor rides on the leg and images the branch as
a dark band against a bright background.  Detection divides out the cosine
vignetting profile, thresholds at a fraction of the frame mean, and accepts
the highest-located dark run.  `leg_pd_step` is a PD law on the detected
pixel offset that centres the claw boresight on the branch; acceptance check
c08 scores it.  A mission steers the leg otherwise: `autopilot.Autopilot`
fuses the detection's bearing with the range to the branch.

The pixel geometry (each pixel's off-boresight angle and its cosine falloff)
depends only on the field of view, so it is computed once per ``SensorSpec``
and shared, read-only, by every frame rendered or read with that spec.

`render_scan` is a pure function of the pose, the scene and one row of
sensor noise: the caller owns the noise stream.  A mission draws that
stream in blocks of rows (`autopilot.Autopilot`), which gives each frame the
same bits as one draw per frame, because a numpy ``Generator`` carries
nothing from one call to the next.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .claw import BranchSpec
from .config import check_ranges, ranged

__all__ = [
    "PIXELS",
    "SensorSpec",
    "ROBOT_SENSOR",
    "SensorPose",
    "SensorFrame",
    "LegPdGains",
    "LegLoopState",
    "render_scan",
    "detect_branch",
    "detection_limit",
    "leg_pd_step",
]

ARCMIN_RAD = math.pi / (180.0 * 60.0)
PIXELS = 128   # the sensor is a 1x128 line-scan device
READ_HZ_CAPABILITY = 330.0   # the sensor's fastest line rate
# the sensor rides on the leg: its boresight angle is the hip angle less this
SENSOR_MOUNT_DEG = 45.0


@dataclass(frozen=True)
class SensorSpec:
    ifov_arcmin: float = ranged(28.0, "(0, inf)")
    # the PD leg loop's rate; a mission reads a frame per control cycle
    read_hz: float = ranged(200.0, "(0, inf)")
    noise_sigma: float = ranged(0.02, "[0, inf)")  # Gaussian, brightness
    threshold_fraction: float = ranged(0.6, "(0, 1]")  # of the frame mean
    min_run_px: int = ranged(2, "[1, inf)")
    # branch albedo against the background's 1.0: at 1.0 it is invisible
    dark_level: float = ranged(0.15, "[0, 1)")

    def __post_init__(self):
        check_ranges(self)
        if self.read_hz > READ_HZ_CAPABILITY:
            raise ValueError("effective read rate exceeds sensor capability")

    @property
    def ifov_rad(self) -> float:
        return self.ifov_arcmin * ARCMIN_RAD

    def pixel_angle_rad(self, idx):
        """Off-boresight angle of a pixel position, a float or an array;
        higher index looks higher."""
        return (idx - (PIXELS - 1) / 2.0) * self.ifov_rad

    @functools.cached_property
    def pixel_angles(self) -> np.ndarray:
        """``pixel_angle_rad`` of every pixel, read-only."""
        angles = self.pixel_angle_rad(np.arange(PIXELS))
        angles.flags.writeable = False
        return angles

    @functools.cached_property
    def pixel_falloff(self) -> np.ndarray:
        """Cosine off-axis falloff of every pixel, read-only."""
        falloff = np.cos(self.pixel_angles)
        falloff.flags.writeable = False
        return falloff

    @functools.cached_property
    def dark_falloff(self) -> np.ndarray:
        """``dark_level * pixel_falloff``: the branch as every pixel sees
        it, read-only."""
        dark = self.dark_level * self.pixel_falloff
        dark.flags.writeable = False
        return dark


# the robot's sensor, which every mission reads
ROBOT_SENSOR = SensorSpec()


class SensorPose(NamedTuple):
    """Sensor origin and boresight direction in the vertical X-Z plane."""

    x_m: float
    z_m: float
    boresight_rad: float = 0.0  # elevation of the optical axis


@dataclass(frozen=True)
class SensorFrame:
    brightness: np.ndarray  # shape (PIXELS,), clamped to [0, 1]

    def __post_init__(self):
        if self.brightness.shape != (PIXELS,):
            raise ValueError(f"frame must hold {PIXELS} pixels")


def render_scan(
    pose: SensorPose,
    branch: BranchSpec,
    spec: SensorSpec,
    noise: np.ndarray,
) -> SensorFrame:
    """Project the branch cylinder onto the pixel line.

    Pixels whose line of sight crosses the branch silhouette are dark; all
    others show the bright background.  Both are attenuated by the cosine
    off-axis falloff, then ``noise`` is added and the values are clamped to
    [0, 1].  ``noise`` is one row of ``PIXELS`` N(0, ``spec.noise_sigma``)
    draws from the caller's stream; it is only read.
    """
    dx = branch.x_m - pose.x_m
    dz = branch.z_m - pose.z_m
    dist = math.hypot(dx, dz)
    if dist > branch.diameter_m / 2.0 and dx > 0.0:
        center_angle = math.atan2(dz, dx) - pose.boresight_rad
        half_width = math.atan2(branch.diameter_m / 2.0, dist)
        dark = np.abs(spec.pixel_angles - center_angle) <= half_width
        # the scene times the falloff, the dark level's product precomputed
        brightness = np.where(dark, spec.dark_falloff, spec.pixel_falloff)
        brightness += noise
    else:
        brightness = noise + spec.pixel_falloff   # the bright background
    return SensorFrame(brightness=brightness.clip(0.0, 1.0))


def detect_branch(frame: SensorFrame, spec: SensorSpec) -> Optional[float]:
    """Pixel index of the branch center, or None.

    The signal is rectified by dividing out the cosine falloff, thresholded
    at a fraction of the rectified mean, and contiguous sub-threshold runs of
    at least ``min_run_px`` pixels qualify; the highest-located run wins and
    its center index is returned.
    """
    rectified = frame.brightness / spec.pixel_falloff
    # the frame mean, summed as ndarray.mean sums it
    threshold = spec.threshold_fraction * float(
        np.add.reduce(rectified) / PIXELS)
    dark = (rectified < threshold).nonzero()[0].tolist()
    # later runs sit higher in the scene, so search from the last one; a
    # run is a stretch of consecutive indices
    last = len(dark) - 1
    while last >= 0:
        stop = dark[last]
        first = last
        while first > 0 and dark[first - 1] == dark[first] - 1:
            first -= 1
        start = dark[first]
        if stop - start + 1 >= spec.min_run_px:
            return start + (stop - start) / 2.0
        last = first - 1
    return None


def detection_limit(spec: SensorSpec, diameter_m: float,
                    min_pixels: int = 1) -> float:
    """Distance at which the branch subtends ``min_pixels`` of angular width.
    A non-finite diameter or pixel count raises ``ValueError``."""
    if not 0.0 < diameter_m < math.inf:
        raise ValueError(f"diameter must be finite and positive, "
                         f"got {diameter_m!r}")
    if not 1 <= min_pixels < math.inf:
        raise ValueError(f"min_pixels must be finite and at least 1, "
                         f"got {min_pixels!r}")
    subtended = min_pixels * spec.ifov_rad
    return diameter_m / (2.0 * math.tan(subtended / 2.0))


@dataclass(frozen=True)
class LegPdGains:
    kp_deg_per_px: float = ranged(0.35, "[0, inf)")
    kd_deg_s_per_px: float = ranged(0.001, "[0, inf)")
    rate_limit_dps: float = ranged(60.0, "(0, inf)")

    __post_init__ = check_ranges


@dataclass(frozen=True)
class LegLoopState:
    beta_cmd_deg: float = 45.0
    prev_offset_px: float = 0.0
    initialized: bool = False


def leg_pd_step(
    offset_px: float,
    gains: LegPdGains,
    dt: float,
    state: LegLoopState,
) -> Tuple[float, LegLoopState]:
    """One PD update of the leg position command from the pixel offset.

    ``offset_px`` is the detected branch center minus the boresight pixel;
    positive means the branch sits above the claw line, so the leg rises.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if state.initialized:
        rate = (offset_px - state.prev_offset_px) / dt
    else:
        rate = 0.0
    step = gains.kp_deg_per_px * offset_px + gains.kd_deg_s_per_px * rate
    max_step = gains.rate_limit_dps * dt
    step = min(max_step, max(-max_step, step))
    beta = min(90.0, max(0.0, state.beta_cmd_deg + step))
    return beta, LegLoopState(beta_cmd_deg=beta, prev_offset_px=offset_px,
                              initialized=True)
