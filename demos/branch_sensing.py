"""Show the line-scan sensor finding the branch and centering the leg.

The leg carries a 128-pixel line-scan sensor looking along the flight
path.  The branch shows up as a dark band; ``detect_branch`` divides out
the cosine shading, thresholds, and returns the band's center pixel.
This script prints the detection range limit, an ASCII rendering of a
noisy frame, and the leg PD loop re-centering the branch after a step
offset.  The PD loop steps at the sensor's ``read_hz``; that is the only
rate it sets, since a mission reads one frame per 120 Hz control cycle.

Run: python3 demos/branch_sensing.py
"""

import numpy as np

from perchsim.claw import BranchSpec
from perchsim.perception import (
    PIXELS,
    ROBOT_SENSOR,
    SENSOR_MOUNT_DEG,
    LegLoopState,
    LegPdGains,
    SensorPose,
    detect_branch,
    detection_limit,
    leg_pd_step,
    render_scan,
)


def main():
    spec, branch = ROBOT_SENSOR, BranchSpec()
    center = (PIXELS - 1) / 2.0
    print(f"detection limit for a 6 cm branch: "
          f"{detection_limit(spec, 0.06, 1):.2f} m")

    rng = np.random.default_rng(7)
    pose = SensorPose(x_m=12.1, z_m=2.0)  # 1.9 m out, branch on boresight
    frame = render_scan(pose, branch, spec,
                        rng.normal(0.0, spec.noise_sigma, PIXELS))
    det = detect_branch(frame, spec)
    bar = "".join("#" if b < 0.5 else "-" for b in frame.brightness)
    print(f"\nnoisy frame at 1.9 m (dark pixels '#'):\n{bar}")
    print(f"detected center pixel: {det:.1f} (true center {center:.1f})")

    print("\n== leg PD centering after a 10-pixel step ==")
    gains = LegPdGains()
    state = LegLoopState(beta_cmd_deg=45.0)
    step_rad = 10 * spec.ifov_rad  # knock the boresight 10 pixels low
    dt = 1.0 / spec.read_hz
    for step in range(25):
        pose = SensorPose(x_m=12.1, z_m=2.0,
                          boresight_rad=np.radians(
                              state.beta_cmd_deg - SENSOR_MOUNT_DEG)
                          - step_rad)
        frame = render_scan(pose, branch, spec,
                            rng.normal(0.0, spec.noise_sigma, PIXELS))
        det = detect_branch(frame, spec)
        offset = 0.0 if det is None else det - center
        _, state = leg_pd_step(offset, gains, dt, state)
        if step % 5 == 0:
            print(f"t={step * dt * 1000:4.0f} ms  pixel error {offset:+.1f}")


if __name__ == "__main__":
    main()
