"""Walk through the bistable claw calibration.

The claw is a spring-loaded four-bar that snaps from an open detent to a
closed grip when the branch presses the trigger spike.  This script checks
the four numbers that define a usable calibration:

1. the open detent barely holds (residual torque near zero),
2. the trigger force on a 6 cm branch is ~57 N,
3. a ~11 N pull on the release tendon re-opens it,
4. the closed grip resists at least 2 N*m of branch torque.

It then sweeps branch diameter to show how insensitive the grip is to
branch size, times the snap-through, and costs the tendon re-opening that
lets the claw release the branch.

Run: python3 demos/calibrate_claw.py
"""

import numpy as np

from perchsim import claw
from perchsim.claw import ROBOT_CLAW, BranchSpec


def main():
    geom = ROBOT_CLAW
    branch = BranchSpec()  # 6 cm diameter

    print("== Static calibration ==")
    print(f"open-detent residual torque : "
          f"{claw.claw_torque(geom, geom.psi_open):+.4f} N*m")
    print(f"contact (trigger) force     : "
          f"{claw.contact_force(geom, branch):.1f} N")
    print(f"release tendon force        : "
          f"{claw.release_force(geom):.1f} N")
    print(f"holding torque on 6 cm      : "
          f"{claw.holding_torque(geom, branch):.3f} N*m")

    print("\n== Diameter robustness ==")
    print("diameter  contact-N  hold-N*m")
    diameters = np.arange(0.04, 0.1101, 0.01)
    for d, contact, hold in claw.diameter_sweep(geom, diameters):
        print(f"{d * 100:5.1f} cm  {contact:8.1f}  {hold:8.3f}")
    try:
        claw.contact_force(geom, BranchSpec(diameter_m=0.03))
    except claw.NoSpikeContactError as exc:
        print(f"3.0 cm: rejected ({exc})")

    print("\n== Snap-through dynamics ==")
    _, close_ms = claw.closing_dynamics(geom)
    print(f"closing time after trigger  : {close_ms:.1f} ms")

    print("\n== Tendon re-opening ==")
    duration_s, power_w, peak_n = claw.reopen_profile(geom=geom)
    print(f"re-opening duration         : {duration_s:.1f} s")
    print(f"average drive power         : {power_w:.2f} W")
    print(f"peak tendon force           : {peak_n:.1f} N")


if __name__ == "__main__":
    main()
