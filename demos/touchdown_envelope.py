"""Map which touchdown states end with the vehicle upright on the branch.

After the claw locks, the body pivots about the branch against the
claw's holding friction.  Too slow and it falls back; too fast and it
pitches over the top.  This script prints the speed envelope versus leg
angle and the branch-yaw envelope at 2.5 m/s as ASCII grids
('<' fall backward, 'P' perched, '>' fall forward).

Run: python3 demos/touchdown_envelope.py
"""

import numpy as np

from perchsim.claw import ROBOT_CLAW, BranchSpec
from perchsim.claw import holding_torque
from perchsim.touchdown import PerchOutcome, sweep_envelope

GLYPH = {PerchOutcome.FALL_BACKWARD: "<", PerchOutcome.PERCHED: "P",
         PerchOutcome.FALL_FORWARD: ">", PerchOutcome.MISSED: "."}


def main():
    hold = holding_torque(ROBOT_CLAW, BranchSpec())
    thetas = np.arange(40.0, 90.01, 5.0)
    speeds = np.arange(0.0, 8.01, 0.5)
    psis = np.arange(-25.0, 25.01, 2.5)
    speed_grid, yaw_grid = sweep_envelope(thetas, speeds, psis, hold)

    print(f"holding torque: {hold:.3f} N*m\n")
    print("== speed envelope (rows: leg angle; cols: 0..8 m/s) ==")
    for theta, row in zip(thetas, speed_grid):
        print(f"theta {theta:4.0f} deg  " + "".join(GLYPH[o] for o in row))

    print("\n== branch-yaw envelope at 2.5 m/s (cols: -25..+25 deg) ==")
    for theta, row in zip(thetas, yaw_grid):
        print(f"theta {theta:4.0f} deg  " + "".join(GLYPH[o] for o in row))

    best = yaw_grid[-1]
    width = max(abs(p) for p, o in zip(psis, best)
                if o is PerchOutcome.PERCHED)
    print(f"\nyaw tolerance at theta=90: +-{width:.1f} deg")


if __name__ == "__main__":
    main()
