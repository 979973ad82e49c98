"""Fly one full perch mission, then the gusty nine-seed ensemble.

A mission launches the vehicle from a rail at x = 0, 14 m short of the
branch, climbs to the 2 m branch height under pitch/yaw/altitude
control, raises the landing leg as the range closes, cuts the flapping
for the final glide, and classifies the touchdown.  With gusts disabled
the run is fully deterministic; the ensemble adds band-limited gust
forces and reproduces the expected 6-of-9 success rate.

Run: python3 demos/fly_mission.py
"""

from perchsim.autopilot import MissionConfig, run_ensemble, run_mission
from perchsim.touchdown import PerchOutcome


def main():
    print("== Nominal (disturbance-free) mission ==")
    result = run_mission(MissionConfig())
    c = result.crossing
    print(f"outcome  : {result.outcome.value}")
    print(f"crossing : vx={c.vx_mps:.2f} m/s  z={c.altitude_m:.3f} m  "
          f"y={c.y_m:+.3f} m  pitch={c.pitch_deg:.1f} deg  "
          f"yaw={c.yaw_deg:+.1f} deg")
    print(f"altitude hold error: "
          f"{result.altitude_error_m * 100:.1f} cm")
    if result.impact:
        print(f"touchdown peak force: {result.impact.peak_force_n:.1f} N")

    print("\n== Gusty nine-seed ensemble ==")
    results = run_ensemble()
    for seed, r in enumerate(results):
        z = f"{r.crossing.altitude_m:.3f}" if r.crossing else "  -  "
        print(f"seed {seed}: {r.outcome.value:<13s} crossing z = {z} m")
    perched = sum(r.outcome is PerchOutcome.PERCHED for r in results)
    print(f"perched {perched}/9")


if __name__ == "__main__":
    main()
