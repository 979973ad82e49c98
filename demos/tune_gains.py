"""Replay the four development stages of the perching robot in order.

Stages must run in order, each building on the last.  Each is defined
once, in ``perchsim.autopilot.run_stage``; stages 2-4 are also the CLI
scenarios named below.

1. launcher-only claw tests (no wings) — does the claw lock over the
   speed grid?  (This stage has no CLI scenario.)
2. pitch/altitude loop checkout on the light airframe, no leg fitted
   (``FlightOnly``),
3. an approach into a soft mock branch — the airframe must reach it and
   the claw must NOT lock (``SoftBranch``),
4. the nine-seed gusty mission ensemble, which must perch at least six
   times (``FullPerch``).

Run: python3 demos/tune_gains.py
"""

from perchsim.autopilot import (
    DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
    DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM,
    MissionConfig,
    run_stage,
)


def main():
    calm = MissionConfig()
    # the ensemble flies the default gust level
    gusty = MissionConfig(
        disturbance_sigma_force_n=DEFAULT_DISTURBANCE_SIGMA_FORCE_N,
        disturbance_sigma_moment_nm=DEFAULT_DISTURBANCE_SIGMA_MOMENT_NM)
    for stage in (1, 2, 3, 4):
        report = run_stage(stage, gusty if stage == 4 else calm)
        status = "pass" if report.passed else "FAIL"
        print(f"stage {report.stage}: {status}")
        for key, value in report.metrics.items():
            print(f"    {key} = {value:.4g}")


if __name__ == "__main__":
    main()
