"""Pick leg link length, spring rate, and leg mass with a particle swarm.

The landing leg must absorb touchdowns across the 2-4 m/s design speeds
while staying light.  ``leg_cost_batch`` folds those goals into one
scalar: the peak servo torque and the peak joint angular momentum over
the design speed suite at 3 cm misalignment, each against the stock
leg's, plus the leg mass, weighted 1, 1 and 5 (so the stock leg costs
7).  This script minimizes it over the design box and compares the
optimum with the stock leg.

Run: python3 demos/leg_design_pso.py
"""

from perchsim.leg import DESIGN_BOUNDS, LegParams, leg_cost_batch, simulate_impact
from perchsim.pso import PsoConfig, pso_minimize

import numpy as np


def main():
    cfg = PsoConfig(bounds=DESIGN_BOUNDS, particles=40, iterations=60,
                    seed=2024)
    result = pso_minimize(leg_cost_batch, cfg)
    link, rate, mass = result.best_x
    stock = LegParams()
    stock_cost = float(leg_cost_batch(np.array([[
        stock.link_length_m, stock.leg_spring_rate_n_m,
        stock.leg_mass_kg]]))[0])

    print("== Swarm optimum ==")
    print(f"link length : {link * 100:.1f} cm")
    print(f"spring rate : {rate:.0f} N/m")
    print(f"leg mass    : {mass * 1000:.0f} g")
    print(f"cost        : {result.best_cost:.4f} "
          f"(stock leg: {stock_cost:.4f})")

    print("\n== Convergence (best cost per iteration) ==")
    for i, c in enumerate(result.history[::10]):
        print(f"iter {i * 10:3d}: {c:.4f}")

    best = LegParams(link_length_m=float(link),
                     leg_spring_rate_n_m=float(rate),
                     leg_mass_kg=float(mass))
    rec = simulate_impact(best)
    print(f"\noptimized leg at 2.5 m/s: peak {rec.peak_force_n:.1f} N, "
          f"bounce settles in {rec.time_to_bounce_ms:.1f} ms")


if __name__ == "__main__":
    main()
