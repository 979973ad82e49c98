"""Global-best particle swarm optimization over a box, deterministic per seed.

Each particle owns a counter-based RNG stream derived from the seed and its
index, so evaluation order (serial or parallel) cannot change the result.
Boundary handling is by reflection, velocities are clamped to a fraction of
the box span, and ties on cost break toward the lower particle index.

The cost is called once per round on the whole swarm, as ``cost(xs, limit)``
with ``limit`` holding each particle's personal-best cost (all inf for the
initial swarm).  The swarm reads a cost only to ask whether it beats that
limit, so a row whose cost is at least ``limit[i]`` may return any finite
value from ``limit[i]`` up to its cost; the result keeps every bit.  A cost
may stop evaluating a particle once it cannot win, as adaptive capping does
(Hutter et al., 2009).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .config import MAX_SEED, check_ranges, philox_stream, ranged

__all__ = ["PsoConfig", "PsoResult", "pso_minimize"]

# the velocity update's inertia, cognitive and social weights, and the
# velocity clamp as a fraction of each dimension's span
INERTIA = 0.72
COGNITIVE = 1.49
SOCIAL = 1.49
VELOCITY_CLAMP = 0.5


@dataclass(frozen=True)
class PsoConfig:
    bounds: Sequence[Tuple[float, float]]
    particles: int = ranged(40, "[2, inf)", integer=True)
    iterations: int = ranged(200, "[0, inf)", integer=True)
    seed: int = ranged(0, f"[0, {MAX_SEED}]", integer=True)

    def __post_init__(self):
        check_ranges(self)
        for lo, hi in self.bounds:
            # NaN, an infinite end and a span past the largest float fail
            if not 0.0 < hi - lo < math.inf:
                raise ValueError(f"invalid bound ({lo}, {hi})")


@dataclass
class PsoResult:
    best_x: np.ndarray
    best_cost: float
    history: List[float]  # global best cost after init and each iteration


def _reflect(x: np.ndarray, v: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Reflect positions off the box walls, flipping the velocity component."""
    for _ in range(8):
        below = x < lo
        above = x > hi
        if not (below.any() or above.any()):
            break
        x = np.where(below, 2.0 * lo - x, x)
        x = np.where(above, 2.0 * hi - x, x)
        v = np.where(below | above, -v, v)
    np.clip(x, lo, hi, out=x)
    return x, v


def _evaluate(cost, xs: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """The swarm's costs at ``xs``; a non-finite one aborts the run."""
    costs = np.asarray(cost(xs, limit), dtype=float)
    bad = ~np.isfinite(costs)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"cost function returned non-finite value {costs[i]} at x={xs[i]}"
        )
    return costs


def pso_minimize(
    cost: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cfg: PsoConfig,
) -> PsoResult:
    """Minimize ``cost`` over the configured box.

    ``cost(xs, limit)`` takes an (n, d) array of positions and n limits and
    returns n costs; a row whose cost is at least its limit may return any
    finite value in ``[limit, cost]``.  The limits are the particles'
    personal-best costs, all inf for the initial swarm.
    """
    lo = np.array([b[0] for b in cfg.bounds], dtype=float)
    hi = np.array([b[1] for b in cfg.bounds], dtype=float)
    span = hi - lo
    vmax = VELOCITY_CLAMP * span
    n, d = cfg.particles, len(cfg.bounds)

    rngs = [philox_stream(cfg.seed, i) for i in range(n)]
    x = np.stack([lo + span * rngs[i].random(d) for i in range(n)])
    v = np.stack([vmax * (2.0 * rngs[i].random(d) - 1.0) * 0.1 for i in range(n)])

    costs = _evaluate(cost, x, np.full(n, np.inf))
    pbest_x = x.copy()
    pbest_cost = costs.copy()
    gbest_i = int(np.argmin(pbest_cost))  # argmin takes the lowest index on ties
    gbest_x = pbest_x[gbest_i].copy()
    gbest_cost = float(pbest_cost[gbest_i])
    history = [gbest_cost]

    for _ in range(cfg.iterations):
        r1 = np.stack([rngs[i].random(d) for i in range(n)])
        r2 = np.stack([rngs[i].random(d) for i in range(n)])
        v = (
            INERTIA * v
            + COGNITIVE * r1 * (pbest_x - x)
            + SOCIAL * r2 * (gbest_x - x)
        )
        np.clip(v, -vmax, vmax, out=v)
        x = x + v
        x, v = _reflect(x, v, lo, hi)

        # a row that cannot beat its personal best may come back capped,
        # but never below it, so `improved` is the exact costs' verdict
        costs = _evaluate(cost, x, pbest_cost.copy())
        improved = costs < pbest_cost
        pbest_x[improved] = x[improved]
        pbest_cost[improved] = costs[improved]
        best_i = int(np.argmin(pbest_cost))
        if pbest_cost[best_i] < gbest_cost:
            gbest_cost = float(pbest_cost[best_i])
            gbest_x = pbest_x[best_i].copy()
        history.append(gbest_cost)

    return PsoResult(best_x=gbest_x, best_cost=gbest_cost, history=history)
