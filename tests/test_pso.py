"""Tests for the deterministic particle swarm optimizer."""

import math

import numpy as np
import pytest

from perchsim.pso import PsoConfig, PsoResult, pso_minimize


def sphere(xs, limit):
    """The sphere on each row; exact costs satisfy any ``limit``."""
    return np.sum(xs * xs, axis=1)


BOUNDS3 = [(-5.0, 5.0)] * 3


class TestConvergence:
    def test_sphere_minimum_found(self):
        cfg = PsoConfig(bounds=BOUNDS3, seed=7)
        res = pso_minimize(sphere, cfg)
        assert res.best_cost < 1e-4
        assert np.all(np.abs(res.best_x) < 0.1)

    def test_shifted_optimum(self):
        target = np.array([1.0, -2.0, 3.0])
        cfg = PsoConfig(bounds=BOUNDS3, seed=11)
        res = pso_minimize(lambda xs, limit: sphere(xs - target, limit), cfg)
        assert np.allclose(res.best_x, target, atol=0.05)


class TestCostLimit:
    def test_limits_are_the_personal_bests(self):
        seen = []

        def spy(xs, limit):
            seen.append(limit.copy())
            return sphere(xs, limit)

        cfg = PsoConfig(bounds=BOUNDS3, particles=6, iterations=8, seed=4)
        pso_minimize(spy, cfg)
        assert len(seen) == cfg.iterations + 1
        assert np.all(seen[0] == np.inf)
        assert np.all(np.isfinite(seen[1]))
        for a, b in zip(seen[1:], seen[2:]):
            assert np.all(b <= a)

    def test_rows_capped_at_their_limit_keep_every_bit(self):
        """A row at or over its limit may return any value from the limit
        up to its cost: here the limit itself, or half-way."""
        def at_limit(xs, limit):
            return np.minimum(sphere(xs, limit), limit)

        def half_way(xs, limit):
            costs = sphere(xs, limit)
            return np.where(costs >= limit, (limit + costs) / 2.0, costs)

        cfg = PsoConfig(bounds=BOUNDS3, particles=12, iterations=30, seed=8)
        exact = pso_minimize(sphere, cfg)
        for cost in (at_limit, half_way):
            res = pso_minimize(cost, cfg)
            assert res.history == exact.history
            assert res.best_x.tobytes() == exact.best_x.tobytes()


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = PsoConfig(bounds=BOUNDS3, particles=15, iterations=40, seed=42)
        a = pso_minimize(sphere, cfg)
        b = pso_minimize(sphere, cfg)
        assert a.best_cost == b.best_cost
        assert np.array_equal(a.best_x, b.best_x)
        assert a.history == b.history

    def test_different_seeds_differ(self):
        a = pso_minimize(sphere, PsoConfig(bounds=BOUNDS3, iterations=5, seed=0))
        b = pso_minimize(sphere, PsoConfig(bounds=BOUNDS3, iterations=5, seed=1))
        assert a.history != b.history


class TestInvariants:
    def test_history_monotone_nonincreasing(self):
        cfg = PsoConfig(bounds=BOUNDS3, iterations=60, seed=5)
        res = pso_minimize(sphere, cfg)
        assert len(res.history) == cfg.iterations + 1
        for a, b in zip(res.history, res.history[1:]):
            assert b <= a

    def test_best_within_bounds(self):
        bounds = [(1.0, 2.0), (-3.0, -1.0)]
        res = pso_minimize(sphere, PsoConfig(bounds=bounds, seed=2))
        for (lo, hi), xi in zip(bounds, res.best_x):
            assert lo <= xi <= hi
        # minimum of |x|^2 on this box is at the corner (1, -1)
        assert np.allclose(res.best_x, [1.0, -1.0], atol=1e-3)

    def test_all_particles_stay_in_box(self):
        bounds = [(-1.0, 1.0)] * 2
        seen = []

        def spy(xs, limit):
            seen.append(xs.copy())
            return sphere(xs, limit)

        pso_minimize(spy, PsoConfig(bounds=bounds, particles=10,
                                    iterations=30, seed=9))
        stacked = np.concatenate(seen)
        assert np.all(stacked >= -1.0) and np.all(stacked <= 1.0)


class TestErrors:
    def test_non_finite_cost_aborts_with_location(self):
        def bad(xs, limit):
            return np.where(xs[:, 0] > 0, np.nan, sphere(xs, limit))

        with pytest.raises(ValueError, match="non-finite"):
            pso_minimize(bad, PsoConfig(bounds=BOUNDS3, seed=1))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            PsoConfig(bounds=[(2.0, 1.0)])
        # a box of infinite span is rejected here, not blamed on the cost
        for bound in ((-math.inf, 1.0), (0.0, math.inf), (-1e308, 1e308),
                      (math.nan, 1.0)):
            with pytest.raises(ValueError, match="^invalid bound"):
                PsoConfig(bounds=[bound])
