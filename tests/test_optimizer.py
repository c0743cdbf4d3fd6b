"""Tests for the classical optimizers used in the variational loop."""

import numpy as np
import pytest

from repro.variational import NelderMeadOptimizer, OptimizationResult


def quadratic(x):
    return float(np.sum((np.asarray(x) - np.array([1.0, -2.0])[: len(x)]) ** 2))


def rosenbrock(x):
    x = np.asarray(x)
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


class TestNelderMead:
    def test_minimizes_quadratic(self):
        optimizer = NelderMeadOptimizer(max_iterations=300, tolerance=1e-10, initial_step=0.5)
        result = optimizer.minimize(quadratic, [0.0, 0.0])
        assert result.best_value < 1e-4
        assert np.allclose(result.best_parameters, [1.0, -2.0], atol=0.05)

    def test_minimizes_rosenbrock_reasonably(self):
        optimizer = NelderMeadOptimizer(max_iterations=600, tolerance=1e-12, initial_step=0.4)
        result = optimizer.minimize(rosenbrock, [-0.5, 0.5])
        assert result.best_value < 0.05

    def test_one_dimensional(self):
        optimizer = NelderMeadOptimizer(max_iterations=200)
        result = optimizer.minimize(lambda x: float((x[0] - 3.0) ** 2), [0.0])
        assert result.best_parameters[0] == pytest.approx(3.0, abs=0.05)

    def test_history_and_evaluation_count(self):
        optimizer = NelderMeadOptimizer(max_iterations=50)
        result = optimizer.minimize(quadratic, [0.0, 0.0])
        assert result.num_evaluations == len(result.history)
        assert result.num_evaluations >= 3

    def test_convergence_flag_on_flat_function(self):
        optimizer = NelderMeadOptimizer(max_iterations=50, tolerance=1e-3)
        result = optimizer.minimize(lambda x: 1.0, [0.0, 0.0])
        assert result.converged

    def test_result_repr(self):
        result = OptimizationResult(np.array([1.0]), 0.5, 10, [], True)
        assert "0.5" in repr(result)

    def test_zero_iterations_returns_best_initial_vertex(self):
        optimizer = NelderMeadOptimizer(max_iterations=0, initial_step=0.5)
        result = optimizer.minimize(quadratic, [0.0, 0.0])
        assert result.num_evaluations == 3
        assert result.best_value == min(value for _, value in result.history)
        assert not result.converged

    def test_initial_simplex_steps_along_each_axis(self):
        optimizer = NelderMeadOptimizer(max_iterations=5, initial_step=0.3)
        result = optimizer.minimize(quadratic, [1.0, 2.0])
        points = [point for point, _ in result.history[:3]]
        np.testing.assert_allclose(points, [[1.0, 2.0], [1.3, 2.0], [1.0, 2.3]])

    def test_best_value_is_minimum_of_history(self):
        optimizer = NelderMeadOptimizer(max_iterations=40, initial_step=0.4)
        result = optimizer.minimize(rosenbrock, [-0.5, 0.5])
        values = [value for _, value in result.history]
        assert result.best_value == min(values)
        assert result.best_value == pytest.approx(rosenbrock(result.best_parameters))

    def test_exhausted_budget_is_not_converged(self):
        optimizer = NelderMeadOptimizer(max_iterations=3, tolerance=1e-12)
        result = optimizer.minimize(rosenbrock, [-0.5, 0.5])
        assert not result.converged
        assert result.best_value < rosenbrock([-0.5, 0.5])

    def test_reruns_are_deterministic(self):
        optimizer = NelderMeadOptimizer(max_iterations=30, initial_step=0.4)
        first = optimizer.minimize(rosenbrock, [-0.5, 0.5])
        second = optimizer.minimize(rosenbrock, [-0.5, 0.5])
        np.testing.assert_array_equal(first.best_parameters, second.best_parameters)
        assert first.num_evaluations == second.num_evaluations
