"""Derivative-free classical optimizers for the variational loop.

The paper's hybrid algorithms use the Nelder–Mead simplex method on the
classical side.  We implement it from scratch (no dependence on
``scipy.optimize``) so the full variational loop is reproducible inside this
library.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

Objective = Callable[[np.ndarray], float]


class OptimizationResult:
    """The outcome of a classical optimization run."""

    def __init__(
        self,
        best_parameters: np.ndarray,
        best_value: float,
        num_evaluations: int,
        history: List[Tuple[np.ndarray, float]],
        converged: bool,
    ):
        self.best_parameters = np.asarray(best_parameters, dtype=float)
        self.best_value = float(best_value)
        self.num_evaluations = int(num_evaluations)
        self.history = history
        self.converged = bool(converged)

    def __repr__(self) -> str:
        return (
            f"OptimizationResult(best_value={self.best_value:.6f}, "
            f"evaluations={self.num_evaluations}, converged={self.converged})"
        )


class NelderMeadOptimizer:
    """The Nelder–Mead downhill simplex method (minimisation)."""

    def __init__(
        self,
        max_iterations: int = 200,
        initial_step: float = 0.25,
        tolerance: float = 1e-4,
        alpha: float = 1.0,
        gamma: float = 2.0,
        rho: float = 0.5,
        sigma: float = 0.5,
    ):
        self.max_iterations = max_iterations
        self.initial_step = initial_step
        self.tolerance = tolerance
        self.alpha = alpha
        self.gamma = gamma
        self.rho = rho
        self.sigma = sigma

    def minimize(self, objective: Objective, initial: Sequence[float]) -> OptimizationResult:
        initial = np.asarray(initial, dtype=float)
        dimension = len(initial)
        evaluations = 0
        history: List[Tuple[np.ndarray, float]] = []

        def evaluate(point: np.ndarray) -> float:
            nonlocal evaluations
            value = float(objective(point))
            evaluations += 1
            history.append((point.copy(), value))
            return value

        # Initial simplex: the start point plus one perturbed vertex per axis.
        simplex = [initial.copy()]
        for axis in range(dimension):
            vertex = initial.copy()
            vertex[axis] += self.initial_step
            simplex.append(vertex)
        values = [evaluate(vertex) for vertex in simplex]

        converged = False
        for _ in range(self.max_iterations):
            order = np.argsort(values)
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]

            if abs(values[-1] - values[0]) < self.tolerance:
                converged = True
                break

            centroid = np.mean(simplex[:-1], axis=0)
            worst = simplex[-1]

            reflected = centroid + self.alpha * (centroid - worst)
            reflected_value = evaluate(reflected)
            if values[0] <= reflected_value < values[-2]:
                simplex[-1], values[-1] = reflected, reflected_value
                continue

            if reflected_value < values[0]:
                expanded = centroid + self.gamma * (reflected - centroid)
                expanded_value = evaluate(expanded)
                if expanded_value < reflected_value:
                    simplex[-1], values[-1] = expanded, expanded_value
                else:
                    simplex[-1], values[-1] = reflected, reflected_value
                continue

            contracted = centroid + self.rho * (worst - centroid)
            contracted_value = evaluate(contracted)
            if contracted_value < values[-1]:
                simplex[-1], values[-1] = contracted, contracted_value
                continue

            # Shrink towards the best vertex.
            best = simplex[0]
            for index in range(1, len(simplex)):
                simplex[index] = best + self.sigma * (simplex[index] - best)
                values[index] = evaluate(simplex[index])

        best_index = int(np.argmin(values))
        return OptimizationResult(
            simplex[best_index], values[best_index], evaluations, history, converged
        )

