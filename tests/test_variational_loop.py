"""Tests for the hybrid quantum-classical variational loop."""

import numpy as np
import pytest

from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.statevector import StateVectorSimulator
from repro.variational import (
    NelderMeadOptimizer,
    QAOACircuit,
    VariationalLoop,
    VQECircuit,
    ring_maxcut,
    square_grid_ising,
)


class TestVariationalLoopWithStateVector:
    def test_qaoa_ring_finds_good_cut(self):
        problem = ring_maxcut(4)
        ansatz = QAOACircuit(problem, iterations=1)
        loop = VariationalLoop(
            ansatz,
            StateVectorSimulator(seed=2),
            samples_per_evaluation=256,
            optimizer=NelderMeadOptimizer(max_iterations=30, initial_step=0.4),
            seed=2,
        )
        run = loop.run(initial_parameters=np.array([0.6, 0.3]))
        # The optimum cut of a 4-ring is 4; sampled mean cost should approach -4
        # but certainly beat the uniform-superposition mean of -2.
        assert run.best_value < -2.4
        assert run.num_circuit_executions == len(run.objective_trace) + 1

    def test_vqe_two_site_chain(self):
        model = square_grid_ising(2, field=0.0)
        ansatz = VQECircuit(model, iterations=1)
        loop = VariationalLoop(
            ansatz,
            StateVectorSimulator(seed=5),
            samples_per_evaluation=256,
            optimizer=NelderMeadOptimizer(max_iterations=40, initial_step=0.5),
            seed=5,
        )
        run = loop.run()
        # Ground-state energy of the antiferromagnetic 2-site chain is -1.
        assert run.best_value <= -0.5


class TestVariationalLoopWithKnowledgeCompilation:
    def test_compiles_once_and_improves(self):
        problem = ring_maxcut(4)
        ansatz = QAOACircuit(problem, iterations=1)
        simulator = KnowledgeCompilationSimulator(seed=7)
        loop = VariationalLoop(
            ansatz,
            simulator,
            samples_per_evaluation=128,
            optimizer=NelderMeadOptimizer(max_iterations=12, initial_step=0.4),
            seed=7,
        )
        assert loop._compiled is not None  # compiled eagerly, reused across iterations
        run = loop.run(initial_parameters=np.array([0.6, 0.3]))
        assert run.best_value <= -2.0
        assert len(run.best_samples) == 128

    def test_objective_trace_recorded(self):
        problem = ring_maxcut(4)
        ansatz = QAOACircuit(problem, iterations=1)
        loop = VariationalLoop(
            ansatz,
            KnowledgeCompilationSimulator(seed=3),
            samples_per_evaluation=64,
            optimizer=NelderMeadOptimizer(max_iterations=5),
            seed=3,
        )
        run = loop.run(initial_parameters=np.array([0.5, 0.5]))
        assert len(run.objective_trace) >= 3
        assert all(isinstance(value, float) for value in run.objective_trace)


class TestObjectiveOnSharedCompile:
    """``VariationalLoop.objective`` rebinds one compile; evaluation k uses seed + k."""

    @pytest.fixture
    def loop(self):
        ansatz = QAOACircuit(ring_maxcut(4), iterations=1)
        return VariationalLoop(
            ansatz, KnowledgeCompilationSimulator(seed=3), samples_per_evaluation=256, seed=5
        )

    def test_exact_objective_at_zero_gamma(self, loop):
        # At gamma = 0 the cost layer is the identity, so the state stays the
        # uniform superposition: expected cut = half the edges -> objective -2.
        probabilities = loop._compiled.probabilities(loop.ansatz.resolver([0.0, 0.7]))
        assert loop.ansatz.objective_from_distribution(probabilities) == pytest.approx(
            -2.0, abs=1e-9
        )

    @pytest.mark.parametrize("point", [(0.45, 0.3), (1.1, 0.2), (2.4, 0.6)])
    def test_compiled_objective_matches_state_vector(self, loop, point):
        resolver = loop.ansatz.resolver(list(point))
        compiled = loop.ansatz.objective_from_distribution(loop._compiled.probabilities(resolver))
        resolved = loop.ansatz.circuit.resolve_parameters(resolver)
        exact = StateVectorSimulator().simulate(resolved).probabilities()
        assert compiled == pytest.approx(loop.ansatz.objective_from_distribution(exact), abs=1e-9)

    def test_evaluation_k_samples_with_seed_plus_k(self, loop):
        points = [np.array([0.45, 0.3]), np.array([1.1, 0.2])]
        values = [loop.objective(point) for point in points]
        for k, point in enumerate(points, start=1):
            samples = loop.simulator.sample(
                loop._compiled, 256, resolver=loop.ansatz.resolver(list(point)), seed=5 + k
            )
            assert values[k - 1] == loop.ansatz.objective_from_samples(samples)
        assert loop._trace == values

    def test_objective_never_recompiles(self, loop, monkeypatch):
        compiled = loop._compiled

        def fail(*args, **kwargs):
            raise AssertionError("objective recompiled the ansatz")

        monkeypatch.setattr(loop.simulator, "compile_circuit", fail)
        for point in ([0.2, 0.2], [0.6, 0.4], [1.0, 0.1]):
            loop.objective(np.array(point))
        assert loop._compiled is compiled

    def test_sampled_objective_near_optimum_beats_uniform(self, loop):
        # Near the p=1 optimum the sampled mean cut should clearly beat random guessing.
        assert loop.objective(np.array([7 * np.pi / 8, np.pi / 8])) < -2.2
