"""Tests for the Max-Cut and 2D Ising problem definitions."""

import networkx as nx
import numpy as np
import pytest

from repro.variational import (
    IsingModel2D,
    MaxCutProblem,
    QAOACircuit,
    random_regular_maxcut,
    ring_maxcut,
    square_grid_ising,
)


class TestMaxCut:
    def test_cut_value_on_triangle(self):
        problem = MaxCutProblem(nx.complete_graph(3))
        assert problem.cut_value([0, 0, 0]) == 0
        assert problem.cut_value([0, 1, 1]) == 2
        assert problem.cut_value([0, 1, 0]) == 2

    def test_cost_is_negative_cut(self):
        problem = ring_maxcut(4)
        assert problem.cost([0, 1, 0, 1]) == -4.0

    def test_brute_force_even_ring(self):
        problem = ring_maxcut(6)
        best_value, best_bits = problem.max_cut_brute_force()
        assert best_value == 6
        assert problem.cut_value(best_bits) == 6

    def test_brute_force_odd_ring(self):
        problem = ring_maxcut(5)
        best_value, _ = problem.max_cut_brute_force()
        assert best_value == 4

    def test_expected_cut_from_distribution(self):
        problem = ring_maxcut(4)
        distribution = np.zeros(16)
        distribution[0b0101] = 0.5
        distribution[0b0000] = 0.5
        assert problem.expected_cut(distribution) == pytest.approx(2.0)

    def test_random_regular_graph_has_requested_degree(self):
        problem = random_regular_maxcut(8, degree=3, seed=4)
        degrees = [d for _, d in problem.graph.degree()]
        assert all(d == 3 for d in degrees)

    def test_small_vertex_counts_fall_back_to_cycle(self):
        problem = random_regular_maxcut(3, degree=3, seed=1)
        assert problem.num_vertices == 3
        assert len(problem.edges) == 3

    @pytest.mark.parametrize("num_vertices", [4, 6, 7])
    def test_cut_values_equal_per_shot_loop(self, num_vertices):
        problem = random_regular_maxcut(num_vertices, seed=num_vertices)
        ansatz = QAOACircuit(problem, iterations=1)
        rng = np.random.default_rng(num_vertices)
        bit_matrix = rng.integers(0, 2, size=(300, num_vertices))
        bit_matrix[::7] = 0
        bit_matrix[3::7] = 1
        shots = [tuple(int(b) for b in row) for row in bit_matrix]

        cuts = problem.cut_values(bit_matrix)
        assert cuts.tolist() == [problem.cut_value(bits) for bits in shots]
        assert cuts[::7].tolist() == [0] * len(cuts[::7])
        assert cuts[3::7].tolist() == [0] * len(cuts[3::7])
        loop_total = 0.0
        for bits in shots:
            loop_total += problem.cost(bits)
        assert ansatz.objective_from_samples(shots) == loop_total / len(shots)
        assert ansatz.objective_from_samples(shots[::7]) == 0.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ring_maxcut(4).cut_value([0, 1])
        with pytest.raises(ValueError):
            ring_maxcut(4).cut_values([[0, 1]])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            MaxCutProblem(nx.Graph())


class TestIsing:
    def test_ferromagnetic_chain_ground_state(self):
        # Negative coupling favours aligned spins.
        model = IsingModel2D(1, 4, coupling=-1.0, field=0.0)
        energy, bits = model.ground_state_brute_force()
        assert energy == -3.0
        assert bits in ((0, 0, 0, 0), (1, 1, 1, 1))

    def test_antiferromagnetic_square(self):
        model = IsingModel2D(2, 2, coupling=1.0, field=0.0)
        energy, bits = model.ground_state_brute_force()
        assert energy == -4.0
        # The ground state is a checkerboard.
        assert bits in ((0, 1, 1, 0), (1, 0, 0, 1))

    def test_field_breaks_degeneracy(self):
        model = IsingModel2D(1, 2, coupling=-1.0, field=0.5)
        energy_up = model.energy([0, 0])
        energy_down = model.energy([1, 1])
        assert energy_down < energy_up

    def test_energy_definition(self):
        model = IsingModel2D(1, 2, coupling=2.0, field=0.0)
        assert model.energy([0, 0]) == pytest.approx(2.0)
        assert model.energy([0, 1]) == pytest.approx(-2.0)

    def test_expected_energy(self):
        model = IsingModel2D(1, 2, coupling=1.0, field=0.0)
        distribution = np.array([0.5, 0.0, 0.0, 0.5])
        assert model.expected_energy(distribution) == pytest.approx(1.0)

    def test_grid_edges(self):
        model = IsingModel2D(2, 3)
        # 2x3 grid: 2*2 horizontal + 3 vertical = 7 edges.
        assert len(model.edges) == 7

    def test_site_index_bounds(self):
        model = IsingModel2D(2, 2)
        with pytest.raises(ValueError):
            model.site_index(2, 0)

    def test_square_grid_factory(self):
        model = square_grid_ising(6)
        assert model.num_sites == 6
        assert model.rows * model.cols == 6
        prime = square_grid_ising(7)
        assert prime.rows == 1 and prime.cols == 7

    def test_square_grid_random_fields(self):
        model = square_grid_ising(4, seed=3)
        assert len(set(model.fields)) > 1
