"""Max-Cut problem instances for the QAOA workload.

The paper's QAOA benchmark solves Max-Cut on random graphs "with varying
number of vertices each having three edges" — i.e. random 3-regular graphs —
where each qubit encodes a vertex and each ZZ interaction an edge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np


class MaxCutProblem:
    """A Max-Cut instance over an undirected graph."""

    def __init__(self, graph: nx.Graph):
        if graph.number_of_nodes() == 0:
            raise ValueError("Max-Cut problem requires a non-empty graph")
        self.graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")

    @property
    def num_vertices(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def edges(self) -> List[Tuple[int, int]]:
        return [(min(u, v), max(u, v)) for u, v in self.graph.edges()]

    # ------------------------------------------------------------------
    def cut_value(self, bits: Sequence[int]) -> int:
        """Number of edges cut by the partition described by ``bits``."""
        if len(bits) != self.num_vertices:
            raise ValueError("bit assignment length must equal the number of vertices")
        return sum(1 for u, v in self.edges if bits[u] != bits[v])

    def cut_values(self, bit_matrix: Sequence[Sequence[int]]) -> np.ndarray:
        """Cut value of each row of a ``(shots, num_vertices)`` bit matrix."""
        bit_matrix = np.asarray(bit_matrix)
        if bit_matrix.ndim != 2 or bit_matrix.shape[1] != self.num_vertices:
            raise ValueError("bit matrix must have one column per vertex")
        u, v = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2).T
        return np.count_nonzero(bit_matrix[:, u] != bit_matrix[:, v], axis=1)

    def cost(self, bits: Sequence[int]) -> float:
        """QAOA cost (negative cut value, so minimisation finds the max cut)."""
        return -float(self.cut_value(bits))

    def max_cut_brute_force(self) -> Tuple[int, Tuple[int, ...]]:
        """Exact optimum by enumeration (small instances only)."""
        best_value = -1
        best_bits: Tuple[int, ...] = tuple([0] * self.num_vertices)
        for mask in range(2 ** self.num_vertices):
            bits = tuple((mask >> i) & 1 for i in range(self.num_vertices))
            value = self.cut_value(bits)
            if value > best_value:
                best_value = value
                best_bits = bits
        return best_value, best_bits

    def expected_cut(self, distribution: Sequence[float]) -> float:
        """Expected cut value under a distribution over bitstrings.

        The distribution is indexed with vertex 0 as the most significant bit
        (the simulators' convention).
        """
        total = 0.0
        n = self.num_vertices
        for index, probability in enumerate(distribution):
            if probability == 0:
                continue
            bits = [(index >> (n - 1 - i)) & 1 for i in range(n)]
            total += probability * self.cut_value(bits)
        return total

    def __repr__(self) -> str:
        return f"MaxCutProblem(vertices={self.num_vertices}, edges={len(self.edges)})"


def random_regular_maxcut(
    num_vertices: int, degree: int = 3, seed: Optional[int] = None
) -> MaxCutProblem:
    """A Max-Cut instance on a random ``degree``-regular graph.

    Matches the paper's workload (3-regular random graphs).  For very small
    vertex counts where a regular graph does not exist, falls back to a
    cycle.
    """
    if num_vertices * degree % 2 != 0 or num_vertices <= degree:
        graph = nx.cycle_graph(num_vertices)
    else:
        graph = nx.random_regular_graph(degree, num_vertices, seed=seed)
    return MaxCutProblem(graph)


def ring_maxcut(num_vertices: int) -> MaxCutProblem:
    """A Max-Cut instance on a simple ring (useful for tests with known optima)."""
    return MaxCutProblem(nx.cycle_graph(num_vertices))
