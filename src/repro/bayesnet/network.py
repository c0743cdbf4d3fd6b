"""Complex-valued Bayesian networks encoding noisy quantum circuits.

Nodes represent qubit states at points in time, or noise-event random
variables ("spurious measurement outcomes" selecting a Kraus branch).  Each
node carries a *conditional amplitude table* (CAT) — the complex-valued
generalisation of a conditional probability table — addressed by the values
of its parents followed by the node's own value.

CAT entries may depend on symbolic circuit parameters, so tables are
produced by a builder function taking a :class:`ParamResolver`.  The CNF
encoder only needs the table's *structure* (which entries are identically
zero, identically one, or parameter-dependent weights); numeric values are
re-bound per simulation run.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..circuits.parameters import ParamResolver, Symbol
from .factor import Factor

TableBuilder = Callable[[Optional[ParamResolver]], np.ndarray]

# Structural classification of CAT entries.
ENTRY_ZERO = 0
ENTRY_ONE = 1
ENTRY_WEIGHT = 2

_STRUCTURE_ATOL = 1e-9


class BayesNode:
    """A node in a complex-valued Bayesian network."""

    def __init__(
        self,
        name: str,
        cardinality: int,
        parents: Sequence[str],
        table_builder: TableBuilder,
        kind: str = "qubit",
        parameters: Iterable[Symbol] = (),
        label: str = "",
    ):
        self.name = name
        self.cardinality = int(cardinality)
        self.parents = list(parents)
        self.table_builder = table_builder
        self.kind = kind
        self.parameters: Set[Symbol] = set(parameters)
        self.label = label or name

    @property
    def is_parameterized(self) -> bool:
        return bool(self.parameters)

    def table(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        """The CAT as a dense complex array, shaped (card(parent_1), ..., card(self))."""
        table = np.asarray(self.table_builder(resolver), dtype=complex)
        return table

    def expected_shape(self, network: "BayesianNetwork") -> Tuple[int, ...]:
        return tuple(network.node(p).cardinality for p in self.parents) + (self.cardinality,)

    def structure(self, probe_resolvers: Sequence[Optional[ParamResolver]]) -> np.ndarray:
        """Classify each CAT entry as ZERO, ONE or WEIGHT across probe resolvers."""
        tables = [self.table(resolver) for resolver in probe_resolvers]
        reference = tables[0]
        structure = np.full(reference.shape, ENTRY_WEIGHT, dtype=np.int8)
        is_zero = np.ones(reference.shape, dtype=bool)
        is_one = np.ones(reference.shape, dtype=bool)
        for table in tables:
            is_zero &= np.abs(table) <= _STRUCTURE_ATOL
            is_one &= np.abs(table - 1.0) <= _STRUCTURE_ATOL
        structure[is_zero] = ENTRY_ZERO
        structure[is_one] = ENTRY_ONE
        return structure

    def structural_groups(
        self, probe_resolvers: Sequence[Optional[ParamResolver]]
    ) -> Dict[Tuple[int, ...], int]:
        """Group WEIGHT entries whose values agree across all probe resolvers.

        Returns a mapping from flat entry index tuples to a group id; entries
        in the same group can share a single CNF weight variable (the
        "equal parameters share variables" optimisation).
        """
        tables = [self.table(resolver) for resolver in probe_resolvers]
        structure = self.structure(probe_resolvers)
        groups: Dict[Tuple[int, ...], int] = {}
        signature_to_group: Dict[Tuple[complex, ...], int] = {}
        for index in np.ndindex(structure.shape):
            if structure[index] != ENTRY_WEIGHT:
                continue
            signature = tuple(complex(np.round(table[index], 12)) for table in tables)
            if signature not in signature_to_group:
                signature_to_group[signature] = len(signature_to_group)
            groups[index] = signature_to_group[signature]
        return groups

    def __repr__(self) -> str:
        return (
            f"BayesNode({self.name!r}, cardinality={self.cardinality}, "
            f"parents={self.parents}, kind={self.kind!r})"
        )


class BayesianNetwork:
    """A directed acyclic graph of :class:`BayesNode` objects.

    Nodes must be added parents-first, so insertion order is a topological
    order (the circuit-to-network compiler naturally produces this).
    """

    def __init__(self):
        self._nodes: Dict[str, BayesNode] = {}

    # ------------------------------------------------------------------
    def add_node(self, node: BayesNode) -> BayesNode:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name: {node.name}")
        for parent in node.parents:
            if parent not in self._nodes:
                raise ValueError(f"node {node.name} references unknown parent {parent}")
        self._nodes[node.name] = node
        return node

    def node(self, name: str) -> BayesNode:
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    @property
    def nodes(self) -> List[BayesNode]:
        return list(self._nodes.values())

    @property
    def node_names(self) -> List[str]:
        return list(self._nodes.keys())

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def children_of(self, name: str) -> List[str]:
        return [n.name for n in self._nodes.values() if name in n.parents]

    @property
    def parameters(self) -> Set[Symbol]:
        symbols: Set[Symbol] = set()
        for node in self._nodes.values():
            symbols.update(node.parameters)
        return symbols

    # ------------------------------------------------------------------
    def probe_resolvers(
        self, count: int = 3, seed: int = 20210419
    ) -> List[Optional[ParamResolver]]:
        """Resolvers used for structural (zero/one/weight) classification.

        For unparameterized networks a single ``None`` resolver suffices; for
        parameterized networks several random parameter bindings are probed
        so that entries that are *accidentally* zero or one at a single
        binding are not misclassified.  Values are drawn from ``[0.05, 0.3)``:
        generic for every rotation (no entry lands on 0 or +-1) and accepted
        by every channel, even three symbolic Pauli probabilities that must
        sum to at most 1.
        """
        symbols = self.parameters
        if not symbols:
            return [None]
        rng = np.random.default_rng(seed)
        resolvers: List[Optional[ParamResolver]] = []
        for _ in range(count):
            assignment = {s: float(rng.uniform(0.05, 0.3)) for s in symbols}
            resolvers.append(ParamResolver(assignment))
        return resolvers

    def factors(self, resolver: Optional[ParamResolver] = None) -> List[Factor]:
        """One factor per node over (parents..., node)."""
        result = []
        for node in self._nodes.values():
            variables = node.parents + [node.name]
            cards = [self._nodes[p].cardinality for p in node.parents] + [node.cardinality]
            result.append(Factor(variables, cards, node.table(resolver)))
        return result

    def joint_amplitude(
        self, assignment: Mapping[str, int], resolver: Optional[ParamResolver] = None
    ) -> complex:
        """Product of CAT entries for a complete assignment of all nodes."""
        amplitude = 1.0 + 0j
        for node in self._nodes.values():
            index = tuple(int(assignment[p]) for p in node.parents) + (int(assignment[node.name]),)
            amplitude *= complex(node.table(resolver)[index])
        return amplitude

    def validate(self, resolver: Optional[ParamResolver] = None) -> None:
        """Check table shapes against declared parent cardinalities."""
        for node in self._nodes.values():
            table = node.table(resolver)
            expected = node.expected_shape(self)
            if table.shape != expected:
                raise ValueError(
                    f"node {node.name} table shape {table.shape} != expected {expected}"
                )

    def moral_graph(self) -> Dict[str, Set[str]]:
        """Undirected adjacency: parents married, edges parent-child."""
        adjacency: Dict[str, Set[str]] = {name: set() for name in self._nodes}
        for node in self._nodes.values():
            family = node.parents + [node.name]
            for i in range(len(family)):
                for j in range(i + 1, len(family)):
                    adjacency[family[i]].add(family[j])
                    adjacency[family[j]].add(family[i])
        return adjacency

    def __repr__(self) -> str:
        return f"BayesianNetwork(nodes={len(self._nodes)})"
