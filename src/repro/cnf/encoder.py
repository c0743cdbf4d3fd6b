"""Bayesian network -> weighted CNF encoder (Section 3.2.1 of the paper).

The encoder separates the *structure* of the quantum circuit from its
numeric parameters:

* every binary network variable (qubit states) becomes one propositional
  variable; multi-valued noise branch selectors are log-encoded over
  ``ceil(log2(cardinality))`` propositional variables;
* conditional-amplitude-table entries that are structurally zero become
  plain clauses forbidding the corresponding assignment;
* entries that are structurally one contribute nothing;
* every other entry gets a dedicated *weight variable* ``P`` constrained to
  be equivalent to the conjunction of its row's literals — the weight value
  itself is supplied later, per simulation run, which is what enables
  re-using the compiled representation across variational iterations.

After encoding, known values (the deterministic initial qubit states) are
absorbed by unit resolution, mirroring the paper's CNF simplification rules.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..bayesnet.network import (
    ENTRY_ONE,
    ENTRY_WEIGHT,
    ENTRY_ZERO,
    BayesianNetwork,
    BayesNode,
)
from ..bayesnet.from_circuit import GatherTable, require_monomial
from ..circuits.parameters import ParamResolver
from .formula import CNF
from .simplify import unit_propagate_cnf


def bits_for_cardinality(cardinality: int) -> int:
    """Number of propositional variables used to log-encode a node."""
    if cardinality < 2:
        raise ValueError("nodes must have cardinality at least 2")
    return max(1, (cardinality - 1).bit_length())


class WeightReference:
    """Identifies the CAT entry whose numeric value a weight variable carries."""

    def __init__(self, node_name: str, entry_index: Tuple[int, ...]):
        self.node_name = node_name
        self.entry_index = entry_index

    def __repr__(self) -> str:
        return f"WeightReference({self.node_name!r}, {self.entry_index})"


def _concatenate(arrays: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int64)


class WeightEmitter:
    """Vectorized literal-weight emission for one :class:`CNFEncoding`.

    Re-binding parameters is the per-query hot path of a compile-once sweep.
    Every CPT entry of a circuit-built network is a constant or one entry of
    its operation's matrix (:class:`~repro.bayesnet.from_circuit.GatherTable`),
    so the emitter composes "weight slot <- table slot <- matrix entry" once:

    * unparameterized nodes are evaluated here, once, into a base weight
      vector;
    * parameterized nodes contribute one ``(dest, src)`` index pair over the
      concatenated flat matrices of the distinct parameterized operations.

    One :meth:`emit` call then evaluates each parameterized operation's
    matrix once, runs one vectorized monomial check, and does one
    fancy-indexed scatter into a copy of the base vector.

    Built lazily by :meth:`CNFEncoding.weight_emitter` and cached there.

    Raises
    ------
    TypeError
        If a parameterized node's table builder is not a ``GatherTable``.
    """

    def __init__(self, encoding: "CNFEncoding"):
        network = encoding.network
        order = encoding.weight_variables
        position_of = {variable: index for index, variable in enumerate(order)}
        self.num_weights = len(order)

        # Flat table index and weight position of every weight variable,
        # grouped by node in first-appearance order.
        by_node: Dict[str, List[Tuple[int, int]]] = {}
        for variable, reference in sorted(encoding.weight_refs.items()):
            node = network.node(reference.node_name)
            flat = int(np.ravel_multi_index(reference.entry_index, node.expected_shape(network)))
            by_node.setdefault(node.name, []).append((flat, position_of[variable]))
        # Weight variables forced true multiply into the constant factor.  A
        # node has at most one (only one of its rows can be forced), so
        # variable order is node order.
        self._forced = np.array(
            [position_of[v] for v in order if v in encoding.forced_literals], dtype=np.int64
        )

        for node in network.nodes:
            if node.is_parameterized and not isinstance(node.table_builder, GatherTable):
                raise TypeError(
                    f"parameterized node {node.name!r} needs a GatherTable builder, "
                    f"got {type(node.table_builder).__name__}"
                )

        base = np.zeros(self.num_weights, dtype=complex)
        # Distinct parameterized operations, each at an offset into the
        # concatenated flat matrices; monomial ones add their whole matrix
        # to the checked region and their reference permutation to its
        # required support.
        self._sources: List[GatherTable] = []
        offset_of: Dict[int, int] = {}
        size = 0
        dest: List[np.ndarray] = []
        src: List[np.ndarray] = []
        regions: List[np.ndarray] = []
        supports: List[np.ndarray] = []
        for name, entries in by_node.items():
            node = network.node(name)
            flats, positions = np.array(entries, dtype=np.int64).reshape(-1, 2).T
            if not node.is_parameterized:
                base[positions] = np.ascontiguousarray(node.table(None)).ravel()[flats]
                continue
            builder = node.table_builder
            offset = offset_of.get(id(builder.op))
            if offset is None:
                offset = offset_of[id(builder.op)] = size
                self._sources.append(builder)
                size += builder.matrix_size
                if builder.monomial_support is not None:
                    regions.append(np.arange(offset, size))
                    supports.append(builder.monomial_support + offset)
            slots = builder.slots[flats]
            gathered = slots >= 0
            base[positions[~gathered]] = builder.constants[flats[~gathered]]
            dest.append(positions[gathered])
            src.append(slots[gathered] + offset)
        self._dest = _concatenate(dest)
        self._src = _concatenate(src)
        self._monomial_region = _concatenate(regions)
        self._monomial_support = np.searchsorted(self._monomial_region, _concatenate(supports))
        self._base = base

    def emit(self, resolver: Optional[ParamResolver] = None) -> Tuple[np.ndarray, complex]:
        """Return ``(values, constant_factor)`` under ``resolver``.

        ``values`` is aligned with :attr:`CNFEncoding.weight_variables`;
        ``constant_factor`` is the product of weights forced true by CNF
        simplification.  Each parameterized operation's matrix is evaluated
        exactly once.

        Raises whatever the operations raise for unbound symbols
        (``KeyError``/``ValueError``), and ``ValueError`` when a monomial
        gate's bound matrix is not monomial with its reference permutation.
        """
        values = self._base.copy()
        if self._sources:
            flat = np.concatenate([source.matrix(resolver) for source in self._sources])
            if self._monomial_region.size:
                require_monomial(flat[self._monomial_region], self._monomial_support)
            values[self._dest] = flat[self._src]
        constant = 1.0 + 0j
        for value in values[self._forced]:
            constant *= complex(value)
        return values, constant


class CNFEncoding:
    """The result of encoding a Bayesian network into weighted CNF."""

    def __init__(
        self,
        network: BayesianNetwork,
        cnf: CNF,
        node_bits: Dict[str, List[int]],
        weight_refs: Dict[int, WeightReference],
        forced_literals: Set[int],
    ):
        self.network = network
        self.cnf = cnf
        self.node_bits = node_bits
        self.weight_refs = weight_refs
        self.forced_literals = forced_literals
        self._emitter: Optional[WeightEmitter] = None

    # ------------------------------------------------------------------
    def bits_of(self, node_name: str) -> List[int]:
        """The propositional variables encoding ``node_name`` (MSB first)."""
        return list(self.node_bits[node_name])

    def value_literals(self, node_name: str, value: int) -> List[int]:
        """Literals asserting ``node_name == value``."""
        bits = self.node_bits[node_name]
        width = len(bits)
        if not 0 <= value < 2 ** width:
            raise ValueError(f"value {value} out of range for node {node_name}")
        literals = []
        for position, variable in enumerate(bits):
            bit = (value >> (width - 1 - position)) & 1
            literals.append(variable if bit else -variable)
        return literals

    def forced_value(self, variable: int) -> Optional[bool]:
        """The truth value forced by unit resolution, or None if still free."""
        if variable in self.forced_literals:
            return True
        if -variable in self.forced_literals:
            return False
        return None

    @property
    def weight_variables(self) -> List[int]:
        return sorted(self.weight_refs)

    def weight_emitter(self) -> WeightEmitter:
        """The vectorized weight emitter for this encoding (built once, cached)."""
        if self._emitter is None:
            self._emitter = WeightEmitter(self)
        return self._emitter

    def weights(self, resolver: Optional[ParamResolver] = None) -> Dict[int, complex]:
        """Numeric weight for every weight variable under ``resolver``.

        A dict view over :meth:`weight_emitter`'s array emission; hot paths
        (parameter sweeps, variational re-binding) should use the emitter
        directly and skip the dict.
        """
        values, _ = self.weight_emitter().emit(resolver)
        return {
            variable: complex(value)
            for variable, value in zip(self.weight_variables, values)
        }

    def constant_factor(self, resolver: Optional[ParamResolver] = None) -> complex:
        """Product of weights of weight variables forced true by simplification."""
        _, constant = self.weight_emitter().emit(resolver)
        return constant

    def stats(self) -> Dict[str, int]:
        base = self.cnf.stats()
        base["state_variables"] = sum(len(bits) for bits in self.node_bits.values())
        base["weight_variables"] = len(self.weight_refs)
        base["forced_literals"] = len(self.forced_literals)
        return base

    def __repr__(self) -> str:
        return (
            f"CNFEncoding(vars={self.cnf.num_vars}, clauses={self.cnf.num_clauses}, "
            f"weights={len(self.weight_refs)})"
        )


def encode_bayesnet(
    network: BayesianNetwork,
    simplify: bool = True,
    probe_count: int = 3,
) -> CNFEncoding:
    """Encode ``network`` into a weighted CNF.

    With ``simplify=True`` (the default, matching the paper) unit resolution
    absorbs deterministic evidence such as the known initial qubit states.
    """
    cnf = CNF()
    node_bits: Dict[str, List[int]] = {}
    weight_refs: Dict[int, WeightReference] = {}
    probes = network.probe_resolvers(count=probe_count)

    # 1. One propositional variable per encoded bit of every node.
    for node in network.nodes:
        width = bits_for_cardinality(node.cardinality)
        node_bits[node.name] = [cnf.new_var(f"{node.name}.b{j}") for j in range(width)]

    encoding = CNFEncoding(network, cnf, node_bits, weight_refs, set())

    # 2. Table clauses.
    for node in network.nodes:
        structure = node.structure(probes)
        padded_cardinality = 2 ** bits_for_cardinality(node.cardinality)
        for entry_index in np.ndindex(*structure.shape):
            kind = structure[entry_index]
            if kind == ENTRY_ONE:
                continue
            parent_values = entry_index[:-1]
            child_value = entry_index[-1]
            row_literals: List[int] = []
            for parent, value in zip(node.parents, parent_values):
                row_literals.extend(encoding.value_literals(parent, value))
            row_literals.extend(encoding.value_literals(node.name, child_value))
            if kind == ENTRY_ZERO:
                cnf.add_clause([-l for l in row_literals])
                continue
            # ENTRY_WEIGHT: dedicated parameter variable, equivalence-encoded.
            weight_var = cnf.new_var(f"theta[{node.name}|{parent_values}->{child_value}]")
            weight_refs[weight_var] = WeightReference(node.name, tuple(int(i) for i in entry_index))
            cnf.add_clause([-l for l in row_literals] + [weight_var])
            for literal in row_literals:
                cnf.add_clause([-weight_var, literal])
        # Forbid padded (unused) values of log-encoded nodes.
        for unused_value in range(node.cardinality, padded_cardinality):
            cnf.add_clause([-l for l in encoding.value_literals(node.name, unused_value)])

    forced: Set[int] = set()
    if simplify:
        simplified_cnf, forced = unit_propagate_cnf(cnf)
        encoding = CNFEncoding(network, simplified_cnf, node_bits, weight_refs, forced)
    return encoding
