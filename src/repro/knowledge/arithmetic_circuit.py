"""Arithmetic circuits: evaluating and differentiating compiled NNF.

A smooth, deterministic, decomposable NNF evaluated over a semiring —
literal leaves replaced by numeric values, AND by multiplication, OR by
addition — is the paper's arithmetic circuit (Figure 5).  Two passes matter:

* the **upward pass** computes the weighted model count, which in the
  quantum encoding is the amplitude of the evidence (Section 3.3.1);
* the **downward pass** computes the partial derivative of the root with
  respect to every leaf (Darwiche's differential approach), which serves
  gradient (sensitivity) queries in ``knowledge.queries``.  The Gibbs
  sampler reads one flipped neighbour per chain: upward passes only.

Values are complex (quantum amplitudes); noise probabilities embed as the
real entries of Kraus operators.  Both passes are vectorised: internal nodes
are grouped by topological level, type and arity, and each group keeps an
``(arity, nodes)`` child matrix.  The upward pass gathers it with one ``take``
and folds the ``arity`` rows with elementwise multiplies (AND) or adds (OR);
the downward pass scatter-adds per-edge gradients.  The fold is a chain of
fresh binary ufunc calls, never ``ufunc.reduce``, ``reduceat`` or an ``out=``
aliasing the accumulator: only the plain elementwise loop gives an element
the same bits whatever the batch width and whichever group subset is
evaluated, which the cone passes below rely on.

Batch axis
----------
Both passes additionally accept a *batch* of literal bindings:
:meth:`ArithmeticCircuit.evaluate_batch` and
:meth:`ArithmeticCircuit.evaluate_with_derivatives_batch` take literal values
of shape ``(B, num_vars + 1, 2)`` and run the same level-grouped passes over
``(num_nodes, B)`` value/gradient arrays — one set of NumPy calls per group
*regardless of B*.  Amortising the per-group dispatch overhead across many
simultaneous queries is what makes many-chain Gibbs sampling and full
state-vector reconstruction cheap (one batched sweep instead of ``B`` scalar
sweeps).  The scalar :meth:`evaluate` / :meth:`evaluate_with_derivatives`
API is kept as a ``B = 1`` wrapper.  Node-sized scratch arrays are cached in
a per-batch-size workspace so repeated calls (the variational loop, Gibbs
sweeps) do not churn allocations.

When only one variable's literal leaves change, only their ancestors (the
variable's *cone*) change value: :meth:`ArithmeticCircuit.evaluate_cone`
recomputes just that cone in a caller-owned value matrix, with each cone
node's full, in-order child list, so its roots are bit-identical to a full
pass.  A Gibbs sweep, where every chain flips the same bit, scores its steps
this way.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from .nnf import (
    AndNode,
    FalseNode,
    LiteralNode,
    NNFNode,
    OrNode,
    TrueNode,
    topological_nodes,
)

NODE_FALSE = 0
NODE_TRUE = 1
NODE_LITERAL = 2
NODE_AND = 3
NODE_OR = 4


class _ScatterPlan:
    """Duplicate-safe segment-sum accumulation into a target array.

    Replaces ``np.add.at`` (whose unbuffered element-wise scatter costs
    O(entries * batch) and would swallow the batch-axis win): contributions
    are permuted so equal target indices are adjacent, summed per target with
    one ``reduceat``, and added with a plain fancy-indexed ``+=`` — safe
    because the surviving indices are unique.
    """

    __slots__ = ("permutation", "unique_targets", "segment_offsets")

    def __init__(self, target_indices: np.ndarray):
        target_indices = np.asarray(target_indices, dtype=np.int64)
        self.permutation = np.argsort(target_indices, kind="stable")
        ordered = target_indices[self.permutation]
        if len(ordered):
            boundaries = np.flatnonzero(
                np.concatenate(([True], ordered[1:] != ordered[:-1]))
            )
        else:
            boundaries = np.zeros(0, dtype=np.int64)
        self.unique_targets = ordered[boundaries]
        self.segment_offsets = boundaries

    def add_to(self, target: np.ndarray, contributions: np.ndarray) -> None:
        """``target[indices] += contributions`` along axis 0, duplicates summed."""
        if not len(self.unique_targets):
            return
        sums = np.add.reduceat(
            contributions[self.permutation], self.segment_offsets, axis=0
        )
        target[self.unique_targets] += sums


def _fold(op: np.ufunc, rows: np.ndarray) -> np.ndarray:
    """``op`` over the leading axis of ``rows`` as a chain of fresh binary
    calls, whose bits do not depend on width or position (module docstring)."""
    acc = rows[0]
    for row in rows[1:]:
        acc = op(acc, row)
    return acc


class _LevelGroup:
    """All AND (or all OR) nodes of one arity sharing one topological level.

    ``children`` is an ``(arity, nodes)`` matrix: row ``j`` holds every
    node's ``j``-th child, in the node's own child order.
    """

    __slots__ = ("is_and", "node_positions", "children", "scatter")

    def __init__(self, is_and: bool, node_positions: List[int], children: List[List[int]]):
        self.is_and = is_and
        self.node_positions = np.asarray(node_positions, dtype=np.int64)
        self.children = np.ascontiguousarray(np.asarray(children, dtype=np.int64).T)
        self.scatter = _ScatterPlan(self.children.ravel())


class ArithmeticCircuit:
    """A flattened, topologically ordered, vectorised arithmetic circuit.

    Evaluation reuses per-batch-size scratch buffers held on the instance,
    so a circuit object is stateful and not safe for concurrent evaluation
    from multiple threads.
    """

    def __init__(self, root: NNFNode, num_vars: int):
        self.num_vars = int(num_vars)
        nodes = topological_nodes(root)
        index_of: Dict[int, int] = {node.node_id: i for i, node in enumerate(nodes)}
        self.root_index = index_of[root.node_id]
        self.num_nodes = len(nodes)

        self.node_types: List[int] = []
        self.literals: List[int] = []
        self.children: List[List[int]] = []
        levels = np.zeros(self.num_nodes, dtype=np.int64)

        literal_positions: List[int] = []
        literal_vars: List[int] = []
        literal_signs: List[int] = []
        true_positions: List[int] = []
        false_positions: List[int] = []

        for position, node in enumerate(nodes):
            if isinstance(node, FalseNode):
                self.node_types.append(NODE_FALSE)
                self.literals.append(0)
                self.children.append([])
                false_positions.append(position)
            elif isinstance(node, TrueNode):
                self.node_types.append(NODE_TRUE)
                self.literals.append(0)
                self.children.append([])
                true_positions.append(position)
            elif isinstance(node, LiteralNode):
                self.node_types.append(NODE_LITERAL)
                self.literals.append(node.literal)
                self.children.append([])
                literal_positions.append(position)
                literal_vars.append(abs(node.literal))
                literal_signs.append(1 if node.literal > 0 else 0)
            elif isinstance(node, (AndNode, OrNode)):
                child_positions = [index_of[c.node_id] for c in node.children()]
                self.node_types.append(NODE_AND if isinstance(node, AndNode) else NODE_OR)
                self.literals.append(0)
                self.children.append(child_positions)
                levels[position] = 1 + max(levels[c] for c in child_positions)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown NNF node type: {type(node)}")

        self._literal_positions = np.asarray(literal_positions, dtype=np.int64)
        self._literal_vars = np.asarray(literal_vars, dtype=np.int64)
        self._literal_signs = np.asarray(literal_signs, dtype=np.int64)
        self._true_positions = np.asarray(true_positions, dtype=np.int64)
        self._false_positions = np.asarray(false_positions, dtype=np.int64)
        # Flattened (var, sign) slot per literal leaf, for the downward scatter.
        self._literal_scatter = _ScatterPlan(
            self._literal_vars * 2 + self._literal_signs
        )

        # Group internal nodes by (level, type, arity) for vectorised passes.
        grouped: Dict[Tuple[int, int, int], Tuple[List[int], List[List[int]]]] = {}
        for position in range(self.num_nodes):
            node_type = self.node_types[position]
            if node_type not in (NODE_AND, NODE_OR):
                continue
            key = (int(levels[position]), node_type, len(self.children[position]))
            bucket = grouped.setdefault(key, ([], []))
            bucket[0].append(position)
            bucket[1].append(self.children[position])
        self._groups: List[_LevelGroup] = [
            _LevelGroup(node_type == NODE_AND, positions, children)
            for (_, node_type, _), (positions, children) in sorted(grouped.items())
        ]

        # Per-batch-size scratch arrays (small LRU), managed by _workspace_for.
        self._workspaces: "OrderedDict[int, Dict[str, np.ndarray]]" = OrderedDict()
        # Per-CNF-variable cone plans, managed by _cone.
        self._cones: Dict[int, Tuple] = {}

    # ------------------------------------------------------------------
    # Structural metrics (used by Figure 6 / Table 4 / Table 6 experiments)
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return sum(len(c) for c in self.children)

    @property
    def num_literal_leaves(self) -> int:
        return len(self._literal_positions)

    def size_bytes(self) -> int:
        """Approximate serialized size (length of the c2d-style .nnf text)."""
        return len(self.to_nnf_text().encode("utf-8"))

    def stats(self) -> Dict[str, int]:
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "literal_leaves": self.num_literal_leaves,
            "size_bytes": self.size_bytes(),
        }

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def default_literal_values(self) -> np.ndarray:
        """Array of literal values, all ones: shape (num_vars + 1, 2).

        Index ``[v, 1]`` holds the value of literal ``+v`` and ``[v, 0]`` the
        value of ``-v``; row 0 is unused.
        """
        return np.ones((self.num_vars + 1, 2), dtype=complex)

    def _workspace_for(self, batch: int) -> Dict[str, np.ndarray]:
        """Node-sized scratch arrays for a batch of ``batch`` queries.

        The ``(num_nodes, B)`` value/gradient arrays dominate the allocation
        cost of a pass; they are cached per batch size (a small LRU, so a
        chunked query's trailing partial chunk or an interleaved Gibbs batch
        does not evict the hot buffer) and the hot loops (variational
        re-binding, Gibbs sweeps, chunked state-vector reconstruction) reuse
        the same buffers call after call.  The gradients buffer is allocated
        lazily so upward-only callers (amplitude queries, state-vector
        chunks, Gibbs moves) pay for one buffer, not two.
        """
        workspace = self._workspaces.get(batch)
        if workspace is None:
            workspace = {"values": np.empty((self.num_nodes, batch), dtype=complex)}
            self._workspaces[batch] = workspace
            while len(self._workspaces) > 3:
                self._workspaces.popitem(last=False)
        else:
            self._workspaces.move_to_end(batch)
        return workspace

    def _gradients_buffer(self, batch: int) -> np.ndarray:
        workspace = self._workspace_for(batch)
        gradients = workspace.get("gradients")
        if gradients is None:
            gradients = np.empty((self.num_nodes, batch), dtype=complex)
            workspace["gradients"] = gradients
        return gradients

    @staticmethod
    def _as_batch(literal_values: np.ndarray) -> np.ndarray:
        literal_values = np.asarray(literal_values)
        if literal_values.ndim != 3:
            raise ValueError(
                "batched literal values must have shape (B, num_vars + 1, 2); "
                f"got shape {literal_values.shape}"
            )
        return literal_values

    def _upward_batch(
        self, literal_values: np.ndarray, values: np.ndarray, track_zeros: bool = False
    ) -> List[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]]:
        """Bottom-up pass over a ``(B, num_vars + 1, 2)`` binding batch.

        Fills the ``(num_nodes, B)`` ``values`` array in place.  Only with
        ``track_zeros`` does it keep (and return) the per-AND-group zero
        bookkeeping the downward pass needs: ``(nodes, B)`` zero counts and
        zero-masked products, the ``(arity, nodes, B)`` child zero mask, and
        the gathered children with zeros replaced by one (a division-safe
        denominator).
        """
        # Every AND/OR node is written by its group below; only leaves need filling.
        values[self._false_positions] = 0.0
        values[self._true_positions] = 1.0
        values[self._literal_positions] = literal_values[
            :, self._literal_vars, self._literal_signs
        ].T

        and_bookkeeping: List[
            Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
        ] = []
        for group in self._groups:
            gathered = values.take(group.children, axis=0)
            if group.is_and and track_zeros:
                zero_mask = gathered == 0
                zero_counts = zero_mask.sum(axis=0)
                np.copyto(gathered, 1.0, where=zero_mask)  # a fresh gather; safe to clean
                nonzero_product = _fold(np.multiply, gathered)
                values[group.node_positions] = np.where(zero_counts > 0, 0.0 + 0j, nonzero_product)
                and_bookkeeping.append((zero_counts, nonzero_product, zero_mask, gathered))
                continue
            values[group.node_positions] = _fold(np.multiply if group.is_and else np.add, gathered)
            and_bookkeeping.append(None)
        return and_bookkeeping

    def evaluate_batch(
        self, literal_values: np.ndarray, values: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Batched upward pass.

        ``literal_values`` has shape ``(B, num_vars + 1, 2)``; returns the
        ``(B,)`` array of weighted model counts.  Cost is one set of NumPy
        calls per group regardless of ``B``.  A caller-owned ``(num_nodes, B)``
        complex ``values`` matrix, if given, replaces the workspace and keeps
        every node's value for :meth:`evaluate_cone`.
        """
        literal_values = self._as_batch(literal_values)
        batch = literal_values.shape[0]
        if batch == 0:
            return np.zeros(0, dtype=complex)
        if values is None:
            values = self._workspace_for(batch)["values"]
        self._upward_batch(literal_values, values)
        return values[self.root_index].copy()

    def _cone(self, variable: int) -> Tuple:
        """``variable``'s positive and negative leaves, per-level-group
        ``(op, nodes, children)`` over its cone, and all cone nodes.
        """
        cone = self._cones.get(variable)
        if cone is None:
            mine = self._literal_vars == variable
            leaves, signs = self._literal_positions[mine], self._literal_signs[mine]
            in_cone = np.zeros(self.num_nodes, dtype=bool)
            in_cone[leaves] = True
            groups = []
            for group in self._groups:
                members = in_cone[group.children].any(axis=0)
                if not members.any():
                    continue
                in_cone[group.node_positions[members]] = True
                groups.append((
                    np.multiply if group.is_and else np.add,
                    group.node_positions[members],
                    np.ascontiguousarray(group.children[:, members]),
                ))
            cone = (leaves[signs == 1], leaves[signs == 0], groups, np.flatnonzero(in_cone))
            self._cones[variable] = cone
        return cone

    def evaluate_cone(
        self, values: np.ndarray, variable: int, positive: np.ndarray, negative: np.ndarray
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Set ``variable``'s literal leaves and recompute only their cone, in place.

        ``values`` holds a full upward pass (``evaluate_batch(..., values=)``);
        leaves ``+variable`` take the per-column ``positive`` values and
        ``-variable`` the ``negative`` ones.  Returns the ``(B,)`` new roots,
        bit-identical to a full pass, and ``(cone_nodes, old_values)`` for
        putting back the old values of any column.
        """
        positive_leaves, negative_leaves, groups, nodes = self._cone(variable)
        undo = (nodes, values[nodes])
        values[positive_leaves] = positive
        values[negative_leaves] = negative
        for op, node_positions, children in groups:
            values[node_positions] = _fold(op, values.take(children, axis=0))
        return values[self.root_index].copy(), undo

    def evaluate_with_derivatives_batch(
        self, literal_values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched upward + downward pass.

        Returns ``(root_values, derivatives)`` where ``root_values`` has
        shape ``(B,)`` and ``derivatives`` has the same shape as
        ``literal_values`` and holds the partial derivative of each root with
        respect to each literal leaf value.
        """
        literal_values = self._as_batch(literal_values)
        batch = literal_values.shape[0]
        if batch == 0:
            return np.zeros(0, dtype=complex), np.zeros_like(literal_values, dtype=complex)
        values = self._workspace_for(batch)["values"]
        gradients = self._gradients_buffer(batch)
        and_bookkeeping = self._upward_batch(literal_values, values, track_zeros=True)

        gradients.fill(0.0)
        gradients[self.root_index] = 1.0
        for group_index in range(len(self._groups) - 1, -1, -1):
            group = self._groups[group_index]
            # (nodes, B), broadcast over the (arity, nodes, B) edge gathers.
            parent_gradient = gradients[group.node_positions]
            if group.is_and:
                zero_counts, nonzero_product, zero_mask, cleaned_children = (
                    and_bookkeeping[group_index]
                )
                # Product of the node's *other* children:
                #  - no zero children: nonzero_product / child_value
                #  - exactly one zero child: nonzero_product for that child, 0 for others
                #  - two or more zero children: 0 everywhere.
                # ``cleaned_children`` has the zeros replaced by one, so the
                # division needs no masking, and at a lone zero child it
                # yields nonzero_product itself.
                ratio = nonzero_product / cleaned_children
                keep = (zero_counts == 0) | ((zero_counts == 1) & zero_mask)
                contributions = np.where(keep, parent_gradient * ratio, 0.0 + 0j).reshape(-1, batch)
            else:
                contributions = np.tile(parent_gradient, (group.children.shape[0], 1))
            group.scatter.add_to(gradients, contributions)

        # Scatter leaf gradients back to (var, sign) slots; duplicate literal
        # leaves for the same (var, sign) accumulate, matching the scalar path.
        leaf_derivatives = np.zeros(((self.num_vars + 1) * 2, batch), dtype=complex)
        if len(self._literal_positions):
            self._literal_scatter.add_to(leaf_derivatives, gradients[self._literal_positions])
        derivatives = np.ascontiguousarray(
            leaf_derivatives.reshape(self.num_vars + 1, 2, batch).transpose(2, 0, 1)
        )
        return values[self.root_index].copy(), derivatives

    def evaluate(self, literal_values: np.ndarray) -> complex:
        """Upward pass: the weighted model count under ``literal_values``.

        A ``B = 1`` wrapper over :meth:`evaluate_batch`.
        """
        roots = self.evaluate_batch(np.asarray(literal_values)[np.newaxis])
        return complex(roots[0])

    def evaluate_with_derivatives(
        self, literal_values: np.ndarray
    ) -> Tuple[complex, np.ndarray]:
        """Upward + downward pass.

        Returns ``(root_value, derivatives)`` where ``derivatives`` has the
        same shape as ``literal_values`` and holds the partial derivative of
        the root with respect to each literal leaf value.  A ``B = 1``
        wrapper over :meth:`evaluate_with_derivatives_batch`.
        """
        roots, derivatives = self.evaluate_with_derivatives_batch(
            np.asarray(literal_values)[np.newaxis]
        )
        return complex(roots[0]), derivatives[0]

    # ------------------------------------------------------------------
    # Pickling (compiled circuits shipped to pooled workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict:
        """Pickle everything but the scratch buffers and cone plans.

        Both are pure caches (workspaces can be hundreds of megabytes for
        large batch sizes); a restored circuit re-grows them lazily on first
        use, and pickles are the same with or without them.
        """
        state = dict(self.__dict__)
        state["_workspaces"] = None
        del state["_cones"]
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._workspaces = OrderedDict()
        self._cones = {}

    # ------------------------------------------------------------------
    # Serialisation (c2d-compatible .nnf text)
    # ------------------------------------------------------------------
    def to_nnf_text(self) -> str:
        lines = [f"nnf {self.num_nodes} {self.num_edges} {self.num_vars}"]
        for index in range(self.num_nodes):
            node_type = self.node_types[index]
            if node_type == NODE_FALSE:
                lines.append("O 0 0")
            elif node_type == NODE_TRUE:
                lines.append("A 0")
            elif node_type == NODE_LITERAL:
                lines.append(f"L {self.literals[index]}")
            elif node_type == NODE_AND:
                children = self.children[index]
                lines.append("A " + " ".join(str(c) for c in [len(children)] + children))
            else:
                children = self.children[index]
                lines.append("O 0 " + " ".join(str(c) for c in [len(children)] + children))
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"ArithmeticCircuit(nodes={self.num_nodes}, edges={self.num_edges}, vars={self.num_vars})"
