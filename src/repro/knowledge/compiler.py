"""Exhaustive DPLL knowledge compiler: CNF -> deterministic decomposable NNF.

This is the reproduction's stand-in for the c2d compiler used by the paper.
It performs exhaustive DPLL search with

* unit propagation,
* connected-component decomposition (decomposable AND nodes),
* formula caching (hash-consed sub-results shared across branches), and
* a static decision-variable order derived from the CNF primal graph
  (min-fill / min-degree / lexicographic / hypergraph-partitioning, the same
  menu of orderings the paper discusses for qubit-state elimination).

The result is a decision-DNNF whose OR nodes are deterministic (each decides
one variable), which after smoothing evaluates amplitudes by a single
bottom-up pass — the arithmetic circuit of the paper's Figure 5.

One compilation runs in one :class:`_Search`, which keeps an occurrence
index (literal -> clauses and variable -> clauses), as sharpSAT (Thurley,
SAT 2006) and c2d (Darwiche, ECAI 2004) do.  The index starts from the CNF,
and every clause tuple the search makes (a reduced residual clause or a
decision unit) is added as it is made.  Propagating a literal then visits
only the clauses of the formula that contain it or its negation, and a
component split walks only the clauses of the variables it reaches.

Sub-formulas are still cached under their residual clause sets (frozensets
of sorted literal tuples): set equality decides which branches share a
node, and a more compact key could merge or split entries and so change the
d-DNNF.  The output is also order-sensitive.  AND children are sorted by
node id, node ids follow creation order, and creation order follows the
component order, which comes from frozenset iteration order.  So every
frozenset the search builds is built by inserting clauses in the order the
reference algorithm would: a residual in its input's iteration order,
filtered and reduced; each component in first-occurrence order, listing its
clauses in input order.
"""

from __future__ import annotations

import sys
from itertools import filterfalse
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..bayesnet.elimination_order import elimination_order
from ..cnf.formula import CNF, Clause
from .nnf import NNFManager, NNFNode

ClauseSet = FrozenSet[Clause]
_NO_CLAUSES: ClauseSet = frozenset()


class CompilationStats:
    """Counters describing one compilation run."""

    def __init__(self):
        self.decisions = 0
        self.cache_hits = 0
        self.component_splits = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "decisions": self.decisions,
            "cache_hits": self.cache_hits,
            "component_splits": self.component_splits,
        }

    def __repr__(self) -> str:
        return f"CompilationStats({self.as_dict()})"


class KnowledgeCompiler:
    """Compiles CNF formulas to deterministic decomposable NNF."""

    def __init__(self, order_method: str = "min_fill"):
        self.order_method = order_method

    # ------------------------------------------------------------------
    def compile(
        self,
        cnf: CNF,
        manager: Optional[NNFManager] = None,
        variable_order: Optional[Sequence[int]] = None,
        decision_variables: Optional[Sequence[int]] = None,
    ) -> Tuple[NNFNode, NNFManager, CompilationStats]:
        """Compile ``cnf`` into a deterministic decomposable NNF.

        Args:
            cnf: The formula to compile.
            manager: NNF node manager to build into (a fresh one when
                omitted); passing one shares hash-consed nodes across
                compilations.
            variable_order: Explicit static decision order; defaults to
                :meth:`decision_order` (the configured elimination
                heuristic).  Variables missing from the order rank last.
            decision_variables: Restricts branching to the given variables
                (the quantum encoding only ever needs to branch on
                qubit-state and noise-branch bits — weight variables are
                always implied by unit propagation once their row is
                decided, so excluding them shrinks the search
                dramatically).  If a component contains none of them the
                compiler falls back to branching on any of its variables.

        Returns:
            ``(root, manager, stats)``: the d-DNNF root node, the manager
            owning it, and :class:`CompilationStats` counters for the run.
        """
        manager = manager or NNFManager()
        if variable_order is None:
            variable_order = self.decision_order(cnf)
        order_index: Dict[int, int] = {var: i for i, var in enumerate(variable_order)}
        # Variables missing from the order (e.g. isolated) go last.
        next_rank = len(order_index)
        for var in range(1, cnf.num_vars + 1):
            if var not in order_index:
                order_index[var] = next_rank
                next_rank += 1
        decision_set = set(decision_variables) if decision_variables is not None else None

        clauses: ClauseSet = frozenset(tuple(sorted(set(c))) for c in cnf.clauses)
        search = _Search(clauses, manager, order_index, decision_set)
        units = [clause[0] for clause in clauses if len(clause) == 1]

        previous_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(previous_limit, 100_000))
        try:
            root = search.compile(clauses, units)
        finally:
            sys.setrecursionlimit(previous_limit)
        return root, manager, search.stats

    def decision_order(self, cnf: CNF) -> List[int]:
        """Static decision order over the CNF's variables."""
        return list(elimination_order(cnf.primal_graph(), self.order_method))


class _Search:
    """The state of one compilation: manager, formula cache and occurrence index.

    Every clause the search handles is registered in ``by_literal`` and
    ``by_variable``, so a clause set's clauses that contain a literal are
    ``by_literal[literal] & clauses``.
    """

    def __init__(
        self,
        clauses: Iterable[Clause],
        manager: NNFManager,
        order_index: Dict[int, int],
        decision_set: Optional[Set[int]],
    ):
        self.manager = manager
        self.order_index = order_index
        self.decision_set = decision_set
        self.stats = CompilationStats()
        self.cache: Dict[ClauseSet, NNFNode] = {}
        self.by_literal: Dict[int, Set[Clause]] = {}
        self.by_variable: Dict[int, Set[Clause]] = {}
        self._registered: Set[Clause] = set()
        for clause in clauses:
            self.register(clause)

    def register(self, clause: Clause) -> None:
        """Add ``clause`` to the occurrence index (once)."""
        if clause in self._registered:
            return
        self._registered.add(clause)
        for literal in clause:
            self.by_literal.setdefault(literal, set()).add(clause)
            self.by_variable.setdefault(abs(literal), set()).add(clause)

    # ------------------------------------------------------------------
    def propagate(
        self, clauses: Iterable[Clause], members: ClauseSet, units: Sequence[int]
    ) -> Tuple[List[Clause], Set[int], bool]:
        """Unit-propagate ``units`` through ``clauses`` to a fixpoint.

        ``members`` is the set of ``clauses``, which must all be registered,
        and ``units`` are the literals of its unit clauses.  Returns
        ``(residual, implied, conflict)``: the clauses no implied literal
        satisfies, in ``clauses`` order, with the falsified literals dropped.
        An empty clause is a conflict.  On a conflict the residual is empty
        and ``implied`` holds what was derived before it.
        """
        implied: Set[int] = set()
        if () in members:
            return [], implied, True
        by_literal = self.by_literal
        satisfied: Set[Clause] = set()
        reduced: Dict[Clause, Clause] = {}
        queue = list(units)
        for literal in queue:
            if literal in implied:
                continue
            if -literal in implied:
                return [], implied, True
            implied.add(literal)
            satisfied |= by_literal.get(literal, _NO_CLAUSES) & members
            for clause in by_literal.get(-literal, _NO_CLAUSES) & members:
                if clause in satisfied:
                    continue
                rest = tuple([l for l in clause if -l not in implied])
                if not rest:
                    return [], implied, True
                if len(rest) == 1:
                    queue.append(rest[0])
                reduced[clause] = rest
        for clause, rest in reduced.items():
            if clause not in satisfied:
                self.register(rest)
        kept = list(filterfalse(satisfied.__contains__, clauses))
        residual = list(map(reduced.get, kept, kept)) if reduced else kept
        return residual, implied, False

    def split(self, clauses: ClauseSet) -> List[Tuple[ClauseSet, Set[int]]]:
        """Partition registered ``clauses`` into variable-disjoint components.

        A breadth-first walk over ``by_variable``.  Components come out in
        first-occurrence order, each a frozenset built from its clauses in
        ``clauses`` order, together with its variable set.
        """
        by_variable = self.by_variable
        unassigned = set(clauses)
        groups: List[List[Clause]] = []
        variable_sets: List[Set[int]] = []
        for start in clauses:
            if not unassigned:
                break
            if start not in unassigned:
                continue
            unassigned.discard(start)
            group = [start]
            variables: Set[int] = set()
            for clause in group:
                for literal in clause:
                    variable = abs(literal)
                    if variable not in variables:
                        variables.add(variable)
                        found = by_variable[variable] & unassigned
                        if found:
                            unassigned -= found
                            group.extend(found)
            groups.append(group)
            variable_sets.append(variables)
        if len(groups) == 1:
            return [(frozenset(list(clauses)), variable_sets[0])]
        # A stable sort by component keeps each component's clauses in
        # ``clauses`` order.
        owner: Dict[Clause, int] = {}
        for index, group in enumerate(groups):
            owner.update(dict.fromkeys(group, index))
        ordered = sorted(clauses, key=owner.__getitem__)
        components = []
        offset = 0
        for group, variables in zip(groups, variable_sets):
            components.append((frozenset(ordered[offset : offset + len(group)]), variables))
            offset += len(group)
        return components

    # ------------------------------------------------------------------
    def compile(self, clauses: ClauseSet, units: Sequence[int]) -> NNFNode:
        """The d-DNNF of ``clauses``, whose unit clauses are ``units``."""
        cached = self.cache.get(clauses)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached

        manager = self.manager
        residual, implied, conflict = self.propagate(clauses, clauses, units)
        if conflict:
            self.cache[clauses] = manager.false()
            return manager.false()

        literal_nodes = [manager.literal(lit) for lit in sorted(implied, key=abs)]

        if not residual:
            node = manager.conjoin(literal_nodes)
            self.cache[clauses] = node
            return node

        components = self.split(frozenset(residual))
        if len(components) > 1:
            self.stats.component_splits += 1

        component_nodes = [
            self._compile_component(component, variables) for component, variables in components
        ]
        node = manager.conjoin(literal_nodes + component_nodes)
        self.cache[clauses] = node
        return node

    def _compile_component(self, component: ClauseSet, variables: Set[int]) -> NNFNode:
        cached = self.cache.get(component)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached

        candidates = variables
        if self.decision_set is not None:
            preferred = variables & self.decision_set
            if preferred:
                candidates = preferred
        order_index = self.order_index
        decision = min(candidates, key=lambda v: (order_index.get(v, v), v))
        self.stats.decisions += 1

        branches = []
        for literal in (decision, -decision):
            unit = (literal,)
            self.register(unit)
            branches.append(self.compile(component | frozenset({unit}), (literal,)))
        node = self.manager.disjoin(branches, decision_variable=decision)
        self.cache[component] = node
        return node


# ----------------------------------------------------------------------
# Single-call helpers over a one-off search
# ----------------------------------------------------------------------
def unit_propagate(clauses: Iterable[Clause]) -> Tuple[ClauseSet, Set[int], bool]:
    """Unit propagation to a fixpoint.

    Returns ``(residual_clauses, implied_literals, conflict)``.  The residual
    clauses contain no implied variables and are sorted, duplicate-free
    literal tuples.  An empty clause is a conflict.
    """
    working = [tuple(clause) for clause in clauses]
    search = _Search(working, NNFManager(), {}, None)
    units = [clause[0] for clause in working if len(clause) == 1]
    residual, implied, conflict = search.propagate(working, frozenset(working), units)
    return frozenset(tuple(sorted(set(clause))) for clause in residual), implied, conflict


def split_components(clauses: ClauseSet) -> List[ClauseSet]:
    """Partition clauses into groups sharing no variables."""
    search = _Search(clauses, NNFManager(), {}, None)
    return [component for component, _ in search.split(clauses)]
