"""Tests for the DPLL knowledge compiler (CNF -> d-DNNF)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf import CNF
from repro.knowledge import (
    KnowledgeCompiler,
    NNFManager,
    check_decomposability,
    count_nodes_and_edges,
    evaluate_boolean,
    split_components,
    unit_propagate,
)


def brute_force_models(cnf):
    variables = sorted(set(range(1, cnf.num_vars + 1)))
    models = []
    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if cnf.is_satisfied_by(assignment):
            models.append(assignment)
    return models


def compiled_agrees_with_cnf(cnf, order_method="min_fill"):
    compiler = KnowledgeCompiler(order_method=order_method)
    root, manager, stats = compiler.compile(cnf)
    variables = sorted(set(range(1, cnf.num_vars + 1)))
    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        expected = cnf.is_satisfied_by(assignment)
        compiled = evaluate_boolean(root, assignment)
        if expected != compiled:
            return False
    return True


def random_cnf(num_vars, num_clauses, seed, max_width=3):
    rng = np.random.default_rng(seed)
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        width = int(rng.integers(1, max_width + 1))
        variables = rng.choice(np.arange(1, num_vars + 1), size=min(width, num_vars), replace=False)
        literals = [int(v) if rng.random() < 0.5 else -int(v) for v in variables]
        cnf.add_clause(literals)
    return cnf


class TestUnitPropagate:
    def test_propagates_chains(self):
        residual, implied, conflict = unit_propagate([(1,), (-1, 2), (-2, 3)])
        assert not conflict
        assert implied == {1, 2, 3}
        assert residual == frozenset()

    def test_detects_conflict(self):
        _, _, conflict = unit_propagate([(1,), (-1,)])
        assert conflict

    def test_leaves_non_units_alone(self):
        residual, implied, conflict = unit_propagate([(1, 2), (2, 3)])
        assert not conflict
        assert implied == set()
        assert len(residual) == 2


class TestSplitComponents:
    def test_disconnected_clauses_split(self):
        components = split_components(frozenset({(1, 2), (3, 4), (2, -1)}))
        assert len(components) == 2

    def test_connected_clauses_stay_together(self):
        components = split_components(frozenset({(1, 2), (2, 3), (3, 4)}))
        assert len(components) == 1


class TestCompilerCorrectness:
    def test_single_clause(self):
        cnf = CNF(2)
        cnf.add_clause([1, 2])
        assert compiled_agrees_with_cnf(cnf)

    def test_exactly_one_constraint(self):
        cnf = CNF(3)
        cnf.add_exactly_one([1, 2, 3])
        assert compiled_agrees_with_cnf(cnf)

    def test_unsatisfiable_formula(self):
        cnf = CNF(2)
        cnf.add_clause([1])
        cnf.add_clause([-1])
        compiler = KnowledgeCompiler()
        root, _, _ = compiler.compile(cnf)
        assert not evaluate_boolean(root, {1: True, 2: True})
        assert not evaluate_boolean(root, {1: False, 2: False})

    @pytest.mark.parametrize("order_method", ["min_fill", "min_degree", "lexicographic", "hypergraph"])
    def test_order_methods_all_correct(self, order_method):
        cnf = random_cnf(num_vars=6, num_clauses=9, seed=42)
        assert compiled_agrees_with_cnf(cnf, order_method)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_formulas_property(self, seed):
        cnf = random_cnf(num_vars=5, num_clauses=7, seed=seed)
        assert compiled_agrees_with_cnf(cnf)

    def test_decision_variable_restriction_preserves_semantics(self):
        cnf = CNF(4)
        cnf.add_clause([1, 2])
        cnf.add_clause([-2, 3])
        cnf.add_clause([3, 4])
        compiler = KnowledgeCompiler()
        unrestricted_root, _, _ = compiler.compile(cnf)
        restricted_root, _, _ = compiler.compile(cnf, decision_variables=[1, 2, 3, 4])
        for bits in itertools.product([False, True], repeat=4):
            assignment = dict(zip([1, 2, 3, 4], bits))
            assert evaluate_boolean(unrestricted_root, assignment) == evaluate_boolean(
                restricted_root, assignment
            )


class TestCompilerStructure:
    def test_decomposability(self):
        cnf = random_cnf(num_vars=6, num_clauses=8, seed=3)
        root, _, _ = KnowledgeCompiler().compile(cnf)
        assert check_decomposability(root)

    def test_caching_reduces_work(self):
        # Two independent copies of the same sub-formula should hit the cache.
        cnf = CNF(6)
        cnf.add_clause([1, 2])
        cnf.add_clause([-1, 2])
        cnf.add_clause([3, 4])
        cnf.add_clause([-3, 4])
        cnf.add_clause([5, 6])
        cnf.add_clause([-5, 6])
        _, _, stats = KnowledgeCompiler().compile(cnf)
        assert stats.component_splits >= 1

    def test_node_and_edge_counts(self):
        cnf = CNF(2)
        cnf.add_clause([1, 2])
        root, _, _ = KnowledgeCompiler().compile(cnf)
        nodes, edges = count_nodes_and_edges(root)
        assert nodes >= 3
        assert edges >= 2

    def test_stats_dict(self):
        cnf = random_cnf(num_vars=5, num_clauses=6, seed=9)
        _, _, stats = KnowledgeCompiler().compile(cnf)
        summary = stats.as_dict()
        assert set(summary) == {"decisions", "cache_hits", "component_splits"}
        assert summary["decisions"] >= 1


# ----------------------------------------------------------------------
# Reference equivalence: the occurrence-indexed helpers against the
# whole-formula rescans they replaced.  Set iteration order decides node
# ids in the compiled d-DNNF, so the residual and every component must be
# equal as ordered sequences, not only as sets.
# ----------------------------------------------------------------------
def reference_unit_propagate(clauses):
    working = [list(c) for c in clauses]
    implied = set()
    changed = True
    while changed:
        changed = False
        units = [c[0] for c in working if len(c) == 1]
        if not units:
            break
        for literal in units:
            if -literal in implied:
                return frozenset(), implied, True
            if literal in implied:
                continue
            implied.add(literal)
            changed = True
        new_working = []
        for clause in working:
            satisfied = False
            reduced = []
            for literal in clause:
                if literal in implied:
                    satisfied = True
                    break
                if -literal in implied:
                    continue
                reduced.append(literal)
            if satisfied:
                continue
            if not reduced:
                return frozenset(), implied, True
            new_working.append(reduced)
        working = new_working
    residual = frozenset(tuple(sorted(set(c))) for c in working)
    return residual, implied, False


def reference_split_components(clauses):
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for clause in clauses:
        variables = [abs(l) for l in clause]
        for var in variables:
            parent.setdefault(var, var)
        for other in variables[1:]:
            union(variables[0], other)

    groups = {}
    for clause in clauses:
        root = find(abs(clause[0]))
        groups.setdefault(root, []).append(clause)
    return [frozenset(group) for group in groups.values()]


def assert_propagation_matches_reference(clauses):
    residual, implied, conflict = unit_propagate(clauses)
    expected_residual, expected_implied, expected_conflict = reference_unit_propagate(clauses)
    assert conflict == expected_conflict
    if conflict:
        # The reference stops at the first conflict its round-by-round scan
        # meets, so the literals it has implied by then depend on that scan
        # order; the compiler discards them.
        assert residual == expected_residual == frozenset()
    else:
        assert implied == expected_implied
        assert list(residual) == list(expected_residual)


def assert_split_matches_reference(clauses):
    components = split_components(clauses)
    expected = reference_split_components(clauses)
    assert [list(component) for component in components] == [list(c) for c in expected]


#: Literals over six variables; drawing with replacement gives clauses with
#: duplicate literals and complementary pairs.
literals = st.integers(min_value=1, max_value=6).flatmap(lambda v: st.sampled_from([v, -v]))
clause_lists = st.lists(
    st.lists(literals, min_size=1, max_size=4).map(tuple),
    min_size=0,
    max_size=14,
)


class TestReferenceEquivalence:
    @given(clause_lists)
    @settings(max_examples=300, deadline=None)
    def test_unit_propagate_matches_reference(self, clauses):
        assert_propagation_matches_reference(clauses)

    @given(clause_lists)
    @settings(max_examples=300, deadline=None)
    def test_unit_propagate_matches_reference_on_normalized_sets(self, clauses):
        # The compiler's own inputs: sorted, duplicate-free tuples in a frozenset.
        assert_propagation_matches_reference(frozenset(tuple(sorted(set(c))) for c in clauses))

    @given(clause_lists)
    @settings(max_examples=300, deadline=None)
    def test_split_components_matches_reference(self, clauses):
        assert_split_matches_reference(frozenset(clauses))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_split_of_propagated_residual_matches_reference(self, seed):
        cnf = random_cnf(num_vars=12, num_clauses=14, seed=seed, max_width=3)
        residual, _, conflict = unit_propagate(cnf.clauses)
        if not conflict:
            assert_split_matches_reference(residual)

    def test_conflict_through_an_emptied_clause(self):
        clauses = [(1,), (2,), (-1, -2), (3, 4)]
        assert_propagation_matches_reference(clauses)
        assert unit_propagate(clauses)[2]

    def test_conflict_through_complementary_units(self):
        clauses = [(1,), (-1, 2), (-1, -2), (3, 4)]
        assert_propagation_matches_reference(clauses)
        assert unit_propagate(clauses)[2]

    def test_clause_satisfied_after_it_went_unit(self):
        # (-1, 2) becomes the unit (2,) and is then satisfied by 2.
        clauses = [(2, 3), (1,), (-1, 2), (-2, 4, 5), (-3, 4, 6)]
        assert_propagation_matches_reference(clauses)
        residual, implied, conflict = unit_propagate(clauses)
        assert not conflict
        assert implied == {1, 2}
        assert residual == frozenset({(4, 5), (-3, 4, 6)})

    def test_duplicate_literal_clause_is_not_a_unit(self):
        clauses = [(3, 3), (-2, 1, 1), (2,)]
        assert_propagation_matches_reference(clauses)
        residual, implied, _ = unit_propagate(clauses)
        assert implied == {2}
        assert residual == frozenset({(3,), (1,)})

    def test_empty_input_clause_is_a_conflict(self):
        # The reference returned an empty input clause as residual when no
        # unit clause was present; an empty clause is unsatisfiable.
        assert unit_propagate([(1, 2), ()])[2]
