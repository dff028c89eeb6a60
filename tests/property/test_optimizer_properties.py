"""Property-based tests: the exact DP agrees with brute force, greedy is sound."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.exceptions import InfeasibleBoundError, UnsupportedPolynomialError
from repro.core.brute_force import optimize_brute_force
from repro.core.compression import apply_abstraction
from repro.core.greedy import optimize_greedy
from repro.core.optimizer import build_load_model, optimize_single_tree
from repro.core.cut import enumerate_cuts
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.workloads.random_polynomials import random_single_tree_instance, random_tree


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=300))
    provenance, tree = random_single_tree_instance(
        num_leaves=draw(st.integers(min_value=2, max_value=6)),
        num_groups=draw(st.integers(min_value=1, max_value=3)),
        monomials_per_group=draw(st.integers(min_value=4, max_value=12)),
        num_extra_variables=draw(st.integers(min_value=0, max_value=3)),
        seed=seed,
    )
    return provenance, tree


@st.composite
def instances_with_bounds(draw):
    provenance, tree = draw(instances())
    full = provenance.size()
    fraction = draw(st.floats(min_value=0.05, max_value=1.1))
    bound = max(0, int(full * fraction))
    return provenance, tree, bound


@settings(max_examples=30, deadline=None)
@given(instances())
def test_load_model_predicts_exact_sizes(instance):
    provenance, tree = instance
    model = build_load_model(provenance, tree)
    for cut in enumerate_cuts(tree):
        predicted = model.cut_size(cut)
        actual = apply_abstraction(provenance, cut).compressed_size
        assert predicted == actual


@settings(max_examples=30, deadline=None)
@given(instances_with_bounds())
def test_dp_matches_brute_force(instance):
    provenance, tree, bound = instance
    try:
        dp = optimize_single_tree(provenance, tree, bound)
    except InfeasibleBoundError:
        with pytest.raises(InfeasibleBoundError):
            optimize_brute_force(provenance, tree, bound)
        return
    bf = optimize_brute_force(provenance, tree, bound)
    assert dp.achieved_size <= bound
    assert bf.achieved_size <= bound
    assert dp.cut.num_variables() == bf.cut.num_variables()
    assert dp.predicted_size == dp.achieved_size


@settings(max_examples=30, deadline=None)
@given(instances_with_bounds())
def test_greedy_is_feasible_whenever_dp_is(instance):
    provenance, tree, bound = instance
    try:
        dp = optimize_single_tree(provenance, tree, bound)
    except InfeasibleBoundError:
        return
    greedy = optimize_greedy(provenance, tree, bound)
    assert greedy.achieved_size <= bound
    assert greedy.num_variables <= dp.num_variables + len(tree.leaves())


@settings(max_examples=30, deadline=None)
@given(instances())
def test_infeasible_flag_consistency(instance):
    provenance, tree = instance
    # A bound of 0 is infeasible unless the provenance itself is empty.
    if provenance.size() == 0:
        return
    result = optimize_single_tree(provenance, tree, 0, allow_infeasible=True)
    assert not result.feasible
    # The infeasible fallback is the smallest achievable abstraction.
    brute = optimize_brute_force(provenance, tree, 0, allow_infeasible=True)
    assert result.achieved_size == brute.achieved_size


# -- the load model vs a term-by-term reference -------------------------------


def _reference_load_model(provenance, tree):
    """``build_load_model`` computed monomial by monomial, without memoisation.

    Returns ``(loads, base_monomials, leaf_occurrences)``.
    """
    tree_leaves = set(tree.leaves())
    residues_per_leaf = {leaf: set() for leaf in tree_leaves}
    occurrences = {leaf: 0 for leaf in tree_leaves}
    base_monomials = 0
    for group_key, polynomial in provenance.items():
        for monomial, _coefficient in polynomial.terms():
            in_tree = [name for name, _ in monomial if name in tree_leaves]
            if not in_tree:
                base_monomials += 1
                continue
            if len(in_tree) > 1:
                raise UnsupportedPolynomialError(
                    f"monomial {monomial.to_text()!r} contains {len(in_tree)} "
                    f"variables of tree {tree.root!r}; the single-tree "
                    "optimizer requires at most one (use optimize_greedy)"
                )
            leaf = in_tree[0]
            residue = monomial.without([leaf])
            residues_per_leaf[leaf].add((group_key, residue, monomial.exponent(leaf)))
            occurrences[leaf] += 1

    loads = {}

    def visit(name):
        node = tree.node(name)
        if node.is_leaf:
            residues = residues_per_leaf.get(name, set())
        else:
            residues = set()
            for child in node.children:
                residues |= visit(child)
        loads[name] = len(residues)
        return residues

    visit(tree.root)
    return loads, base_monomials, occurrences


@st.composite
def shared_single_tree_instances(draw):
    """Single-tree provenance whose groups share monomials, leaf powers included."""
    tree = random_tree(
        draw(st.integers(min_value=2, max_value=7)),
        seed=draw(st.integers(min_value=0, max_value=50)),
    )
    leaves = tree.leaves()
    monomial = st.tuples(
        st.one_of(st.none(), st.sampled_from(leaves)),
        st.integers(min_value=1, max_value=3),
        st.lists(st.sampled_from(["e1", "e2", "e3"]), max_size=2),
    )
    pool = draw(st.lists(monomial, min_size=1, max_size=10))
    provenance = ProvenanceSet()
    for group in range(draw(st.integers(min_value=1, max_value=5))):
        chosen = draw(st.lists(st.sampled_from(pool), max_size=10))
        terms = [
            (1.0 + index, ([leaf] * power if leaf else []) + extras)
            for index, (leaf, power, extras) in enumerate(chosen)
        ]
        provenance[(f"g{group}",)] = Polynomial.from_terms(terms)
    return provenance, tree


@settings(max_examples=60, deadline=None)
@given(st.one_of(instances(), shared_single_tree_instances()))
def test_load_model_matches_reference(instance):
    provenance, tree = instance
    model = build_load_model(provenance, tree)
    loads, base_monomials, occurrences = _reference_load_model(provenance, tree)
    assert model.loads == loads
    assert model.base_monomials == base_monomials
    assert model.leaf_occurrences == occurrences


def test_two_leaf_error_names_the_first_monomial_in_canonical_order():
    tree = random_tree(4, seed=3)
    a, b, c, d = sorted(tree.leaves())
    provenance = ProvenanceSet()
    provenance[("fine",)] = Polynomial.from_terms([(1.0, [a, "e1"]), (2.0, ["e2"])])
    # Inserted out of canonical order: e1*a*b sorts before c*d.
    provenance[("bad",)] = Polynomial.from_terms(
        [(1.0, [c, d]), (2.0, [b]), (3.0, [a, b, "e1"])]
    )
    with pytest.raises(UnsupportedPolynomialError) as expected:
        _reference_load_model(provenance, tree)
    with pytest.raises(UnsupportedPolynomialError) as raised:
        build_load_model(provenance, tree)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value) == (
        f"monomial 'e1*{a}*{b}' contains 2 variables of tree {tree.root!r}; "
        "the single-tree optimizer requires at most one (use optimize_greedy)"
    )
