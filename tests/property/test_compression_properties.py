"""Property-based tests of the compression semantics.

Two invariants matter for the soundness of hypothetical reasoning over
compressed provenance:

* compression never increases the provenance size, and coarser cuts never
  yield larger provenance than finer ones;
* whenever a valuation assigns the same value to all variables grouped under
  a meta-variable, evaluating the compressed provenance (with the
  meta-variable bound to that shared value) gives exactly the same result as
  evaluating the full provenance — i.e. compression only removes degrees of
  freedom, never accuracy for the scenarios it still supports.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.core.compression import apply_abstraction
from repro.core.cut import enumerate_cuts, leaf_cut
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.variables import Variable
from repro.workloads.random_polynomials import random_single_tree_instance


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=500))
    num_leaves = draw(st.integers(min_value=2, max_value=6))
    provenance, tree = random_single_tree_instance(
        num_leaves=num_leaves,
        num_groups=draw(st.integers(min_value=1, max_value=3)),
        monomials_per_group=draw(st.integers(min_value=3, max_value=12)),
        seed=seed,
    )
    return provenance, tree


@settings(max_examples=25, deadline=None)
@given(instances())
def test_compression_is_monotone_in_the_cut(instance):
    provenance, tree = instance
    full_size = provenance.size()
    for cut in enumerate_cuts(tree):
        result = apply_abstraction(provenance, cut)
        assert result.compressed_size <= full_size
        # Coarsening the cut at any inner node cannot increase the size.
        for node in tree.inner_nodes():
            if node in cut.nodes:
                continue
            try:
                coarser = cut.coarsen(node)
            except Exception:
                continue
            coarser_size = apply_abstraction(provenance, coarser).compressed_size
            assert coarser_size <= result.compressed_size


@settings(max_examples=25, deadline=None)
@given(instances(), st.floats(min_value=0.1, max_value=2.0, allow_nan=False))
def test_group_uniform_valuations_are_lossless(instance, shared_value):
    provenance, tree = instance
    for cut in list(enumerate_cuts(tree))[:8]:
        result = apply_abstraction(provenance, cut)
        mapping = result.abstraction.mapping
        full_valuation = {}
        for name in provenance.variables():
            if name in mapping:
                # all members of a group share the group's value
                full_valuation[name] = shared_value
            else:
                full_valuation[name] = 0.7
        compressed_valuation = {}
        for name in result.compressed.variables():
            compressed_valuation[name] = (
                shared_value if name in set(mapping.values()) else 0.7
            )
        full_results = provenance.evaluate(full_valuation)
        compressed_results = result.compressed.evaluate(compressed_valuation)
        for key, value in full_results.items():
            assert compressed_results[key] == pytest.approx(value, rel=1e-6, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(instances())
def test_variable_counts_follow_the_cut(instance):
    provenance, tree = instance
    tree_leaves = set(tree.leaves())
    non_tree = {v for v in provenance.variables() if v not in tree_leaves}
    for cut in list(enumerate_cuts(tree))[:10]:
        result = apply_abstraction(provenance, cut)
        compressed_vars = set(result.compressed.variables())
        # Non-tree variables survive untouched.
        assert non_tree <= compressed_vars
        # Every other variable is a cut node.
        assert compressed_vars - non_tree <= set(cut.nodes)


@settings(max_examples=25, deadline=None)
@given(instances())
def test_leaf_cut_is_identity(instance):
    provenance, tree = instance
    result = apply_abstraction(provenance, leaf_cut(tree))
    assert result.compressed == provenance


# -- memoised rename vs a term-by-term reference ------------------------------

_VARIABLES = ("x", "y", "z", "w")
_COEFFICIENTS = st.one_of(
    st.sampled_from([-2.0, -1.0, 1.0, 2.0]),  # small integers cancel often
    st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
)


def _reference_rename(provenance, mapping):
    """``rename`` term by term through ``Monomial.rename``, as it worked unmemoised."""
    result = ProvenanceSet()
    for key, polynomial in provenance.items():
        merged = {}
        for monomial in polynomial.monomials():
            target = monomial.rename(mapping)
            merged[target] = merged.get(target, 0.0) + polynomial.coefficient(monomial)
        result[key] = Polynomial(merged)
    return result


def _assert_same_rename(provenance, mapping):
    renamed = provenance.rename(mapping)
    reference = _reference_rename(provenance, mapping)
    assert renamed == reference
    assert renamed.fingerprint() == reference.fingerprint()
    assert renamed.variables() == reference.variables()
    for key, polynomial in reference.items():
        # Same term order and bit-identical coefficients, not just equality.
        ours = renamed[key]
        assert list(ours.monomials()) == list(polynomial.monomials())
        assert [ours.coefficient(m) for m in ours.monomials()] == [
            polynomial.coefficient(m) for m in polynomial.monomials()
        ]
        assert provenance[key].rename(mapping) == polynomial


@st.composite
def provenance_and_mapping(draw):
    provenance = ProvenanceSet()
    for group in range(draw(st.integers(min_value=1, max_value=4))):
        terms = draw(
            st.lists(
                st.tuples(
                    _COEFFICIENTS,
                    st.lists(st.sampled_from(_VARIABLES), max_size=3),
                ),
                max_size=8,
            )
        )
        provenance[(group,)] = Polynomial.from_terms(terms)
    mapping = {}
    for source in draw(st.lists(st.sampled_from(_VARIABLES), unique=True)):
        # meta-variables, existing variables (identity included) and
        # Variable objects naming either
        target = draw(st.sampled_from(("g", "h") + _VARIABLES))
        mapping[source] = Variable(target) if draw(st.booleans()) else target
    return provenance, mapping


@settings(max_examples=200, deadline=None)
@given(provenance_and_mapping())
def test_memoised_rename_matches_term_by_term_reference(case):
    _assert_same_rename(*case)


@pytest.mark.parametrize(
    "groups, mapping",
    [
        # x*z and y*z cancel in group a, so g is no variable of the result
        ({"a": [(1.0, ["x", "z"]), (-1.0, ["y", "z"])], "b": [(2.0, ["w"])]},
         {"x": "g", "y": "g"}),
        # two variables of one monomial merged: x*y -> g^2
        ({"a": [(1.5, ["x", "y"]), (2.0, ["x", "x"])]}, {"x": "g", "y": "g"}),
        # a target that already occurs as a variable
        ({"a": [(1.0, ["x"]), (2.0, ["y"]), (3.0, ["x", "z"])]}, {"x": "y"}),
        # the identity mapping
        ({"a": [(1.0, ["x", "y"])], "b": [(2.0, ["z"])]}, {"x": "x", "y": "y"}),
        # Variable-object targets, mixed with a plain name for the same target
        ({"a": [(1.0, ["x"]), (4.0, ["y"]), (0.5, ["z"])]},
         {"x": Variable("g"), "y": "g", "z": Variable("y")}),
    ],
    ids=["cancel", "merge-in-monomial", "existing-target", "identity", "variable-objects"],
)
def test_rename_edge_cases_match_reference(groups, mapping):
    provenance = ProvenanceSet(
        {key: Polynomial.from_terms(terms) for key, terms in groups.items()}
    )
    _assert_same_rename(provenance, mapping)
