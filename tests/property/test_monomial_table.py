"""Property tests: evaluation is row-independent in every compiled layout.

A row's result may depend only on its own valuation row — never on the
batch it arrives in.  The chaos suite relies on this to compare sharded and
serial runs bit for bit, so for the real, tropical and Boolean compiled
sets, over both layouts of the real distinct-monomial table (``dense``:
polynomials share monomials; ``rows``: every key owns its monomials):

* a batch row equals the same row evaluated alone, bit for bit, and the
  same row evaluated through shards of any size;
* a delta batch row equals the same plan evaluated alone and through
  shards, and a no-op plan equals the baseline;
* real results in the dense layout match a reference that walks every
  monomial row, within ``1e-12`` of the magnitude of the row's terms.
"""

from hypothesis import given, settings, strategies as st

import numpy as np

from repro.provenance.backends import resolve_backend
from repro.provenance.backends.numeric import CompiledNumericSet
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet

SHARED_NAMES = ["a", "b", "c", "d"]
_EMPTY_PLAN = (np.zeros(0, dtype=np.intp), np.zeros(0))

#: Non-zero coefficients, so no term drops out and the layout is as drawn.
COEFFICIENTS = st.floats(min_value=0.5, max_value=20) | st.floats(
    min_value=-20, max_value=-0.5
)


@st.composite
def shared_sets(draw):
    """Keys drawing their terms from one small monomial pool (dense layout)."""
    pool = draw(
        st.lists(
            st.dictionaries(
                st.sampled_from(SHARED_NAMES),
                st.integers(min_value=1, max_value=3),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        )
    )
    result = ProvenanceSet()
    for k in range(draw(st.integers(min_value=1, max_value=5))):
        terms = {
            Monomial(exponents): draw(COEFFICIENTS) for exponents in pool
        }
        if draw(st.booleans()):
            terms[Monomial.unit()] = draw(COEFFICIENTS)
        result[(f"g{k}",)] = Polynomial(terms)
    return result


@st.composite
def disjoint_sets(draw):
    """Every key owns its monomials: keys × distinct outgrows the rows."""
    result = ProvenanceSet()
    for k in range(draw(st.integers(min_value=7, max_value=9))):
        terms = {
            Monomial({f"x{k}_{j}": draw(st.integers(min_value=1, max_value=2))}):
            draw(COEFFICIENTS)
            for j in range(draw(st.integers(min_value=1, max_value=2)))
        }
        result[(f"g{k}",)] = Polynomial(terms)
    return result


def _values(draw, backend, count, width):
    if backend == "bool":
        element = st.sampled_from([0.0, 1.0])
    else:
        element = st.one_of(
            st.sampled_from([0.0, 5e-324, 1.0]),
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        )
    cells = draw(st.lists(element, min_size=count * width, max_size=count * width))
    return np.array(cells, dtype=np.float64).reshape(count, width)


@st.composite
def cases(draw):
    """(backend, provenance, compiled, rows matrix, shard size)."""
    backend = draw(st.sampled_from(["real", "tropical", "bool"]))
    layout = draw(st.sampled_from(["dense", "rows"]))
    provenance = draw(shared_sets() if layout == "dense" else disjoint_sets())
    compiled = resolve_backend(backend).compile(provenance)
    if backend == "real":
        assert compiled._monomial_table().layout == layout
    count = draw(st.integers(min_value=1, max_value=9))
    matrix = _values(draw, backend, count, len(compiled.variables))
    shard = draw(st.integers(min_value=1, max_value=count))
    return backend, provenance, compiled, matrix, shard


def _plans(base, matrix):
    """Each row of ``matrix`` as a plan of the cells that differ from ``base``."""
    plans = []
    for row in matrix:
        columns = np.flatnonzero(row != base).astype(np.intp)
        plans.append((columns, row[columns]))
    return plans


@settings(max_examples=80, deadline=None)
@given(case=cases())
def test_rows_are_independent_of_their_batch(case):
    _backend, _provenance, compiled, matrix, shard = case
    batch = compiled.evaluate_matrix(matrix)
    for i, row in enumerate(matrix):
        np.testing.assert_array_equal(compiled.evaluate_matrix(row[np.newaxis])[0], batch[i])
        valuation = dict(zip(compiled.variables, row))
        np.testing.assert_array_equal(compiled.evaluate_vector(valuation), batch[i])
    sharded = np.concatenate(
        [
            compiled.evaluate_matrix(matrix[start : start + shard])
            for start in range(0, len(matrix), shard)
        ]
    )
    np.testing.assert_array_equal(sharded, batch)


@settings(max_examples=80, deadline=None)
@given(case=cases())
def test_delta_rows_are_independent_of_their_batch(case):
    _backend, _provenance, compiled, matrix, shard = case
    base, rows = matrix[0], matrix[1:]
    plans = _plans(base, rows) + [_EMPTY_PLAN]
    batch = compiled.evaluate_deltas(base, plans)
    for i, plan in enumerate(plans):
        np.testing.assert_array_equal(compiled.evaluate_deltas(base, [plan])[0], batch[i])
    sharded = np.concatenate(
        [
            compiled.evaluate_deltas(base, plans[start : start + shard])
            for start in range(0, len(plans), shard)
        ]
    )
    np.testing.assert_array_equal(sharded, batch)
    np.testing.assert_array_equal(batch[-1], compiled.baseline_totals(base))


@st.composite
def real_dense_cases(draw):
    """(provenance, compiled, rows matrix) for a real set in the dense layout."""
    provenance = draw(shared_sets())
    compiled = resolve_backend("real").compile(provenance)
    count = draw(st.integers(min_value=1, max_value=9))
    return provenance, compiled, _values(draw, "real", count, len(compiled.variables))


@settings(max_examples=80, deadline=None)
@given(case=real_dense_cases())
def test_real_dense_results_match_the_row_walk(case):
    provenance, compiled, matrix = case
    reference = CompiledNumericSet._evaluate_values(compiled, matrix)
    # The rounding of any summation order is bounded by the magnitude of
    # the terms: the same set with |coefficients| under |values|.
    magnitude = resolve_backend("real").compile(
        provenance.map(
            lambda p: Polynomial({m: abs(c) for m, c in p.terms()})
        )
    )
    scale = CompiledNumericSet._evaluate_values(magnitude, np.abs(matrix))
    for got in (
        compiled.evaluate_matrix(matrix),
        compiled.evaluate_deltas(matrix[0], _plans(matrix[0], matrix)),
    ):
        assert np.all(np.abs(got - reference) <= 1e-12 * scale)
