"""A CSR-style monomial-incidence index over a provenance set and forest.

The index gives the incremental greedy kernel its monomial rows and, for
every node of every abstraction tree, the set of monomial rows its subtree
touches — i.e. the rows whose monomial contains at least one variable that
is a descendant-or-self of the node.  Building the latter naively per node
is quadratic; this module takes the shared variable-level incidence of the
provenance (:func:`repro.provenance.incidence.provenance_incidence` — the
same builder the sparse delta evaluators use) and aggregates the leaf
incidence lists bottom-up into one flat CSR layout:

* ``row_ids`` — a single ``int64`` array concatenating, node by node, the
  ascending row ids touching each node's subtree;
* ``node_ptr`` — node name → ``(start, end)`` slice into ``row_ids``.

The node layout is built on first use: the kernel only reads ``rows`` and
seeds its counters per distinct factor tuple.  Indexes are immutable and
therefore safely shareable; :func:`incidence_index` memoises them in a
:class:`~repro.provenance.valuation.FingerprintCache` keyed by
``(provenance.fingerprint(), forest signature)`` — the same
fingerprint-cached machinery the batch evaluator uses for compiled
provenance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.abstraction_tree import AbstractionForest
from repro.obs.tracer import trace
from repro.provenance.incidence import provenance_incidence
from repro.provenance.polynomial import ProvenanceSet
from repro.provenance.valuation import FingerprintCache

_EMPTY_ROWS = np.zeros(0, dtype=np.int64)


class MonomialIncidenceIndex:
    """Static incidence structure of a provenance set w.r.t. a forest.

    Attributes
    ----------
    rows:
        The flattened monomials, ``(group_index, factors, coefficient)`` per
        row, in deterministic order.
    variable_rows:
        variable name → ascending ``int64`` row-id array (the shared
        leaf-level incidence of :mod:`repro.provenance.incidence`).
    """

    __slots__ = (
        "rows", "variable_rows", "_incidence", "_forest", "_row_ids", "_node_ptr"
    )

    def __init__(self, provenance: ProvenanceSet, forest: AbstractionForest) -> None:
        incidence = provenance_incidence(provenance)
        self.rows = incidence.rows
        self.variable_rows = incidence.variable_rows
        self._incidence = incidence
        self._forest = forest
        self._row_ids: Optional[np.ndarray] = None
        self._node_ptr: Dict[str, Tuple[int, int]] = {}

    def _node_slice(self, node: str) -> Tuple[int, int]:
        if self._row_ids is None:
            self._build_node_rows()
        return self._node_ptr[node]

    def _build_node_rows(self) -> None:
        # Bottom-up union of leaf incidence lists, laid out as one flat CSR
        # array (node → contiguous slice of ascending row ids).
        chunks: List[np.ndarray] = []
        node_ptr: Dict[str, Tuple[int, int]] = {}
        offset = 0

        def visit(tree, name: str) -> np.ndarray:
            nonlocal offset
            node = tree.node(name)
            if node.is_leaf:
                merged = self._incidence.rows_for(name)
            else:
                child_arrays = [visit(tree, child) for child in node.children]
                merged = (
                    np.unique(np.concatenate(child_arrays))
                    if child_arrays
                    else _EMPTY_ROWS
                )
            chunks.append(merged)
            node_ptr[name] = (offset, offset + len(merged))
            offset += len(merged)
            return merged

        for tree in self._forest.trees():
            visit(tree, tree.root)
        self._node_ptr = node_ptr
        self._row_ids = np.concatenate(chunks) if chunks else _EMPTY_ROWS

    def rows_under(self, node: str) -> np.ndarray:
        """Ascending ids of the rows touching the subtree rooted at ``node``."""
        start, end = self._node_slice(node)
        return self._row_ids[start:end]

    def occurrences(self, node: str) -> int:
        """How many monomial rows the subtree rooted at ``node`` touches."""
        start, end = self._node_slice(node)
        return end - start

    def num_rows(self) -> int:
        """Total number of monomial rows (the provenance size)."""
        return len(self.rows)

    def __repr__(self) -> str:
        return (
            f"MonomialIncidenceIndex(rows={len(self.rows)}, "
            f"nodes={len(self._node_ptr)})"
        )


def forest_signature(forest: AbstractionForest) -> str:
    """A structural signature of a forest (stable across equal structures)."""
    return repr(forest.to_dict())


_INDEX_CACHE = FingerprintCache(capacity=8, metrics="kernel.incidence_cache")


def incidence_index(
    provenance: ProvenanceSet, forest: AbstractionForest
) -> MonomialIncidenceIndex:
    """The (cached) incidence index of ``provenance`` w.r.t. ``forest``."""
    key = (provenance.fingerprint(), forest_signature(forest))

    def build() -> MonomialIncidenceIndex:
        with trace("incidence.index", monomials=provenance.size()):
            return MonomialIncidenceIndex(provenance, forest)

    return _INDEX_CACHE.get_or_build(key, build)


def clear_incidence_cache() -> None:
    """Drop every cached incidence index (they can hold large row arrays).

    The cache is process-global — shared by every kernel construction — so
    this is a module-level release valve for long-running services that
    have moved on to other provenance sets, deliberately *not* tied to any
    one ``Compressor`` instance's ``clear_cache``.
    """
    _INDEX_CACHE.clear()
