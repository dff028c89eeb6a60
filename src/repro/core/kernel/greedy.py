"""The incremental greedy kernel: delta-updated merge-gain counters.

The legacy greedy (:func:`repro.core.greedy.optimize_greedy`) evaluates a
candidate coarsening at inner node ``v`` by renaming, for *every* monomial,
all current cut nodes below ``v`` to ``v`` and counting how many distinct
keys remain (``_renamed_size``).  This kernel maintains, per candidate, a
counter over those renamed keys ("signatures") so the gain

    ``gain(v) = touched(v) − |distinct signatures under v|``

is always available in O(1), and is *delta-updated* when a coarsening is
applied: only the monomials containing a renamed variable are removed,
merged and re-inserted, each touching only the counters of the inner-node
ancestors of its variables — O(affected monomials × depth) per step instead
of O(candidates × |provenance|).  Rows carry interned factor-tuple ids: the
candidates a tuple touches and its renaming under each candidate are worked
out once per *distinct* tuple, so a row only moves int-keyed counts.

Candidate selection pops from a lazy max-heap ordered by the exact key the
legacy greedy maximises — ``(ratio, -lost, depth)`` with ties broken towards
the earliest candidate in (tree order, preorder) — so the kernel emits the
**identical cut sequence** at every step, including the legacy quirks it
deliberately mirrors:

* ``ratio`` is the same float division ``saved / max(lost, 1)``;
* ``saved`` is measured against the legacy's *predicted* running size, which
  ignores coefficient cancellation, while the maintained monomial rows mirror
  the *actual* renamed provenance (cancelled rows dropped at the same
  ``_ZERO_EPSILON`` threshold ``Polynomial`` uses) — the two can drift apart
  for one step when coefficients cancel, and the kernel tracks both;
* ``lost`` counts *all* replaced cut nodes, including tree leaves that never
  occur in the provenance.

Precondition: no inner-node name of the forest may already occur as a
provenance variable (otherwise a renamed monomial could silently merge with
a pre-existing one, which the per-candidate counters do not model).  The
kernel raises :class:`~repro.exceptions.UnsupportedPolynomialError` in that
case; ``optimize_greedy(strategy="auto")`` falls back to the legacy scan.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.exceptions import UnsupportedPolynomialError
from repro.obs.metrics import get_registry
from repro.obs.tracer import trace
from repro.provenance.polynomial import _ZERO_EPSILON, ProvenanceSet
from repro.core.abstraction_tree import (
    AbstractionForest,
    AbstractionTree,
    as_forest,
)
from repro.core.cut import Cut
from repro.core.kernel.index import MonomialIncidenceIndex, incidence_index

Factors = Tuple[Tuple[str, int], ...]


class _Candidate:
    """Mutable per-candidate state: gain counters and selection metadata."""

    __slots__ = (
        "name",
        "tree_index",
        "tree_root",
        "order",
        "depth",
        "active",
        "r_size",
        "touched",
        "sig_counts",
        "stamp",
        "descendants",
        "inner_descendants",
        "renamed",
    )

    def __init__(
        self,
        name: str,
        tree_index: int,
        tree_root: str,
        order: int,
        depth: int,
        r_size: int,
        descendants: FrozenSet[str],
        inner_descendants: Tuple[str, ...],
    ) -> None:
        self.name = name
        self.tree_index = tree_index
        self.tree_root = tree_root
        self.order = order
        self.depth = depth
        self.active = True
        self.r_size = r_size          # |replaced cut nodes| (all, occurring or not)
        self.touched = 0              # live rows containing a variable below name
        # packed (group, renamed factor id) -> live rows taking that key here
        self.sig_counts: Counter = Counter()
        self.stamp = 0                # bumped on every change; stale heap entries skip
        self.descendants = descendants
        self.inner_descendants = inner_descendants
        self.renamed: Dict[int, int] = {}  # factor id -> renamed factor id

    def gain(self) -> int:
        """Monomials saved by coarsening here (ignoring size-prediction drift)."""
        return self.touched - len(self.sig_counts)


def kernel_supports(
    provenance: ProvenanceSet, forest: AbstractionForest
) -> bool:
    """Whether the incremental kernel's precondition holds for this input."""
    inner: Set[str] = set()
    for tree in forest.trees():
        inner.update(tree.inner_nodes())
    return not (inner & set(provenance.variables()))


class IncrementalGreedyKernel:
    """Incremental state of a greedy coarsening run over one provenance set.

    The kernel is driven step by step — :meth:`best` peeks the top candidate,
    :meth:`apply` commits a coarsening — or in one go via :meth:`run`.
    :meth:`gain_table` exposes the delta-maintained ``(saved, lost, ratio)``
    of every active candidate, which the property tests compare against a
    naive full recompute after every step.
    """

    def __init__(
        self,
        provenance: ProvenanceSet,
        trees: Union[AbstractionTree, AbstractionForest],
        index: Optional[MonomialIncidenceIndex] = None,
    ) -> None:
        forest = as_forest(trees)
        if not kernel_supports(provenance, forest):
            raise UnsupportedPolynomialError(
                "an inner node of the abstraction forest already occurs as a "
                "provenance variable; the incremental kernel cannot model the "
                "resulting monomial merges (use the legacy greedy)"
            )
        self._forest = forest
        self._trees = forest.trees()
        if index is None:
            index = incidence_index(provenance, forest)
        self._index = index

        # Node metadata shared by signature computation and row updates.
        self._ancestors: Dict[str, Tuple[str, ...]] = {}
        self._candidates: Dict[str, _Candidate] = {}
        order = 0
        for tree_index, tree in enumerate(self._trees):
            subtree_nodes: Dict[str, Set[str]] = {}
            for name in reversed(tree.nodes()):  # children before parents
                node = tree.node(name)
                members: Set[str] = set()
                for child in node.children:
                    members.add(child)
                    members |= subtree_nodes[child]
                subtree_nodes[name] = members
            for name in tree.nodes():
                self._ancestors[name] = tree.ancestors(name)
            for name in tree.inner_nodes():
                self._candidates[name] = _Candidate(
                    name=name,
                    tree_index=tree_index,
                    tree_root=tree.root,
                    order=order,
                    depth=tree.depth(name),
                    r_size=len(tree.leaves_under(name)),
                    descendants=frozenset(subtree_nodes[name]),
                    inner_descendants=tuple(
                        n for n in subtree_nodes[name] if not tree.is_leaf(n)
                    ),
                )
                order += 1

        # Factor tuples are interned to ids, and everything symbolic — the
        # candidates a monomial touches, its renaming under a candidate — is
        # worked out once per distinct id; rows only carry ids.
        self._factor_ids: Dict[Factors, int] = {}
        self._factors: List[Factors] = []
        self._factor_candidates: Dict[int, Tuple[_Candidate, ...]] = {}
        self._var_factors: Dict[str, Set[int]] = {}  # variable -> factor ids

        # Mutable row store, seeded from the index. Freed slots are never
        # reused; merged rows get fresh ids, preserving deterministic order.
        self._row_poly: List[int] = [row[0] for row in index.rows]
        self._row_factor: List[int] = [self._intern(row[1]) for row in index.rows]
        self._row_coeff: List[float] = [row[2] for row in index.rows]
        self._factor_rows: Dict[int, Set[int]] = {}  # factor id -> live rows
        self._num_groups = 1 + max(self._row_poly, default=0)
        for rid, fid in enumerate(self._row_factor):
            self._factor_rows.setdefault(fid, set()).add(rid)

        # One cut-node set per tree (all members, occurring or not).
        self._cut_nodes: List[Set[str]] = [
            set(tree.leaves()) for tree in self._trees
        ]

        # Sizes: ``live_size`` mirrors the actual renamed provenance
        # (cancellation applied); ``current_size`` mirrors the legacy
        # greedy's predicted running size.
        self.live_size = len(index.rows)
        self.current_size = len(index.rows)
        self._prev_drift = 0
        self._steps: List[Dict[str, object]] = []
        # Plain-int instrumentation counters (flushed to the metrics
        # registry per run(); attribute adds keep the inner loops hot).
        self.heap_pops = 0
        self.gain_updates = 0

        # Initial gain counters: every live row counted under each
        # candidate its factors touch.
        with trace(
            "kernel.init",
            rows=len(index.rows),
            distinct_monomials=len(self._factor_rows),
        ):
            for fid, rows in self._factor_rows.items():
                self._count_rows(fid, rows, set())

        self._heap: List[Tuple] = []
        self._refresh(self._candidates.keys())

    # -- signatures and heap ----------------------------------------------

    @staticmethod
    def _renamed_factors(
        factors: Factors, below: FrozenSet[str], target: str
    ) -> Factors:
        """``factors`` with every variable in ``below`` merged into ``target``.

        The single canonical-renaming primitive: signatures predict it,
        :meth:`apply` commits it — both must agree monomial-for-monomial.
        """
        merged_exponent = 0
        rest: List[Tuple[str, int]] = []
        for name, exponent in factors:
            if name in below:
                merged_exponent += exponent
            else:
                rest.append((name, exponent))
        if merged_exponent:
            rest.append((target, merged_exponent))
            rest.sort()
        return tuple(rest)

    def _intern(self, factors: Factors) -> int:
        """The id of ``factors`` (a fresh one if they are new)."""
        fid = self._factor_ids.get(factors)
        if fid is None:
            fid = self._factor_ids[factors] = len(self._factors)
            self._factors.append(factors)
        return fid

    def _live_candidates(self, fid: int) -> Tuple[_Candidate, ...]:
        """The candidates whose subtree holds a variable of factor ``fid``.

        Worked out when the factor first gets a live row, which is also
        when its variables start pointing at it (renamed factors that only
        ever serve as signatures never do).
        """
        candidates = self._factor_candidates.get(fid)
        if candidates is None:
            names: Set[str] = set()
            for name, _exponent in self._factors[fid]:
                self._var_factors.setdefault(name, set()).add(fid)
                names.update(self._ancestors.get(name, ()))
            candidates = self._factor_candidates[fid] = tuple(
                self._candidates[name] for name in names
            )
        return candidates

    def _renamed_id(self, candidate: _Candidate, fid: int) -> int:
        """The id of factor ``fid`` renamed as coarsening ``candidate`` would."""
        renamed = candidate.renamed.get(fid)
        if renamed is None:
            renamed = candidate.renamed[fid] = self._intern(
                self._renamed_factors(
                    self._factors[fid], candidate.descendants, candidate.name
                )
            )
        return renamed

    def _refresh(self, names) -> None:
        """Re-push heap entries for candidates whose selection key changed."""
        drift = self.current_size - self.live_size
        for name in names:
            candidate = self._candidates[name]
            if not candidate.active:
                continue
            self.gain_updates += 1
            candidate.stamp += 1
            saved = candidate.gain() + drift
            lost = candidate.r_size - 1
            ratio = saved / max(lost, 1)  # the legacy's exact float key
            heapq.heappush(
                self._heap,
                (
                    -ratio,
                    lost,
                    -candidate.depth,
                    candidate.order,
                    name,
                    candidate.stamp,
                ),
            )

    def best(self) -> Optional[str]:
        """The candidate the legacy greedy would pick now (``None`` if done)."""
        heap = self._heap
        while heap:
            _, _, _, _, name, stamp = heap[0]
            candidate = self._candidates[name]
            if not candidate.active or stamp != candidate.stamp:
                heapq.heappop(heap)  # stale lazy-heap entry
                self.heap_pops += 1
                continue
            return name
        return None

    # -- row bookkeeping ----------------------------------------------------

    def _count_rows(self, fid: int, rows: Iterable[int], dirty: Set[str]) -> None:
        """Count live ``rows`` of factor ``fid`` under every active candidate.

        A row's signature under a candidate is the key it takes if that
        candidate is coarsened now: ``(group, renamed id)``, packed into the
        int ``renamed id * groups + group``.
        """
        groups = [self._row_poly[rid] for rid in rows]
        for candidate in self._live_candidates(fid):
            if not candidate.active:
                continue
            base = self._renamed_id(candidate, fid) * self._num_groups
            candidate.sig_counts.update(map(base.__add__, groups))
            candidate.touched += len(groups)
            dirty.add(candidate.name)

    def _uncount_rows(
        self, fid: int, rows: Iterable[int], dirty: Set[str]
    ) -> None:
        """Take live ``rows`` of factor ``fid`` out of every active candidate."""
        groups = [self._row_poly[rid] for rid in rows]
        for candidate in self._factor_candidates[fid]:
            if not candidate.active:
                continue
            base = self._renamed_id(candidate, fid) * self._num_groups
            counts = candidate.sig_counts
            for key in map(base.__add__, groups):
                remaining = counts[key] - 1
                if remaining:
                    counts[key] = remaining
                else:
                    counts.pop(key)  # dict.pop; Counter's ``del`` runs in Python
            candidate.touched -= len(groups)
            dirty.add(candidate.name)

    # -- the coarsening step --------------------------------------------------

    def apply(self, name: str) -> Dict[str, object]:
        """Coarsen at inner node ``name``, delta-updating all gain counters."""
        candidate = self._candidates.get(name)
        if candidate is None or not candidate.active:
            raise ValueError(f"{name!r} is not an active coarsening candidate")
        below = candidate.descendants

        # name joins the cut; inner nodes strictly below lose their replaced
        # set — neither is ever a candidate again, so their counters are
        # dropped rather than updated.
        retired = [
            self._candidates[node]
            for node in (name, *candidate.inner_descendants)
            if self._candidates[node].active
        ]
        for state in retired:
            state.active = False

        # Affected rows: the live rows of every factor tuple containing a
        # variable below name, taken out of the counters one tuple at a time.
        fids: Set[int] = set()
        for var in below & self._var_factors.keys():
            fids |= self._var_factors[var]
        size_before = self.current_size
        live_before = self.live_size
        dirty: Set[str] = set()
        affected: List[int] = []
        renamed: Dict[int, int] = {}
        for fid in fids:
            rows = self._factor_rows.pop(fid, None)
            if rows:
                self._uncount_rows(fid, rows, dirty)
                affected.extend(rows)
                renamed[fid] = self._renamed_id(candidate, fid)
        self.live_size -= len(affected)

        # Group the affected rows by their renamed key, summing coefficients
        # in row order exactly as ``ProvenanceSet.rename`` would.
        row_poly, row_factor, row_coeff = (
            self._row_poly, self._row_factor, self._row_coeff
        )
        merged: Dict[Tuple[int, int], float] = {}
        for rid in sorted(affected):
            key = (row_poly[rid], renamed[row_factor[rid]])
            merged[key] = merged.get(key, 0.0) + row_coeff[rid]

        # The legacy's predicted size ignores coefficient cancellation...
        new_size = live_before - (len(affected) - len(merged))
        # ...while the maintained rows mirror the real rename (cancelled
        # rows dropped at the Polynomial normalisation threshold).
        added: Dict[int, List[int]] = {}
        for (poly, fid), coefficient in merged.items():
            if abs(coefficient) <= _ZERO_EPSILON:
                continue
            rid = len(self._row_factor)
            self._row_poly.append(poly)
            self._row_factor.append(fid)
            self._row_coeff.append(coefficient)
            added.setdefault(fid, []).append(rid)
        for fid, rows in added.items():
            self._factor_rows.setdefault(fid, set()).update(rows)
            self._count_rows(fid, rows, dirty)
            self.live_size += len(rows)

        # Cut bookkeeping: replace everything below name by name.
        cut = self._cut_nodes[candidate.tree_index]
        replaced_all = {node for node in cut if node in below}
        cut -= replaced_all
        cut.add(name)

        for state in retired:
            state.sig_counts = Counter()
            state.renamed = {}
        # Ancestors now replace one node (name) where they used to replace
        # all of name's members.
        shrink = candidate.r_size - 1
        for ancestor in self._ancestors[name]:
            above = self._candidates[ancestor]
            above.r_size -= shrink
            dirty.add(ancestor)

        self.current_size = new_size
        drift = self.current_size - self.live_size
        if drift != self._prev_drift:
            # A cancellation happened (or resolved): the uniform ``saved``
            # offset changed, so every active candidate's ratio is stale.
            self._prev_drift = drift
            dirty.update(
                cname
                for cname, state in self._candidates.items()
                if state.active
            )
        self._refresh(dirty)

        step = {
            "coarsened_at": name,
            "tree": candidate.tree_root,
            "tree_index": candidate.tree_index,
            "replaced": frozenset(replaced_all),
            "size_before": size_before,
            "size_after": new_size,
        }
        self._steps.append(step)
        return step

    def run(self, bound: int) -> bool:
        """Coarsen greedily until ``current_size <= bound`` (or no candidates).

        Returns whether the bound was met.  Each run is one traced
        ``kernel.run`` span; heap pops, gain updates and steps performed are
        flushed to the metrics registry (``kernel.*`` counters).
        """
        pops_before = self.heap_pops
        updates_before = self.gain_updates
        steps_before = len(self._steps)
        with trace(
            "kernel.run", bound=bound, size_before=self.current_size
        ) as span:
            while self.current_size > bound:
                name = self.best()
                if name is None:
                    break
                self.apply(name)
            met = self.current_size <= bound
            span.update(
                {
                    "size_after": self.current_size,
                    "steps": len(self._steps) - steps_before,
                    "met": met,
                }
            )
        registry = get_registry()
        registry.inc("kernel.steps", len(self._steps) - steps_before)
        registry.inc("kernel.heap_pops", self.heap_pops - pops_before)
        registry.inc("kernel.gain_updates", self.gain_updates - updates_before)
        return met

    # -- inspection -----------------------------------------------------------

    @property
    def steps(self) -> List[Dict[str, object]]:
        """The coarsening steps applied so far (richer than the legacy trace)."""
        return list(self._steps)

    def cuts(self) -> Tuple[Cut, ...]:
        """The current cut of every tree (trusted: valid by construction)."""
        return tuple(
            Cut.trusted(tree, frozenset(nodes))
            for tree, nodes in zip(self._trees, self._cut_nodes)
        )

    def gain_table(self) -> Dict[str, Dict[str, float]]:
        """``candidate → {saved, lost, ratio}`` for every active candidate.

        ``saved`` is exactly the legacy's ``current_size − _renamed_size``
        (including prediction drift after coefficient cancellations).
        """
        drift = self.current_size - self.live_size
        table: Dict[str, Dict[str, float]] = {}
        for name, candidate in self._candidates.items():
            if not candidate.active:
                continue
            saved = candidate.gain() + drift
            lost = candidate.r_size - 1
            table[name] = {
                "saved": saved,
                "lost": lost,
                "ratio": saved / max(lost, 1),
            }
        return table

    def __repr__(self) -> str:
        active = sum(1 for c in self._candidates.values() if c.active)
        return (
            f"IncrementalGreedyKernel(size={self.current_size}, "
            f"steps={len(self._steps)}, active_candidates={active})"
        )
