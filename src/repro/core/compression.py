"""Applying an abstraction to provenance: the compression step itself.

An :class:`Abstraction` is a variable → meta-variable mapping, usually
induced by one cut per tree of a forest.  Applying it to a polynomial (or a
whole :class:`~repro.provenance.polynomial.ProvenanceSet`) renames variables
and merges monomials that become identical, summing their coefficients —
the mechanism by which provenance shrinks (Example 4 of the paper).

:class:`Compressor` is the service façade over the abstraction-selection
algorithms: it routes a ``(provenance, trees, bound)`` request to the chosen
strategy and, for the incremental kernel, caches the bound-independent
coarsening trajectory by provenance fingerprint so bound sweeps pay for the
search once ("compress once, then sweep").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import AbstractionError
from repro.obs.tracer import trace as obs_trace
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.core.abstraction_tree import AbstractionForest, AbstractionTree, as_forest
from repro.core.cut import Cut


@dataclass(frozen=True)
class Abstraction:
    """A variable → meta-variable mapping, with the cuts that induced it.

    Attributes
    ----------
    mapping:
        The renaming applied to provenance variables.  Variables not in the
        mapping are left untouched.
    cuts:
        The cuts (one per abstraction tree) this abstraction was derived
        from; empty for hand-built abstractions.
    """

    mapping: Mapping[str, str]
    cuts: Tuple[Cut, ...] = ()

    @classmethod
    def identity(cls) -> "Abstraction":
        """The abstraction that changes nothing."""
        return cls({})

    @classmethod
    def from_cut(cls, cut: Cut) -> "Abstraction":
        """The abstraction induced by a single cut."""
        return cls(cut.mapping(), (cut,))

    @classmethod
    def from_cuts(cls, cuts: Sequence[Cut]) -> "Abstraction":
        """The abstraction induced by one cut per tree of a forest."""
        mapping: Dict[str, str] = {}
        for cut in cuts:
            for leaf, meta in cut.mapping().items():
                if leaf in mapping and mapping[leaf] != meta:
                    raise AbstractionError(
                        f"variable {leaf!r} is mapped to both "
                        f"{mapping[leaf]!r} and {meta!r}"
                    )
                mapping[leaf] = meta
        return cls(mapping, tuple(cuts))

    @classmethod
    def from_groups(cls, groups: Mapping[str, Iterable[str]]) -> "Abstraction":
        """A hand-built abstraction: meta-variable name → variables it replaces."""
        mapping: Dict[str, str] = {}
        for meta, variables in groups.items():
            for variable in variables:
                if variable in mapping:
                    raise AbstractionError(
                        f"variable {variable!r} appears in two groups"
                    )
                mapping[variable] = meta
        return cls(mapping)

    # -- (de)serialisation --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable representation (meta-variable → grouped variables).

        The cut objects are not serialised — only the induced grouping, which
        is all an analyst-side tool needs to interpret compressed provenance.
        """
        return {"groups": {meta: list(members)
                           for meta, members in self.grouped_variables().items()}}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Abstraction":
        """Rebuild an abstraction from the dictionary produced by :meth:`to_dict`."""
        groups = data.get("groups")
        if not isinstance(groups, Mapping):
            raise AbstractionError("abstraction dictionary must contain 'groups'")
        return cls.from_groups({str(meta): list(members)
                                for meta, members in groups.items()})

    # -- inspection ------------------------------------------------------------

    def meta_variables(self) -> Tuple[str, ...]:
        """The distinct meta-variable names introduced by this abstraction."""
        return tuple(sorted(set(self.mapping.values())))

    def grouped_variables(self) -> Dict[str, Tuple[str, ...]]:
        """meta-variable → the original variables it replaces (sorted)."""
        groups: Dict[str, List[str]] = {}
        for variable, meta in self.mapping.items():
            groups.setdefault(meta, []).append(variable)
        return {meta: tuple(sorted(vs)) for meta, vs in groups.items()}

    def is_identity(self) -> bool:
        """Whether the abstraction leaves every variable unchanged."""
        return all(variable == meta for variable, meta in self.mapping.items())

    def degrees_of_freedom(self, variables: Iterable[str]) -> int:
        """Number of distinct variable names after abstraction, over ``variables``.

        This is the expressiveness measure of the paper restricted to the
        variables actually appearing in the provenance.
        """
        return len({self.mapping.get(v, v) for v in variables})


@dataclass(frozen=True)
class CompressionResult:
    """The outcome of applying an abstraction to a provenance set.

    Attributes
    ----------
    compressed:
        The abstracted provenance.
    abstraction:
        The abstraction that was applied.
    original_size / compressed_size:
        Total number of monomials before and after.
    original_variables / compressed_variables:
        Number of distinct variables before and after.
    """

    compressed: ProvenanceSet
    abstraction: Abstraction
    original_size: int
    compressed_size: int
    original_variables: int
    compressed_variables: int

    @property
    def size_reduction(self) -> int:
        """How many monomials were removed by the compression."""
        return self.original_size - self.compressed_size

    @property
    def compression_ratio(self) -> float:
        """``compressed_size / original_size`` (1.0 when nothing was gained)."""
        if self.original_size == 0:
            return 1.0
        return self.compressed_size / self.original_size

    @property
    def variable_retention(self) -> float:
        """``compressed_variables / original_variables`` (1.0 = full freedom kept)."""
        if self.original_variables == 0:
            return 1.0
        return self.compressed_variables / self.original_variables

    def summary(self) -> Dict[str, float]:
        """A flat dictionary of the headline numbers (for reports/benchmarks)."""
        return {
            "original_size": self.original_size,
            "compressed_size": self.compressed_size,
            "size_reduction": self.size_reduction,
            "compression_ratio": self.compression_ratio,
            "original_variables": self.original_variables,
            "compressed_variables": self.compressed_variables,
            "variable_retention": self.variable_retention,
        }


ProvenanceLike = Union[Polynomial, ProvenanceSet, Sequence[Polynomial]]


def _as_provenance_set(provenance: ProvenanceLike) -> ProvenanceSet:
    if isinstance(provenance, ProvenanceSet):
        return provenance
    if isinstance(provenance, Polynomial):
        result = ProvenanceSet()
        result[(0,)] = provenance
        return result
    result = ProvenanceSet()
    for index, polynomial in enumerate(provenance):
        if not isinstance(polynomial, Polynomial):
            raise AbstractionError(
                f"expected Polynomial items, got {type(polynomial).__name__}"
            )
        result[(index,)] = polynomial
    return result


def apply_abstraction(
    provenance: ProvenanceLike,
    abstraction: "Abstraction | Cut | Mapping[str, str]",
) -> CompressionResult:
    """Apply ``abstraction`` to ``provenance`` and return a :class:`CompressionResult`.

    ``provenance`` may be a single polynomial, a sequence of polynomials or a
    keyed :class:`ProvenanceSet`; ``abstraction`` may be an
    :class:`Abstraction`, a :class:`~repro.core.cut.Cut` or a bare renaming
    mapping.
    """
    if isinstance(abstraction, Cut):
        abstraction = Abstraction.from_cut(abstraction)
    elif isinstance(abstraction, Mapping) and not isinstance(abstraction, Abstraction):
        abstraction = Abstraction(dict(abstraction))

    provenance_set = _as_provenance_set(provenance)
    original_size = provenance_set.size()
    with obs_trace("core.apply_abstraction", rows=original_size) as span:
        compressed, distinct = provenance_set._rename(dict(abstraction.mapping))
        span.set("distinct_monomials", distinct)
    return CompressionResult(
        compressed=compressed,
        abstraction=abstraction,
        original_size=original_size,
        compressed_size=compressed.size(),
        original_variables=provenance_set.num_variables(),
        compressed_variables=compressed.num_variables(),
    )


class Compressor:
    """Strategy-routing compression service with a trajectory cache.

    ``strategy`` values:

    * ``"incremental"`` (default) — the :mod:`repro.core.kernel` greedy: the
      bound-independent coarsening trajectory is computed once per distinct
      ``(provenance, forest)`` pair (keyed by content fingerprint + forest
      structure), lazily extended, and every bound is answered from its
      prefix.  Identical cuts to the legacy greedy, at a fraction of the
      cost — and a *sweep* of bounds costs barely more than one.  Inputs
      the kernel cannot model (an inner-node name colliding with a
      provenance variable) fall back to the legacy greedy transparently.
    * ``"legacy"`` — the original full-rescan greedy.
    * ``"auto"`` / ``"dp"`` / ``"exact"`` / ``"greedy"`` — delegated to
      :func:`repro.core.multi_tree.optimize_forest` unchanged.

    The cache makes a single ``Compressor`` shareable between a
    :class:`~repro.engine.session.CobraSession` and the batch service.
    """

    _FOREST_STRATEGIES = ("auto", "dp", "exact", "greedy")

    def __init__(self, cache_size: int = 8) -> None:
        from repro.provenance.valuation import FingerprintCache

        self._trajectories = FingerprintCache(
            cache_size, metrics="compress.trajectory_cache"
        )

    def compress(
        self,
        provenance: ProvenanceLike,
        trees: "AbstractionTree | AbstractionForest",
        bound: int,
        strategy: str = "incremental",
        allow_infeasible: bool = False,
        keep_trace: bool = False,
    ) -> "OptimizationResult":
        """Select and apply the best abstraction of ``trees`` under ``bound``."""
        if bound < 0:
            raise ValueError("bound must be non-negative")
        with obs_trace("compress.run", strategy=strategy, bound=bound):
            return self._compress(
                provenance, trees, bound, strategy, allow_infeasible, keep_trace
            )

    def _compress(
        self,
        provenance: ProvenanceLike,
        trees: "AbstractionTree | AbstractionForest",
        bound: int,
        strategy: str,
        allow_infeasible: bool,
        keep_trace: bool,
    ) -> "OptimizationResult":
        if strategy == "legacy":
            from repro.core.greedy import optimize_greedy

            return optimize_greedy(
                provenance,
                trees,
                bound,
                allow_infeasible=allow_infeasible,
                keep_trace=keep_trace,
                strategy="legacy",
            )
        if strategy in self._FOREST_STRATEGIES:
            from repro.core.multi_tree import optimize_forest

            return optimize_forest(
                provenance,
                trees,
                bound,
                method=strategy,
                allow_infeasible=allow_infeasible,
                keep_trace=keep_trace,
            )
        if strategy != "incremental":
            raise ValueError(
                f"unknown strategy {strategy!r}; expected 'incremental', "
                f"'legacy' or one of {self._FOREST_STRATEGIES}"
            )

        provenance_set = _as_provenance_set(provenance)
        forest = as_forest(trees)

        from repro.core.kernel.greedy import kernel_supports

        if not kernel_supports(provenance_set, forest):
            # Inner-node name collides with a provenance variable: the
            # kernel cannot model the resulting merges, so the service
            # falls back to the (identical-output) legacy greedy rather
            # than failing the request.
            from repro.core.greedy import optimize_greedy

            return optimize_greedy(
                provenance_set,
                forest,
                bound,
                allow_infeasible=allow_infeasible,
                keep_trace=keep_trace,
                strategy="legacy",
            )
        trajectory = self._trajectory(provenance_set, forest)
        prefix, feasible = trajectory.resolve(bound, allow_infeasible)
        cuts = trajectory.cuts_after(prefix)
        abstraction = Abstraction.from_cuts(cuts)
        compression = apply_abstraction(provenance_set, abstraction)
        trace = {"steps": trajectory.trace_steps(prefix)} if keep_trace else None

        from repro.core.optimizer import OptimizationResult

        return OptimizationResult(
            cut=cuts[0] if len(cuts) == 1 else None,
            cuts=cuts,
            compression=compression,
            bound=bound,
            feasible=feasible,
            predicted_size=trajectory.size_after(prefix),
            algorithm="greedy",
            trace=trace,
            strategy="incremental",
        )

    def sweep(
        self,
        provenance: ProvenanceLike,
        trees: "AbstractionTree | AbstractionForest",
        bounds: Iterable[int],
        strategy: str = "incremental",
        allow_infeasible: bool = False,
    ) -> Dict[int, "OptimizationResult"]:
        """Compress under every bound in ``bounds`` (one trajectory, N prefixes)."""
        return {
            int(bound): self.compress(
                provenance,
                trees,
                int(bound),
                strategy=strategy,
                allow_infeasible=allow_infeasible,
            )
            for bound in bounds
        }

    def _trajectory(self, provenance_set: ProvenanceSet, forest: AbstractionForest):
        from repro.core.kernel.index import forest_signature
        from repro.core.kernel.trajectory import GreedyTrajectory

        # Cut equality requires tree *identity*, so the key pins the exact
        # tree objects alongside the structural fingerprints.
        key = (
            provenance_set.fingerprint(),
            forest_signature(forest),
            tuple(id(tree) for tree in forest.trees()),
        )
        def build():
            with obs_trace(
                "compress.trajectory", monomials=provenance_set.size()
            ):
                return GreedyTrajectory(provenance_set, forest)

        return self._trajectories.get_or_build(key, build)

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the trajectory cache."""
        return self._trajectories.info()

    def clear_cache(self) -> None:
        """Drop this instance's cached trajectories (counters are kept).

        The kernel's incidence-index cache is process-global (shared by all
        compressors and the greedy's ``"auto"`` path); release it explicitly
        via :func:`repro.core.kernel.index.clear_incidence_cache`.
        """
        self._trajectories.clear()
