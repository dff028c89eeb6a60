"""The COBRA session: the back-end workflow of Figure 4.

A :class:`CobraSession` walks through exactly the steps the demo walks its
audience through:

1. load provenance polynomials (from any provenance engine) together with
   the analyst's valuation of the provenance variables;
2. set an abstraction tree (or forest) and a bound on the provenance size;
3. :meth:`compress` — compute the optimal abstraction under the bound;
4. inspect the meta-variables and their default values
   (:meth:`meta_variable_panel`, Figure 5);
5. :meth:`assign` values to the meta-variables (or accept the defaults) and
   receive an :class:`~repro.engine.report.AssignmentReport` comparing the
   results from the compressed provenance with those from the full
   provenance, together with the provenance sizes and the assignment
   speedup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import SerializationError, SessionStateError
from repro.provenance.backends import BackendLike, resolve_backend
from repro.provenance.polynomial import ProvenanceSet
from repro.provenance.valuation import (
    CompiledProvenanceSet,
    Valuation,
)
from repro.core.abstraction_tree import AbstractionForest, AbstractionTree
from repro.core.compression import Abstraction, Compressor
from repro.core.defaults import default_meta_valuation
from repro.core.multi_tree import optimize_forest
from repro.core.optimizer import OptimizationResult
from repro.engine.report import AssignmentReport, GroupComparison, MetaVariableInfo
from repro.engine.scenario import Scenario
from repro.obs.tracer import trace as obs_trace
from repro.utils.timing import measure_speedup

if TYPE_CHECKING:  # pragma: no cover — import cycle: repro.batch imports engine
    from repro.batch.evaluator import BatchEvaluator
    from repro.batch.report import BatchReport
    from repro.engine.plan import ScenarioPlan

TreeOrForest = Union[AbstractionTree, AbstractionForest]


class CobraSession:
    """One analyst's interaction with COBRA over a fixed provenance input.

    Parameters
    ----------
    provenance:
        The full provenance polynomials, keyed by result group.
    base_valuation:
        The analyst's valuation of the provenance variables.  The identity
        valuation (the default) reproduces the original query results.
    semiring:
        The evaluation backend — a name (``"real"``, ``"tropical"``,
        ``"bool"``, ``"why"``, ``"lineage"``), a semiring instance, or a
        :class:`~repro.provenance.backends.SemiringBackend`.  The default is
        the real (float) pipeline; any other backend types the valuations by
        its carrier and evaluates results in that semiring.
    """

    def __init__(
        self,
        provenance: ProvenanceSet,
        base_valuation: Optional[Mapping[str, float]] = None,
        semiring: BackendLike = None,
    ) -> None:
        if not isinstance(provenance, ProvenanceSet):
            raise SessionStateError(
                "CobraSession expects a ProvenanceSet; use "
                "repro.db.to_provenance_set or the workload generators"
            )
        self._provenance = provenance
        self._backend = resolve_backend(semiring)
        if base_valuation is None:
            self._base_valuation = Valuation.identity_for(
                provenance, semiring=self._backend
            )
        else:
            self._base_valuation = Valuation(
                dict(base_valuation), semiring=self._backend
            )
        missing = self._base_valuation.missing(provenance.variables())
        if missing:
            # Unassigned variables default to their backend identity (1.0 on
            # the float pipeline — no change), mirroring the demo's behaviour
            # of starting from the original query result.
            self._base_valuation = self._base_valuation.updated(
                {name: self._backend.default_value(name) for name in missing}
            )

        self._trees: Optional[AbstractionForest] = None
        self._bound: Optional[int] = None
        self._optimization: Optional[OptimizationResult] = None
        self._compiled_full: Optional[CompiledProvenanceSet] = None
        self._compiled_compressed: Optional[CompiledProvenanceSet] = None
        self._batch_evaluator = None  # lazy repro.batch.BatchEvaluator
        self._compressor: Optional[Compressor] = None  # lazy, trajectory-cached

    # -- step 1: the input ----------------------------------------------------

    @property
    def provenance(self) -> ProvenanceSet:
        """The full (uncompressed) provenance."""
        return self._provenance

    @property
    def base_valuation(self) -> Valuation:
        """The analyst's valuation of the original provenance variables."""
        return self._base_valuation

    @property
    def backend(self):
        """The session's semiring backend (the real backend by default)."""
        return self._backend

    def initial_results(self) -> Dict[Tuple, float]:
        """The query results under the base valuation (the demo's first screen)."""
        if self._backend.name == "real":
            return self._provenance.evaluate(self._base_valuation)
        if self._compiled_full is None:
            self._compiled_full = self._backend.compile(self._provenance)
        return self._compiled_full.evaluate(self._base_valuation)

    # -- step 2: tree and bound ---------------------------------------------------

    def set_abstraction_trees(self, trees: TreeOrForest) -> None:
        """Set the abstraction tree or forest guiding the compression."""
        if isinstance(trees, AbstractionTree):
            trees = AbstractionForest([trees])
        self._trees = trees
        self._optimization = None
        self._compiled_compressed = None

    def set_bound(self, bound: int) -> None:
        """Set the bound on the number of monomials of the compressed provenance."""
        if bound < 0:
            raise SessionStateError("the bound must be non-negative")
        self._bound = int(bound)
        self._optimization = None
        self._compiled_compressed = None

    @property
    def bound(self) -> Optional[int]:
        """The current bound (``None`` until :meth:`set_bound` is called)."""
        return self._bound

    # -- step 3: compression ------------------------------------------------------

    def compressor(self) -> Compressor:
        """The session's trajectory-cached compression service (lazy)."""
        if self._compressor is None:
            self._compressor = Compressor()
        return self._compressor

    def compress(
        self,
        method: str = "auto",
        allow_infeasible: bool = False,
        keep_trace: bool = False,
    ) -> OptimizationResult:
        """Compute the optimal abstraction for the configured trees and bound.

        ``method="incremental"`` routes through the session's
        :class:`~repro.core.compression.Compressor`, so repeated
        ``set_bound`` → ``compress`` rounds reuse one cached coarsening
        trajectory instead of re-running the greedy search per bound;
        ``method="legacy"`` forces the original full-rescan greedy.
        """
        if self._trees is None:
            raise SessionStateError("call set_abstraction_trees() before compress()")
        if self._bound is None:
            raise SessionStateError("call set_bound() before compress()")
        with obs_trace("session.compress", method=method, bound=self._bound):
            if method in ("incremental", "legacy"):
                self._optimization = self.compressor().compress(
                    self._provenance,
                    self._trees,
                    self._bound,
                    strategy=method,
                    allow_infeasible=allow_infeasible,
                    keep_trace=keep_trace,
                )
            else:
                self._optimization = optimize_forest(
                    self._provenance,
                    self._trees,
                    self._bound,
                    method=method,
                    allow_infeasible=allow_infeasible,
                    keep_trace=keep_trace,
                )
        self._compiled_compressed = None
        return self._optimization

    def compress_sweep(
        self,
        bounds: Sequence[int],
        strategy: str = "incremental",
        allow_infeasible: bool = False,
    ) -> Dict[int, OptimizationResult]:
        """Compress under every bound in ``bounds`` (compress once, sweep many).

        The incremental kernel's coarsening order does not depend on the
        bound, so the whole sweep shares one cached trajectory: the cost is
        one greedy run down to the tightest bound, plus cheap prefix
        reconstructions.  The session's own ``optimization`` state is left
        untouched — use :meth:`compress` to commit to a single bound.
        """
        if self._trees is None:
            raise SessionStateError(
                "call set_abstraction_trees() before compress_sweep()"
            )
        return self.compressor().sweep(
            self._provenance,
            self._trees,
            bounds,
            strategy=strategy,
            allow_infeasible=allow_infeasible,
        )

    @property
    def optimization(self) -> OptimizationResult:
        """The result of the last :meth:`compress` call."""
        if self._optimization is None:
            raise SessionStateError("no abstraction computed yet; call compress()")
        return self._optimization

    @property
    def abstraction(self) -> Abstraction:
        """The abstraction chosen by the last :meth:`compress` call."""
        return self.optimization.abstraction

    @property
    def compressed_provenance(self) -> ProvenanceSet:
        """The compressed provenance of the last :meth:`compress` call."""
        return self.optimization.compressed

    # -- step 4: the meta-variable panel -------------------------------------------

    def default_valuation(self, reducer: str = "mean") -> Valuation:
        """The default valuation of the compressed provenance's variables.

        Tree leaves that never occur in the provenance are excluded from the
        averages (``on_missing="skip"``), so a meta-variable's default is the
        average of the values its *occurring* members take under the base
        valuation — exactly the number the demo's assignment screen shows.
        """
        return default_meta_valuation(
            self.abstraction,
            self._base_valuation,
            reducer=reducer,
            provenance=self._provenance,
            on_missing="skip",
            semiring=self._backend,
        )

    def meta_variable_panel(self, reducer: str = "mean") -> Tuple[MetaVariableInfo, ...]:
        """The rows of the meta-variable assignment screen (Figure 5)."""
        abstraction = self.abstraction
        defaults = self.default_valuation(reducer=reducer)
        is_real = self._backend.name == "real"
        rows = []
        for meta, members in sorted(abstraction.grouped_variables().items()):
            member_values = tuple(
                float(self._base_valuation.get(member, 1.0))
                if is_real
                else self._base_valuation.get(
                    member, self._backend.default_value(member)
                )
                for member in members
            )
            rows.append(
                MetaVariableInfo(
                    name=meta,
                    members=members,
                    member_values=member_values,
                    default_value=float(defaults[meta]) if is_real else defaults[meta],
                )
            )
        return tuple(rows)

    # -- step 5: assignment and comparison -------------------------------------------

    def _compiled(self) -> Tuple[CompiledProvenanceSet, CompiledProvenanceSet]:
        # The backend decides the compiled form: the numpy compiled set of
        # the numeric semirings or the generic fallback — both sharing the
        # same surface.
        if self._compiled_full is None:
            with obs_trace("session.compile", which="full"):
                self._compiled_full = self._backend.compile(self._provenance)
        if self._compiled_compressed is None:
            with obs_trace("session.compile", which="compressed"):
                self._compiled_compressed = self._backend.compile(
                    self.compressed_provenance
                )
        return self._compiled_full, self._compiled_compressed

    # -- compiled stores -------------------------------------------------------

    def compile_to_store(self, path):
        """Compile the full provenance and persist it as a mmap-able store.

        The paper's workflow split in one call: the strong machine compiles
        once and writes ``path``; any number of consumers then
        :meth:`open_from_store` it with O(header) cold-start cost.  Returns
        the compiled set (also kept as the session's compiled-full state).
        """
        if self._compiled_full is None:
            with obs_trace("session.compile", which="full"):
                self._compiled_full = self._backend.compile(self._provenance)
        compiled = self._compiled_full
        to_store = getattr(compiled, "to_store", None)
        if to_store is None:
            raise SessionStateError(
                f"the {self._backend.name!r} backend's compiled form has no "
                "mmap store format (only real/tropical/bool do)"
            )
        to_store(path)
        return compiled

    def open_from_store(self, path, recover: bool = True):
        """Adopt the compiled store at ``path`` as this session's compiled form.

        The store must match the session: same backend, and a fingerprint
        equal to this session's provenance (a store compiled from different
        provenance would silently answer the wrong what-ifs).  On success the
        mapped compiled set replaces the session's compiled-full state and is
        seeded into the batch evaluator's compile cache, so
        :meth:`evaluate_many` — including ``processes=N`` sharding, which
        then ships the store *path* to a persistent worker pool — runs off
        the mapped arrays.  Returns the mapped compiled set.

        Opening runs under the environment's retry policy
        (``COBRA_RETRY``-tunable): transient I/O failures back off and
        retry before anything is declared corrupt.

        With ``recover=True`` (default), a store that fails verification —
        bad magic, truncated blocks, a CRC32 mismatch — is quarantined
        (renamed ``<path>.quarantined``) and the session transparently
        recompiles from its own provenance instead of raising: the warm
        start degrades to a compile, recorded as a degradation event and
        under ``resilience.quarantines``.

        Raises
        ------
        SerializationError
            If the file is not a valid compiled store (``recover=False``).
        SessionStateError
            On a backend or provenance-fingerprint mismatch.
        """
        from repro.batch.evaluator import BatchEvaluator
        from repro.provenance.store import open_store, quarantine_store
        from repro.resilience import policy_from_env, record_degradation

        def open_once():
            return open_store(path)

        try:
            compiled = policy_from_env().run(
                open_once,
                retryable=(OSError,),
                give_up=(FileNotFoundError,),
                site="store.open",
            )
        except SerializationError as exc:
            quarantined = quarantine_store(path)
            if not recover:
                raise
            record_degradation(
                f"store {path} was corrupt ({exc}); quarantined to "
                f"{quarantined} and recompiled from session provenance"
            )
            with obs_trace("session.compile", which="full", recovery="store"):
                self._compiled_full = self._backend.compile(self._provenance)
            return self._compiled_full
        if compiled.backend_name != self._backend.name:
            raise SessionStateError(
                f"{path}: store was compiled for the "
                f"{compiled.backend_name!r} backend, but this session "
                f"evaluates in {self._backend.name!r}"
            )
        fingerprint = self._provenance.fingerprint()
        if compiled.source_fingerprint != fingerprint:
            raise SessionStateError(
                f"{path}: store fingerprint {compiled.source_fingerprint!r} "
                "does not match this session's provenance "
                f"({fingerprint!r}); recompile the store"
            )
        self._compiled_full = compiled
        if self._batch_evaluator is None:
            self._batch_evaluator = BatchEvaluator(compressor=self.compressor())
        self._batch_evaluator.adopt_store(path)
        return compiled

    def assign(
        self,
        meta_changes: Optional[Mapping[str, float]] = None,
        full_valuation: Optional[Mapping[str, float]] = None,
        measure_assignment_speedup: bool = True,
        speedup_repeats: int = 3,
    ) -> AssignmentReport:
        """Assign values to the meta-variables and compare against the full provenance.

        Parameters
        ----------
        meta_changes:
            Values for (a subset of) the meta-variables; unspecified
            meta-variables take their default value (average of their
            members), and untouched original variables keep their base value.
        full_valuation:
            The valuation of the *original* variables representing the same
            hypothetical, used to evaluate the full provenance.  Defaults to
            the base valuation, which corresponds to the analyst accepting
            the original scenario.
        measure_assignment_speedup:
            Also time the two evaluations (via the compiled evaluators) and
            report the speedup, as the demo does.
        """
        with obs_trace("session.assign"):
            return self._assign(
                meta_changes,
                full_valuation,
                measure_assignment_speedup,
                speedup_repeats,
            )

    def _assign(
        self,
        meta_changes: Optional[Mapping[str, float]],
        full_valuation: Optional[Mapping[str, float]],
        measure_assignment_speedup: bool,
        speedup_repeats: int,
    ) -> AssignmentReport:
        full_value_map = (
            Valuation(dict(full_valuation), semiring=self._backend)
            if full_valuation is not None
            else self._base_valuation
        )
        missing = full_value_map.missing(self._provenance.variables())
        if missing:
            full_value_map = full_value_map.updated(
                {name: self._backend.default_value(name) for name in missing}
            )

        meta_valuation = default_meta_valuation(
            self.abstraction,
            full_value_map,
            reducer="mean",
            on_missing="skip",
            semiring=self._backend,
        )
        if meta_changes:
            meta_valuation = meta_valuation.updated(dict(meta_changes))
        compressed_missing = meta_valuation.missing(
            self.compressed_provenance.variables()
        )
        if compressed_missing:
            meta_valuation = meta_valuation.updated(
                {
                    name: self._backend.default_value(name)
                    for name in compressed_missing
                }
            )

        compiled_full, compiled_compressed = self._compiled()
        baseline_results = compiled_full.evaluate(self._base_valuation)
        full_results = compiled_full.evaluate(full_value_map)
        compressed_results = compiled_compressed.evaluate(meta_valuation)

        zero = self._backend.semiring.zero
        groups = tuple(
            GroupComparison(
                key=key,
                baseline=baseline_results[key],
                full_result=full_results[key],
                compressed_result=compressed_results.get(key, zero),
                semiring=self._backend.name,
            )
            for key in self._provenance.keys()
        )

        speedup = None
        if measure_assignment_speedup:
            if self._backend.name == "real":
                full_fn = lambda: compiled_full.evaluate_vector(full_value_map)  # noqa: E731
                compressed_fn = lambda: compiled_compressed.evaluate_vector(  # noqa: E731
                    meta_valuation
                )
            else:
                full_fn = lambda: compiled_full.evaluate(full_value_map)  # noqa: E731
                compressed_fn = lambda: compiled_compressed.evaluate(  # noqa: E731
                    meta_valuation
                )
            speedup = measure_speedup(full_fn, compressed_fn, repeats=speedup_repeats)

        return AssignmentReport(
            groups=groups,
            full_size=self._provenance.size(),
            compressed_size=self.compressed_provenance.size(),
            full_variables=self._provenance.num_variables(),
            compressed_variables=self.compressed_provenance.num_variables(),
            speedup=speedup,
            semiring=self._backend.name,
        )

    def assign_scenario(
        self,
        scenario: Scenario,
        measure_assignment_speedup: bool = True,
    ) -> AssignmentReport:
        """Apply a :class:`~repro.engine.scenario.Scenario` and compare results.

        The scenario is applied to the original variables to obtain the full
        valuation; the corresponding meta-variable values are derived as the
        average of their members' scenario values (the demo's default), which
        is exact whenever the scenario treats all members of a group alike.
        """
        full_valuation = scenario.apply(
            self._base_valuation, self._provenance.variables()
        )
        return self.assign(
            meta_changes=None,
            full_valuation=full_valuation,
            measure_assignment_speedup=measure_assignment_speedup,
        )

    def evaluate_many(
        self,
        scenarios: Sequence[Scenario],
        include_compressed: Union[bool, str] = "auto",
        evaluator: Optional["BatchEvaluator"] = None,
        mode: str = "auto",
        processes: Optional[int] = None,
    ) -> "BatchReport":
        """Evaluate a whole scenario sweep in one vectorised batch pass.

        Unlike :meth:`compare_scenarios` (a Python loop over
        :meth:`assign_scenario`, fine for a handful of what-ifs), this lowers
        all scenarios through the :mod:`repro.batch` subsystem — hundreds of
        scenarios cost a handful of numpy operations.

        Parameters
        ----------
        scenarios:
            The hypotheticals to evaluate, one report row each.
        include_compressed:
            ``"auto"`` (default) also evaluates the compressed provenance
            whenever :meth:`compress` has run, so the report carries the
            abstraction-induced error across the sweep; ``True`` requires a
            compression (raising otherwise); ``False`` evaluates the full
            provenance only.
        evaluator:
            An explicit :class:`~repro.batch.BatchEvaluator` (e.g. shared
            across sessions, or configured with a worker pool).  By default
            the session keeps one of its own, so repeated sweeps reuse the
            compiled provenance.
        mode:
            ``"auto"`` (default) picks between the dense matrix pipeline and
            sparse baseline-once delta evaluation by how much of the variable
            universe the scenarios touch; ``"dense"``/``"sparse"`` force a
            pipeline.  Both produce element-wise equal results.
        processes:
            Shard scenario rows across this many worker processes (large
            sweeps on multi-core hosts); ``None`` evaluates in-process.
        """
        from repro.batch.evaluator import BatchEvaluator

        if include_compressed not in (True, False, "auto"):
            raise SessionStateError(
                "include_compressed must be True, False or 'auto'"
            )
        if evaluator is None:
            if self._batch_evaluator is None:
                # Share the session's Compressor so a compress-then-sweep
                # through either entry point reuses one trajectory cache.
                self._batch_evaluator = BatchEvaluator(
                    compressor=self.compressor()
                )
            evaluator = self._batch_evaluator

        compressed = None
        abstraction = None
        if include_compressed is True and self._optimization is None:
            raise SessionStateError(
                "include_compressed=True requires compress() to have run"
            )
        if include_compressed is not False and self._optimization is not None:
            compressed = self.compressed_provenance
            abstraction = self.abstraction

        with obs_trace(
            "session.evaluate_many",
            scenarios=len(scenarios),
            compressed=compressed is not None,
        ):
            return evaluator.evaluate(
                self._provenance,
                scenarios,
                base_valuation=self._base_valuation,
                compressed=compressed,
                abstraction=abstraction,
                semiring=self._backend,
                mode=mode,
                processes=processes,
            )

    def evaluate_plan(
        self,
        plan: "ScenarioPlan",
        include_compressed: Union[bool, str] = "auto",
        evaluator: Optional["BatchEvaluator"] = None,
        mode: str = "auto",
        processes: Optional[int] = None,
        chunk_scenarios: Optional[int] = None,
    ) -> "BatchReport":
        """Evaluate a declarative :class:`~repro.engine.plan.ScenarioPlan`.

        The plan form of :meth:`evaluate_many`: grids, Monte Carlo samples
        and composed sweeps (:mod:`repro.engine.plan`) lower lazily in
        bounded chunks, and sweeps sharing a common operation prefix take
        the factored pipeline (shared deltas evaluated once — see
        :mod:`repro.batch.factored`) under ``mode="auto"``.
        ``include_compressed``/``evaluator``/``mode``/``processes`` behave
        exactly as in :meth:`evaluate_many`; ``chunk_scenarios`` bounds how
        many ``Scenario`` objects a huge plan materialises at once.
        """
        from repro.batch.evaluator import BatchEvaluator

        if include_compressed not in (True, False, "auto"):
            raise SessionStateError(
                "include_compressed must be True, False or 'auto'"
            )
        if evaluator is None:
            if self._batch_evaluator is None:
                self._batch_evaluator = BatchEvaluator(
                    compressor=self.compressor()
                )
            evaluator = self._batch_evaluator

        compressed = None
        abstraction = None
        if include_compressed is True and self._optimization is None:
            raise SessionStateError(
                "include_compressed=True requires compress() to have run"
            )
        if include_compressed is not False and self._optimization is not None:
            compressed = self.compressed_provenance
            abstraction = self.abstraction

        with obs_trace(
            "session.evaluate_plan",
            plan=getattr(plan, "name", type(plan).__name__),
            points=len(plan),
            compressed=compressed is not None,
        ):
            return evaluator.evaluate_plan(
                self._provenance,
                plan,
                base_valuation=self._base_valuation,
                compressed=compressed,
                abstraction=abstraction,
                semiring=self._backend,
                mode=mode,
                processes=processes,
                chunk_scenarios=chunk_scenarios,
            )

    def compare_scenarios(
        self,
        scenarios: Sequence[Scenario],
        measure_assignment_speedup: bool = False,
    ) -> Dict[str, AssignmentReport]:
        """Run several hypothetical scenarios and return one report per scenario.

        This is the batch form of :meth:`assign_scenario`, matching the
        analyst workflow of examining a handful of candidate what-ifs side by
        side (scenario name → report).
        """
        reports: Dict[str, AssignmentReport] = {}
        for scenario in scenarios:
            reports[scenario.name] = self.assign_scenario(
                scenario, measure_assignment_speedup=measure_assignment_speedup
            )
        return reports

    # -- "under the hood" -----------------------------------------------------------

    def size_profile(self) -> Dict[int, int]:
        """The size/expressiveness Pareto frontier of the configured tree.

        Maps every achievable number of meta-variables to the smallest
        provenance size any cut of that cardinality can reach — the curve the
        meta-analyst consults before picking a bound.  Only available for a
        single abstraction tree satisfying the single-tree precondition.
        """
        from repro.core.optimizer import compute_size_profile

        if self._trees is None:
            raise SessionStateError("call set_abstraction_trees() first")
        if len(self._trees) != 1:
            raise SessionStateError(
                "size_profile() is only defined for a single abstraction tree"
            )
        return compute_size_profile(self._provenance, self._trees.trees()[0])

    def trace(self) -> Optional[Dict]:
        """The optimizer's intermediate results, if ``compress(keep_trace=True)``."""
        return self.optimization.trace
