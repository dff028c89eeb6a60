"""Numpy-backed backends for numeric semirings and their one compiled form.

Every numeric semiring compiles provenance the same way, in
:class:`CompiledNumericSet`: one shared variable index, the monomials
grouped by factor count and sorted by result row, so a row's total is one
segmented reduction (``ufunc.reduceat``) per group.  A semiring supplies
only two things:

* a :class:`SemiringOps` table — its additive identity, the per-monomial
  contribution, the segment-reduce ufunc, the row-combine ufunc and the
  constant fold (plus the Python type of a single result);
* its :meth:`~CompiledNumericSet.evaluate_deltas` kernel, which answers
  sparse scenarios against one shared base vector.

There are two delta kernels, because the choice hangs on whether the
semiring's sum has an inverse:

* :class:`CompiledProvenanceSet` — the counting semiring ``(R, +, *)``.
  Addition is invertible, so a changed variable updates each monomial it
  touches by the ratio ``old · (new/base − 1)`` and the corrections are
  scattered into the result rows;
* :class:`_CompiledTropicalSet` (min-plus: a monomial costs its coefficient
  plus the exponent-weighted sum of its variables' costs, rows take minima)
  and :class:`_CompiledBooleanSet` (or-and on 0.0/1.0 floats: a monomial is
  present iff all its variables are) — min and or have no inverse, so their
  shared kernel re-reduces every segment of the affected rows.

All three consume the same ``scenarios × variables`` float matrices the
batch planner produces (the Boolean semiring thresholds them at non-zero),
so the chunked/threaded matrix pipeline works for every numeric semiring.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

import numpy as np

from repro.exceptions import MissingValuationError
from repro.obs.tracer import trace
from repro.provenance.backends.base import (
    CompiledSemiringSet,
    SemiringBackend,
)
from repro.provenance.incidence import (
    VariableIncidence,
    expand_segment_rows,
    ragged_ranges,
)
from repro.provenance.polynomial import ProvenanceSet
from repro.provenance.semiring import (
    BooleanSemiring,
    CountingSemiring,
    Semiring,
    TropicalSemiring,
)

#: One sparse scenario: ``(changed column indices, new values)`` relative to
#: a shared base vector in a compiled set's variable order.
DeltaPlanRow = Tuple[np.ndarray, np.ndarray]

#: Distinct baselines whose delta state a compiled set keeps, LRU-evicted.
#: Two is the working set of a factored batch (original baseline for the
#: report, factored baseline for the residual deltas); a little headroom
#: covers interleaved sweeps.
_DELTA_BASELINE_SLOTS = 4

#: One group's sparse delta index: the inverted variable → monomial index,
#: each monomial's result row and each segment's end position.
_DeltaIndexEntry = Tuple[VariableIncidence, np.ndarray, np.ndarray]


class SemiringOps(NamedTuple):
    """What a numeric semiring contributes to a compiled set.

    ``contribute(gathered, exponents, coefficients, powers)`` maps the
    gathered variable values of some monomials (``... × monomials × width``)
    to one value per monomial; ``powers`` says whether any exponent differs
    from 1.  ``reduce`` folds contributions into per-segment values
    (``reduceat``) and ``combine`` folds those into row totals.
    """

    #: The additive identity (the total of a row with no monomials).
    identity: float
    contribute: Callable[[np.ndarray, np.ndarray, np.ndarray, bool], np.ndarray]
    reduce: np.ufunc
    combine: np.ufunc
    #: ``(current constant, coefficient) -> new constant`` for a unit monomial.
    fold_constant: Callable[[float, float], float]
    #: The Python type of one result of :meth:`CompiledNumericSet.evaluate`.
    scalar: Callable[[Any], Any]


def _real_contribute(
    gathered: np.ndarray, exponents: np.ndarray, coefficients: np.ndarray, powers: bool
) -> np.ndarray:
    if powers:
        gathered = np.power(gathered, exponents)
    return np.prod(gathered, axis=-1) * coefficients


def _tropical_contribute(
    gathered: np.ndarray, exponents: np.ndarray, coefficients: np.ndarray, powers: bool
) -> np.ndarray:
    return np.sum(gathered * exponents, axis=-1) + coefficients


def _bool_contribute(
    gathered: np.ndarray, exponents: np.ndarray, coefficients: np.ndarray, powers: bool
) -> np.ndarray:
    # x^k = x in an idempotent semiring, so exponents are irrelevant.
    return np.all(gathered != 0.0, axis=-1) & (coefficients != 0.0)


REAL_OPS = SemiringOps(
    identity=0.0,
    contribute=_real_contribute,
    reduce=np.add,
    combine=np.add,
    fold_constant=lambda current, coefficient: current + coefficient,
    scalar=float,
)

TROPICAL_OPS = SemiringOps(
    identity=float("inf"),
    contribute=_tropical_contribute,
    reduce=np.minimum,
    combine=np.minimum,
    fold_constant=lambda current, coefficient: min(current, float(coefficient)),
    scalar=float,
)

BOOL_OPS = SemiringOps(
    identity=0.0,
    contribute=_bool_contribute,
    reduce=np.logical_or,
    # Row totals stay 0.0/1.0 floats, so or-ing a segment in is a maximum.
    combine=np.maximum,
    fold_constant=lambda current, coefficient: 1.0 if coefficient != 0.0 else current,
    scalar=bool,
)


class _SegmentGroup:
    """One width-group of monomials (CSR-style flat arrays).

    All monomials with the same number of factors live in one group, sorted
    by result row so per-row totals are a contiguous segmented reduction
    (``reduceat``) instead of a scattered ``ufunc.at``.
    """

    __slots__ = (
        "coefficients",
        "indices",
        "exponents",
        "segment_starts",
        "segment_rows",
        "has_higher_powers",
    )

    def __init__(
        self,
        coefficients: np.ndarray,
        indices: np.ndarray,
        exponents: np.ndarray,
        segment_starts: np.ndarray,
        segment_rows: np.ndarray,
        has_higher_powers: Optional[bool] = None,
    ) -> None:
        self.coefficients = coefficients
        self.indices = indices
        self.exponents = exponents
        self.segment_starts = segment_starts
        self.segment_rows = segment_rows
        if has_higher_powers is None:
            has_higher_powers = bool(np.any(exponents != 1.0))
        self.has_higher_powers = bool(has_higher_powers)

    @classmethod
    def from_rows(
        cls,
        rows: np.ndarray,
        coefficients: np.ndarray,
        indices: np.ndarray,
        exponents: np.ndarray,
    ) -> "_SegmentGroup":
        """Sort unsorted monomials by result ``rows`` into segments."""
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        boundaries = np.flatnonzero(np.diff(rows)) + 1
        starts = np.concatenate(([0], boundaries))
        return cls(
            coefficients[order], indices[order], exponents[order], starts, rows[starts]
        )

    def segment_ends(self) -> np.ndarray:
        """One past the last monomial of each segment."""
        return np.append(self.segment_starts[1:], len(self.coefficients)).astype(np.intp)


class _DeltaState(NamedTuple):
    """Everything the delta kernels reuse for one base vector."""

    key: bytes
    base: np.ndarray
    #: Per group, each monomial's contribution (the real kernel's ``old``).
    contributions: Tuple[np.ndarray, ...]
    #: Per group, each segment's reduction (the idempotent kernel's reuse).
    segments: Tuple[np.ndarray, ...]
    totals: np.ndarray


class CompiledNumericSet(CompiledSemiringSet):
    """A :class:`ProvenanceSet` compiled for fast repeated assignment.

    All polynomials share one variable index; the monomials are lowered into
    flat numpy arrays (coefficient vector, variable-index matrix, exponent
    matrix) grouped by factor count and sorted by result row.  Evaluating the
    whole set under one valuation — or a whole ``scenarios × variables``
    matrix of valuations (:meth:`evaluate_matrix`) — is a handful of
    vectorised operations with no per-monomial Python loop.  Subclasses fix
    the semiring through :attr:`ops` and implement ``evaluate_deltas``.
    """

    #: Implements the sparse delta surface (``baseline_totals`` /
    #: ``evaluate_deltas``) the batch evaluator's sparse mode dispatches on.
    supports_deltas = True

    #: The semiring backend this compiled form belongs to (the name stamped
    #: into compiled stores; see :mod:`repro.provenance.store`).
    backend_name: str = ""

    #: The semiring's operations (set by each subclass).
    ops: SemiringOps

    __slots__ = (
        "_keys",
        "_variables",
        "_index",
        "_constant",
        "_groups",
        "_delta_index",
        "_delta_baseline",
        "_fingerprint",
        "_store_path",
    )

    def __init__(self, provenance: ProvenanceSet) -> None:
        ops = self.ops
        self._delta_index: Optional[Tuple[_DeltaIndexEntry, ...]] = None
        self._delta_baseline: List[_DeltaState] = []
        self._fingerprint: Optional[str] = provenance.fingerprint()
        self._store_path: Optional[str] = None
        self._keys: Tuple[Tuple, ...] = provenance.keys()
        variables = sorted(provenance.variables())
        self._variables: Tuple[str, ...] = tuple(variables)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(variables)}
        key_index = {key: i for i, key in enumerate(self._keys)}

        constant = np.full(len(self._keys), ops.identity, dtype=np.float64)
        by_width: Dict[int, List[Tuple[int, float, List[int], List[int]]]] = {}
        for key, polynomial in provenance.items():
            row = key_index[key]
            for monomial, coefficient in polynomial.terms():
                if monomial.is_unit():
                    constant[row] = ops.fold_constant(constant[row], coefficient)
                    continue
                var_indices: List[int] = []
                exponents: List[int] = []
                for name, exponent in monomial:
                    var_indices.append(self._index[name])
                    exponents.append(exponent)
                by_width.setdefault(len(var_indices), []).append(
                    (row, coefficient, var_indices, exponents)
                )
        self._constant: np.ndarray = constant

        self._groups: List[_SegmentGroup] = []
        for _width, rows in sorted(by_width.items()):
            self._groups.append(
                _SegmentGroup.from_rows(
                    np.array([r[0] for r in rows], dtype=np.intp),
                    np.array([r[1] for r in rows], dtype=np.float64),
                    np.array([r[2] for r in rows], dtype=np.intp),
                    np.array([r[3] for r in rows], dtype=np.float64),
                )
            )

    # -- the CompiledSemiringSet surface --------------------------------------

    @property
    def keys(self) -> Tuple[Tuple, ...]:
        """The result keys, in the order of the rows returned by :meth:`evaluate`."""
        return self._keys

    @property
    def variables(self) -> Tuple[str, ...]:
        """All variables of the compiled set, sorted."""
        return self._variables

    def size(self) -> int:
        """Total number of monomials (the provenance size)."""
        count = int(np.count_nonzero(self._constant != self.ops.identity))
        return count + sum(len(group.coefficients) for group in self._groups)

    @property
    def source_fingerprint(self) -> Optional[str]:
        """The fingerprint of the provenance set this was compiled from."""
        return self._fingerprint

    @property
    def store_path(self) -> Optional[str]:
        """The compiled store backing this set's arrays (``None`` if in-memory).

        Set only by :func:`repro.provenance.store.open_store` — batch layers
        use it to ship a path (not a pickle) to worker processes.
        """
        return self._store_path

    def to_store(self, path: str) -> str:
        """Persist this compiled set as a mmap-able store file at ``path``.

        See :func:`repro.provenance.store.write_store`; the set itself keeps
        its in-memory arrays (reopen via :meth:`from_store` for mapped ones).
        """
        from repro.provenance.store import write_store

        return write_store(self, path)

    @classmethod
    def from_store(cls, path: str) -> "CompiledNumericSet":
        """Open the compiled store at ``path`` as an instance of this class.

        Raises :class:`~repro.exceptions.SerializationError` if the store
        was written by a different backend.
        """
        from repro.exceptions import SerializationError
        from repro.provenance.store import open_store

        compiled = open_store(path)
        if compiled.backend_name != cls.backend_name:
            raise SerializationError(
                f"{path}: store holds a {compiled.backend_name!r} compiled "
                f"set, not {cls.backend_name!r}"
            )
        return compiled

    def variable_index(self) -> Dict[str, int]:
        """A copy of the variable → column index shared by every polynomial."""
        return dict(self._index)

    def values_vector(self, valuation: Mapping[str, Any]) -> np.ndarray:
        """Lower a valuation to a value vector in this set's variable order."""
        missing = [name for name in self._variables if name not in valuation]
        if missing:
            raise MissingValuationError(missing)
        return np.array(
            [float(valuation[name]) for name in self._variables], dtype=np.float64
        )

    def evaluate(self, valuation: Mapping[str, Any]) -> Dict[Tuple, Any]:
        """Evaluate every polynomial, returning key → result."""
        totals = self._evaluate_values(self.values_vector(valuation))
        scalar = self.ops.scalar
        return {key: scalar(totals[i]) for i, key in enumerate(self._keys)}

    def evaluate_vector(self, valuation: Mapping[str, Any]) -> np.ndarray:
        """Like :meth:`evaluate` but returning a bare numpy vector (fast path)."""
        values = np.array(
            [float(valuation[name]) for name in self._variables], dtype=np.float64
        )
        return self._evaluate_values(values)

    def evaluate_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Evaluate a whole ``scenarios × variables`` matrix of valuations.

        ``matrix`` must have one column per variable of :attr:`variables`, in
        that order (build it with :meth:`values_vector` rows or via
        :class:`repro.batch.ScenarioBatch`).  Returns a
        ``scenarios × groups`` array whose columns follow :attr:`keys` — the
        whole batch is a handful of vectorised operations instead of one
        Python-level evaluation per scenario.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._variables):
            raise ValueError(
                f"expected a (scenarios, {len(self._variables)}) matrix, "
                f"got shape {matrix.shape}"
            )
        return self._evaluate_values(matrix)

    def evaluate_many(self, valuations: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Evaluate a batch of valuation mappings (rows follow the input order)."""
        if not valuations:
            return np.zeros((0, len(self._keys)), dtype=np.float64)
        matrix = np.stack([self.values_vector(v) for v in valuations])
        return self.evaluate_matrix(matrix)

    # -- the kernels ------------------------------------------------------------

    def _contributions(
        self,
        group: _SegmentGroup,
        values: np.ndarray,
        positions: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-monomial contributions for a ``... × variables`` value array
        (only of the monomials at ``positions`` of a value vector, if given)."""
        if positions is None:
            return self.ops.contribute(
                values[..., group.indices],
                group.exponents,
                group.coefficients,
                group.has_higher_powers,
            )
        return self.ops.contribute(
            values[group.indices[positions]],
            group.exponents[positions],
            group.coefficients[positions],
            group.has_higher_powers,
        )

    def _fold(self, totals: np.ndarray, rows: np.ndarray, segments: np.ndarray) -> None:
        """Combine per-segment values into ``totals`` at (unique) ``rows``."""
        totals[..., rows] = self.ops.combine(totals[..., rows], segments)

    def _evaluate_values(self, values: np.ndarray) -> np.ndarray:
        """Totals for one value vector or a ``scenarios × variables`` matrix."""
        reduce = self.ops.reduce
        totals = np.tile(self._constant, values.shape[:-1] + (1,))
        for group in self._groups:
            segments = reduce.reduceat(
                self._contributions(group, values), group.segment_starts, axis=-1
            )
            self._fold(totals, group.segment_rows, segments)
        return totals

    # -- sparse delta evaluation ---------------------------------------------

    def dense_row_footprint(self) -> int:
        """float64 cells :meth:`evaluate_matrix` materialises per scenario row.

        The gather/power/product temporaries over every monomial factor
        dominate; chunking layers use this to bound peak memory.
        """
        cells = len(self._variables) + len(self._keys)
        for group in self._groups:
            cells += group.indices.size
        return max(1, cells)

    def _delta_groups(self) -> Tuple[_DeltaIndexEntry, ...]:
        """Per-group inverted index, per-monomial rows and segment ends.

        Immutable once built (concurrent builders may race, but every result
        is equivalent), so cached compiled sets stay safe to share.
        """
        if self._delta_index is None:
            with trace(
                "incidence.delta_index",
                groups=len(self._groups),
                variables=len(self._variables),
            ):
                self._delta_index = tuple(
                    (
                        VariableIncidence.from_factor_arrays(
                            len(self._variables), group.indices, group.exponents
                        ),
                        expand_segment_rows(
                            group.segment_starts,
                            group.segment_rows,
                            len(group.coefficients),
                        ),
                        group.segment_ends(),
                    )
                    for group in self._groups
                )
        return self._delta_index

    def _delta_state(self, base_vector: np.ndarray) -> _DeltaState:
        """Baseline-once state for ``base_vector`` (LRU over a few baselines)."""
        base_vector = np.asarray(base_vector, dtype=np.float64)
        if base_vector.shape != (len(self._variables),):
            raise ValueError(
                f"expected a base vector of {len(self._variables)} variables, "
                f"got shape {base_vector.shape}"
            )
        key = base_vector.tobytes()
        cache = self._delta_baseline
        for i, entry in enumerate(cache):
            if entry.key == key:
                if i:
                    # Move-to-front LRU: the factored batch path alternates
                    # between the original and the factored baseline, so a
                    # one-slot cache would rebuild on every alternation.
                    cache.insert(0, cache.pop(i))
                return entry
        contributions = tuple(
            self._contributions(group, base_vector) for group in self._groups
        )
        segments = tuple(
            self.ops.reduce.reduceat(contrib, group.segment_starts)
            for group, contrib in zip(self._groups, contributions)
        )
        totals = self._constant.copy()
        for group, reduced in zip(self._groups, segments):
            self._fold(totals, group.segment_rows, reduced)
        entry = _DeltaState(key, base_vector.copy(), contributions, segments, totals)
        cache.insert(0, entry)
        del cache[_DELTA_BASELINE_SLOTS:]
        return entry

    def baseline_totals(self, base_vector: np.ndarray) -> np.ndarray:
        """The per-group results under ``base_vector`` (the sparse baseline)."""
        return self._delta_state(base_vector).totals.copy()


class CompiledProvenanceSet(CompiledNumericSet):
    """Provenance compiled in the counting semiring ``(R, +, *)``.

    The real backend's compiled form and the float pipeline's workhorse.
    """

    __slots__ = ()

    backend_name = "real"
    ops = REAL_OPS

    def evaluate_deltas(
        self, base_vector: np.ndarray, plans: Sequence[DeltaPlanRow]
    ) -> np.ndarray:
        """Evaluate sparse scenarios as deltas against one shared base vector.

        Each plan is ``(changed_columns, new_values)`` over this set's
        variable order, with distinct columns per plan (what
        :meth:`~repro.batch.planner.ScenarioBatch.delta_plan` emits).  The
        base valuation is evaluated once; the whole
        batch of scenarios is then answered with a handful of vectorised
        passes over the *occurrences* of changed variables (via the inverted
        variable→monomial index) — O(touched monomials), not O(monomials ×
        scenarios):

        * every occurrence contributes its monomial's multiplicative ratio
          update ``old · (new/base − 1)``, accumulated into per-scenario
          result rows with one global ``bincount``;
        * monomials touched by several changed variables of one scenario get
          an exact product fix-up through two persistent scatter buffers;
        * scenarios whose ratios misbehave (a zero, subnormal or otherwise
          over/underflowing base value) fall back to one exact full
          re-evaluation of their row.

        Returns the same ``scenarios × groups`` array the dense
        :meth:`evaluate_matrix` path produces for the corresponding rows.
        """
        index = self._delta_groups()
        state = self._delta_state(base_vector)
        base, contributions, totals = state.base, state.contributions, state.totals
        num_keys = len(self._keys)
        num_plans = len(plans)
        out = np.tile(totals, (num_plans, 1))
        if num_plans == 0 or num_keys == 0:
            return out

        # Split the batch: scenarios with finite per-column ratios take the
        # vectorised delta passes; the rest (zero/subnormal base values) are
        # re-evaluated exactly, one full row each.
        column_parts: List[np.ndarray] = []
        ratio_parts: List[np.ndarray] = []
        sid_parts: List[np.ndarray] = []
        exact: List[Tuple[int, np.ndarray, np.ndarray]] = []
        # Scenarios with a single changed column can never need the
        # multi-touch product fix-up (a variable occurs once per monomial).
        multi_column = np.zeros(num_plans, dtype=np.bool_)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for s, (columns, values) in enumerate(plans):
                # Plans arrive as caller-shaped sequences; coercion is per-plan.
                columns = np.asarray(columns, dtype=np.intp)  # cobralint: disable=CL003 -- per-plan input coercion
                values = np.asarray(values, dtype=np.float64)  # cobralint: disable=CL003 -- per-plan input coercion
                if columns.size == 0:
                    continue
                ratios = values / base[columns]
                if np.isfinite(ratios).all():
                    column_parts.append(columns)
                    ratio_parts.append(ratios)
                    sid_parts.append(
                        np.full(columns.size, s, dtype=np.intp)
                    )
                    multi_column[s] = columns.size > 1
                else:
                    exact.append((s, columns, values))

            bad_sids: Set[int] = set()
            if column_parts:
                all_columns = np.concatenate(column_parts)
                all_ratios = np.concatenate(ratio_parts)
                all_sids = np.concatenate(sid_parts)
                corrections = np.zeros(num_plans * num_keys, dtype=np.float64)
                any_multi = bool(multi_column.any())
                for (incidence, monomial_rows, _ends), group, base_contrib in zip(
                    index, self._groups, contributions
                ):
                    # Scatter buffers for the product fix-up, allocated per
                    # call (not cached on the instance) so concurrently
                    # shared compiled sets never race on them; they are
                    # reset to the identity after each scenario segment.
                    if any_multi:
                        products = np.ones(
                            len(group.coefficients), dtype=np.float64
                        )
                        counts = np.zeros(
                            len(group.coefficients), dtype=np.float64
                        )
                    occ_pos, occ_exp, occ_counts = incidence.occurrences(
                        all_columns
                    )
                    if occ_pos.size == 0:
                        continue
                    occ_ratio = np.repeat(all_ratios, occ_counts)
                    if group.has_higher_powers:
                        occ_ratio = np.power(occ_ratio, occ_exp)
                    occ_sid = np.repeat(all_sids, occ_counts)
                    old = base_contrib[occ_pos]
                    linear = old * (occ_ratio - 1.0)
                    if not np.isfinite(linear).all():
                        # Over/underflowed updates poison their scenarios'
                        # correction rows; re-evaluate those rows exactly
                        # (the pollution is overwritten below).
                        bad = ~np.isfinite(linear)
                        bad_sids.update(int(s) for s in np.unique(occ_sid[bad]))
                    corrections += np.bincount(
                        occ_sid * num_keys + monomial_rows[occ_pos],
                        weights=linear,
                        minlength=num_plans * num_keys,
                    )[: num_plans * num_keys]
                    # Product fix-up: within one scenario, a monomial touched
                    # by k >= 2 changed variables must contribute
                    # old·(∏ratios − 1), not the sum of its linear updates.
                    if not any_multi:
                        continue
                    boundaries = np.flatnonzero(
                        np.concatenate(([True], occ_sid[1:] != occ_sid[:-1]))
                    )
                    ends = np.append(boundaries[1:], occ_sid.size)
                    # cobralint: disable=CL003 -- iterates scenario segments,
                    # not elements: one step per scenario with multi-touch
                    # monomials, each step fully vectorised via ufunc.at.
                    for b, e in zip(boundaries, ends):
                        if e - b < 2 or not multi_column[occ_sid[b]]:
                            continue
                        pos = occ_pos[b:e]
                        np.add.at(counts, pos, 1.0)
                        k = counts[pos]
                        collided = k > 1.0
                        if collided.any():
                            cpos = pos[collided]
                            cratio = occ_ratio[b:e][collided]
                            np.multiply.at(products, cpos, cratio)
                            fix = old[b:e][collided] * (
                                (products[cpos] - 1.0) / k[collided]
                                - (cratio - 1.0)
                            )
                            if np.isfinite(fix).all():
                                np.add.at(
                                    corrections,
                                    int(occ_sid[b]) * num_keys
                                    + monomial_rows[cpos],
                                    fix,
                                )
                            else:
                                bad_sids.add(int(occ_sid[b]))
                            products[cpos] = 1.0
                        counts[pos] = 0.0
                out += corrections.reshape(num_plans, num_keys)

            # Exact fallback: one full (still vectorised) row re-evaluation
            # per affected scenario — the cost of one dense row, only for
            # the scenarios that need it.
            if exact or bad_sids:
                scratch = base.copy()
                for s in sorted(bad_sids):
                    exact.append(
                        (
                            s,
                            np.asarray(plans[s][0], dtype=np.intp),  # cobralint: disable=CL003 -- rare overflow fallback, off the fast path
                            np.asarray(plans[s][1], dtype=np.float64),  # cobralint: disable=CL003 -- rare overflow fallback, off the fast path
                        )
                    )
                for s, columns, values in exact:
                    scratch[columns] = values
                    out[s] = self._evaluate_values(scratch)
                    scratch[columns] = base[columns]
        return out


class _IdempotentCompiledSet(CompiledNumericSet):
    """The delta kernel of the semirings whose sum has no inverse (min, or)."""

    __slots__ = ()

    def evaluate_deltas(
        self, base_vector: np.ndarray, plans: Sequence[DeltaPlanRow]
    ) -> np.ndarray:
        """Evaluate sparse scenarios against one shared base vector.

        Each plan is ``(changed_columns, new_values)`` over this set's
        variable order.  Idempotent reductions (min, or) cannot be corrected
        additively, so per scenario the kernel re-reduces exactly the
        *segments* whose output row contains an affected monomial: affected
        rows are reset to the constant fold, recomputed segments are reduced
        from scratch over the updated values, and every untouched segment of
        an affected row reuses its baseline reduction.  Work per scenario is
        O(monomials inside affected segments), not O(all monomials).
        """
        index = self._delta_groups()
        state = self._delta_state(base_vector)
        base, segment_values, totals = state.base, state.segments, state.totals
        reduce = self.ops.reduce
        num_keys = len(self._keys)
        out = np.empty((len(plans), num_keys), dtype=np.float64)
        scratch = base.copy()
        for s, (columns, values) in enumerate(plans):
            # Plans arrive as caller-shaped sequences; coercion is per-plan.
            columns = np.asarray(columns, dtype=np.intp)  # cobralint: disable=CL003 -- per-plan input coercion
            values = np.asarray(values, dtype=np.float64)  # cobralint: disable=CL003 -- per-plan input coercion
            if columns.size == 0:
                out[s] = totals
                continue
            scratch[columns] = values
            # Pass 1: the segments (and thus output rows) each group affects.
            affected_segments: List[np.ndarray] = []
            row_parts: List[np.ndarray] = []
            for (incidence, _monomial_rows, _ends), group in zip(
                index, self._groups
            ):
                positions = incidence.rows_for_any(columns)
                if positions.size:
                    segments = np.unique(
                        np.searchsorted(
                            group.segment_starts, positions, side="right"
                        )
                        - 1
                    )
                    row_parts.append(group.segment_rows[segments])
                else:
                    segments = positions
                affected_segments.append(segments)
            if not row_parts:
                out[s] = totals
                scratch[columns] = base[columns]
                continue
            affected_rows = np.unique(np.concatenate(row_parts))
            out[s] = totals
            row = out[s]
            row[affected_rows] = self._constant[affected_rows]
            # Pass 2: re-fold every segment owned by an affected row —
            # recomputing the affected ones, reusing baseline reductions for
            # the rest.
            for (incidence, _monomial_rows, ends), group, segments, base_segments in zip(
                index, self._groups, affected_segments, segment_values
            ):
                lookup = np.searchsorted(affected_rows, group.segment_rows)
                lookup = np.minimum(lookup, affected_rows.size - 1)
                in_rows = np.flatnonzero(
                    affected_rows[lookup] == group.segment_rows
                )
                if in_rows.size == 0:
                    continue
                folded = base_segments[in_rows].copy()
                if segments.size:
                    positions, local_starts = ragged_ranges(
                        group.segment_starts[segments], ends[segments]
                    )
                    recomputed = reduce.reduceat(
                        self._contributions(group, scratch, positions),
                        local_starts,
                    )
                    folded[np.searchsorted(in_rows, segments)] = recomputed
                self._fold(row, group.segment_rows[in_rows], folded)
            scratch[columns] = base[columns]
        return out


class _CompiledTropicalSet(_IdempotentCompiledSet):
    """Min-plus compilation: costs add along a monomial, rows take minima."""

    __slots__ = ()

    backend_name = "tropical"
    ops = TROPICAL_OPS


class _CompiledBooleanSet(_IdempotentCompiledSet):
    """Or-and compilation; results come back as 0.0/1.0 floats so the matrix
    pipeline and the batch report keep their float dtype."""

    __slots__ = ()

    backend_name = "bool"
    ops = BOOL_OPS


class NumericBackend(SemiringBackend):
    """Base class for backends whose carrier is (a subset of) the reals."""

    is_numeric = True
    #: The float standing in for a *missing* variable in matrix pipelines —
    #: the value under which the variable leaves the result unchanged.
    numeric_fill: float = 1.0
    #: The member of the compiled-set family for this semiring.
    compiled_class: Type[CompiledNumericSet]

    def compile(self, provenance: ProvenanceSet) -> CompiledNumericSet:
        with trace("backend.compile", backend=self.name, monomials=provenance.size()):
            return self.compiled_class(provenance)

    def coerce(self, value: Any) -> float:
        return float(value)

    def scale_value(self, value: Any, factor: float) -> float:
        return float(value) * float(factor)

    def set_value(self, amount: float, name: str) -> float:
        return float(amount)

    def embed_coefficient(self, coefficient: float) -> float:
        return float(coefficient)

    def reduce_members(self, values: Sequence[Any]) -> float:
        values = [float(v) for v in values]
        return sum(values) / len(values) if values else float(self.semiring.one)

    def delta(self, baseline: Any, value: Any) -> float:
        if value == baseline:
            return 0.0
        return float(value) - float(baseline)

    def error(self, full: Any, compressed: Any) -> float:
        if full == compressed:
            return 0.0
        return abs(float(full) - float(compressed))

    def magnitude(self, value: Any) -> float:
        return abs(float(value))

    def format_value(self, value: Any, width: int = 14) -> str:
        return f"{float(value):.2f}"


class RealBackend(NumericBackend):
    """The counting semiring ``(R, +, *)`` — the original float pipeline."""

    name = "real"
    numeric_fill = 1.0
    compiled_class = CompiledProvenanceSet

    def __init__(self) -> None:
        self._semiring = CountingSemiring()

    @property
    def semiring(self) -> Semiring:
        return self._semiring


class TropicalBackend(NumericBackend):
    """The tropical (min, +) semiring: variables are costs, results min-costs.

    Scenario semantics: ``scale`` multiplies a cost (a 20% toll hike is
    ``scale(..., 1.2)``), ``set`` pins it; the default value of a variable
    is the semiring one (0.0 — no added cost), so untouched variables never
    change a route's cost.  Coefficients embed as fixed costs.
    """

    name = "tropical"
    numeric_fill = 0.0
    compiled_class = _CompiledTropicalSet

    def __init__(self) -> None:
        self._semiring = TropicalSemiring()

    @property
    def semiring(self) -> Semiring:
        return self._semiring

    def default_value(self, name: str) -> float:
        return 0.0

    def magnitude(self, value: Any) -> float:
        value = float(value)
        return abs(value) if np.isfinite(value) else float("inf")

    def format_value(self, value: Any, width: int = 14) -> str:
        value = float(value)
        return "unreachable" if np.isinf(value) else f"{value:.2f}"


class BooleanBackend(NumericBackend):
    """The Boolean semiring: tuple existence under deletions/access control.

    Values are truthinesses (the matrix pipeline carries them as 0.0/1.0
    floats); ``scale`` by 0 deletes, by anything else keeps; ``set`` assigns
    the amount's truthiness.  Coefficients embed as presence.
    """

    name = "bool"
    numeric_fill = 1.0
    compiled_class = _CompiledBooleanSet

    def __init__(self) -> None:
        self._semiring = BooleanSemiring()

    @property
    def semiring(self) -> Semiring:
        return self._semiring

    def coerce(self, value: Any) -> bool:
        return bool(value)

    def scale_value(self, value: Any, factor: float) -> bool:
        return bool(value) and factor != 0

    def set_value(self, amount: float, name: str) -> bool:
        return amount != 0

    def embed_coefficient(self, coefficient: float) -> bool:
        return coefficient != 0

    def reduce_members(self, values: Sequence[Any]) -> float:
        # The mean of 0/1 values is non-zero iff any member survives, so the
        # numeric mean lowering coincides with the Boolean disjunction.
        values = [1.0 if v else 0.0 for v in values]
        return sum(values) / len(values) if values else 1.0

    def delta(self, baseline: Any, value: Any) -> float:
        return float(bool(value)) - float(bool(baseline))

    def error(self, full: Any, compressed: Any) -> float:
        return 0.0 if bool(full) == bool(compressed) else 1.0

    def magnitude(self, value: Any) -> float:
        return 1.0 if bool(value) else 0.0

    def format_value(self, value: Any, width: int = 14) -> str:
        return "true" if bool(value) else "false"
