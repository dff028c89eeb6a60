"""The two benchmark workloads, written against the public ``repro`` API.

Each workload has a body (one round: what one fresh worker process does
and times) and a probe step (per-layer measurements taken after the body,
in the traced run only).  A round sets up once, cold, answers its first
what-if cold, and then sends the workload's pool of warm requests (the
short sql_capture pool several times).  ``run.py`` runs several rounds,
each in a new process, so no round inherits a module cache, an import or
garbage from another; the pool is drawn from the seed alone, so every
round sends the same requests and ``harness.end_to_end`` can keep each
request's best time.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    AbstractionForest,
    BatchEvaluator,
    CobraSession,
    Compressor,
    Scenario,
    Valuation,
    apply_abstraction,
    default_meta_valuation,
    execute,
    parse_sql,
    resolve_backend,
    to_provenance_set,
)
from repro.core.optimizer import build_load_model
from repro.db.annotations import CellParameterizationPolicy
from repro.db.catalog import Catalog
from repro.core.kernel.index import clear_incidence_cache
from repro.db.query import LogicalPlan, Scan
from repro.engine.plan import compose
from repro.provenance.incidence import clear_provenance_incidence_cache
from repro.provenance.store import clear_store_cache, open_store, write_store
from repro.workloads import (
    RoutingConfig,
    TelephonyConfig,
    TpchConfig,
    generate_revenue_provenance,
    generate_routing_provenance,
    generate_telephony_catalog,
    generate_tpch_catalog,
    months_tree,
    plans_tree,
    q1_pricing_summary,
    q3_segment_revenue,
    q5_local_supplier_volume,
    q6_forecast_revenue,
    q10_returned_items,
    revenue_query_sql,
    routing_base_costs,
    routing_scenario_sweep,
    tpch_deletion_provenance,
    tpch_deletion_scenarios,
)
from repro.workloads.abstraction_trees import PLAN_VARIABLES
from repro.workloads.telephony import telephony_scenario_sweep

from harness import (
    UNIFORM_TOLERANCE,
    Run,
    max_relative_error,
    now,
    request_layers,
    same_results,
    timed_median,
    uniform_rows,
)


@dataclass(frozen=True)
class Size:
    """Input sizes and request counts; ``PAPER`` is what the benchmark runs."""

    customers: int
    zips: int
    bounds: Tuple[Tuple[str, int], ...]
    #: Paper numbers the run must reproduce: (full size, size per bound).
    expected: Optional[Tuple[int, Tuple[int, ...]]]
    sweep_scenarios: int
    tpch_scale: float
    call_customers: int
    call_zips: int
    routing: RoutingConfig
    #: Distinct warm requests in section4_pipeline's pool.
    pool_requests: int
    #: Distinct warm sweeps per sql_capture provenance, and their size.
    sql_variants: int
    sql_scenarios: int
    #: Times an untraced sql_capture round sends its pool.
    sql_passes: int
    #: section4_pipeline's pool in a traced (fixed-work) round.
    trace_requests: int
    request_scenarios: int
    plan_variants: int


PAPER = Size(
    customers=100_000,
    zips=1055,
    bounds=(("b94600", 94_600), ("b38600", 38_600)),
    expected=(139_260, (88_620, 37_980)),
    sweep_scenarios=200,
    tpch_scale=0.002,
    call_customers=1000,
    call_zips=40,
    routing=RoutingConfig(num_zips=5000, routes_per_zip=8, num_trunks=40),
    pool_requests=100,
    sql_variants=8,
    sql_scenarios=16,
    sql_passes=4,
    trace_requests=60,
    request_scenarios=50,
    plan_variants=100,
)

#: The paper's bounds scaled to a 2,640-monomial instance, for the tests.
TINY = Size(
    customers=2000,
    zips=20,
    bounds=(("b94600", 1793), ("b38600", 732)),
    expected=None,
    sweep_scenarios=40,
    tpch_scale=0.0005,
    call_customers=100,
    call_zips=10,
    routing=RoutingConfig(num_zips=50, routes_per_zip=4, num_trunks=12),
    pool_requests=12,
    sql_variants=2,
    sql_scenarios=4,
    sql_passes=2,
    trace_requests=12,
    request_scenarios=8,
    plan_variants=10,
)

MONTH_VARIABLES = tuple(f"m{month}" for month in range(1, 13))
PLAN_VARIABLE_NAMES = tuple(PLAN_VARIABLES.values())
TELEPHONY_VARIABLES = PLAN_VARIABLE_NAMES + MONTH_VARIABLES


def size_of(run: Run) -> Size:
    return TINY if run.tiny else PAPER


def span_seconds(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


def fresh_evaluator(compressor, store: Optional[str] = None) -> BatchEvaluator:
    """A cold evaluator (on ``store``, if given), with the module caches dropped."""
    clear_store_cache()
    clear_provenance_incidence_cache()
    clear_incidence_cache()
    evaluator = BatchEvaluator(compressor=compressor)
    if store is not None:
        evaluator.adopt_store(store)
    return evaluator


def first_answer(run: Run, ask: Callable[[], Any]):
    """Time a first what-if after set-up; ``ask`` sends it to a cold evaluator."""
    run.settle()
    report, latency = run.request("first", ask)
    run.first_answers.append(latency)
    return report


def uniform_check(run: Run, report, scenarios, abstraction, universe) -> int:
    """Check the group-uniform rows of a report; returns how many there were."""
    rows = uniform_rows(scenarios, abstraction, universe)
    if rows:
        error = max_relative_error(report, rows)
        run.check(
            error <= UNIFORM_TOLERANCE,
            f"{len(rows)} group-uniform scenarios answered with relative error "
            f"{error:.3g} (limit {UNIFORM_TOLERANCE:g})",
        )
    return len(rows)


def identity_with_defaults(full, abstraction) -> Dict[str, float]:
    """A value for every variable of the compressed provenance, from identity."""
    identity = Valuation.identity_for(full)
    values = {name: float(identity[name]) for name in full.variables()}
    defaults = default_meta_valuation(
        abstraction, identity, provenance=full, on_missing="skip"
    )
    values.update({name: float(defaults[name]) for name in defaults})
    return values


def provenance_probes(
    run: Run, full, optimization, store_path: Optional[str]
) -> Dict[str, float]:
    """Per-layer costs of one real provenance and its compressed form."""
    rec = run.recorder
    backend = resolve_backend("real")
    compressed = optimization.compressed
    abstraction = optimization.abstraction
    with rec.span("provenance.compile", which="full", probe=True) as full_span:
        compiled_full = backend.compile(full)
    with rec.span("provenance.compile", which="compressed", probe=True) as comp_span:
        compiled_compressed = backend.compile(compressed)
    identity = Valuation.identity_for(full)
    values = identity_with_defaults(full, abstraction)
    eval_full = timed_median(lambda: compiled_full.evaluate_vector(identity), 5)
    eval_compressed = timed_median(lambda: compiled_compressed.evaluate_vector(values), 5)
    default_s = timed_median(
        lambda: default_meta_valuation(
            abstraction, identity, provenance=full, on_missing="skip"
        ),
        3,
    )
    with rec.span("core.load_model", probe=True) as load_span:
        build_load_model(full, plans_tree())
    with rec.span("core.apply_abstraction", probe=True) as apply_span:
        apply_abstraction(full, abstraction)
    metrics = {
        "provenance.compile_s.full": span_seconds(full_span),
        "provenance.compile_s.compressed": span_seconds(comp_span),
        "provenance.eval_full_ms": 1e3 * eval_full,
        "provenance.eval_compressed_ms": 1e3 * eval_compressed,
        "provenance.assign_speedup": eval_full / eval_compressed,
        "core.default_valuation_ms": 1e3 * default_s,
        "core.load_model_s": span_seconds(load_span),
        "core.apply_abstraction_s": span_seconds(apply_span),
        "core.meta_variables": len(abstraction.meta_variables()),
    }
    if store_path is not None:

        def cold_open():
            clear_store_cache()
            open_store(store_path)

        metrics["provenance.store_open_ms"] = 1e3 * timed_median(cold_open, 5)
        metrics["provenance.store_bytes_per_monomial"] = (
            os.path.getsize(store_path) / full.size()
        )
    return metrics


# ---------------------------------------------------------------------------
# section4_pipeline
# ---------------------------------------------------------------------------

REQUEST_MIX = (
    ("sparse", 0.55),
    ("dense", 0.15),
    ("factored", 0.10),
    ("tropical", 0.10),
    ("rebase", 0.10),
)


def section4_pipeline(run: Run) -> Dict[str, Any]:
    size = size_of(run)
    rec = run.recorder
    start = now()
    state = _section4_setup(run, size)
    session, scenarios = state["session"], state["scenarios"]

    def sweep(mode="auto", evaluator=None):
        return session.evaluate_many(
            scenarios, evaluator=evaluator or state["evaluator"], mode=mode
        )

    state["report"] = first_answer(run, sweep)
    with rec.span("bench.check"):
        _section4_checks(run, size, state)

    # One request of each kind warms the evaluator up; then the pool, once.
    client = Client(run, size, state)
    state["client"] = client
    for kind, _share in REQUEST_MIX:
        client.send(client.build(kind))
    if run.fixed:
        pool = client.pool(size.trace_requests)
        run.settle()
        loop_start = now()
        for slot, request in enumerate(pool):
            client.send(request, slot)
        run.loop = (loop_start, now())
        run.end_body(start)
    else:
        # After each quarter of the pool the generator runs again and the
        # first answer is asked again of a cold evaluator: samples spread
        # over the round, as the requests are.
        pool = list(enumerate(client.pool(size.pool_requests)))
        quarter = -(-len(pool) // 4)
        for part in (pool[i : i + quarter] for i in range(0, len(pool), quarter)):
            run.settle()
            for slot, request in part:
                client.send(request, slot)
            run.settle()
            with rec.span("workloads.generate", again=True) as span:
                generate_revenue_provenance(state["config"])
            run.sample("capture", "telephony", span_seconds(span))
            cold = fresh_evaluator(session.compressor(), state["store"])
            first_answer(run, lambda: sweep(evaluator=cold))
        run.end_body(start)

    # Outside the timed body: each recorded request again, forced dense.
    with rec.span("bench.check"):
        run.check(client.uniform_rows > 0, "no sparse request had a group-uniform scenario")
        for kind, (call, report, _scenarios) in client.recorded.items():
            run.check(
                same_results(report, call(mode="dense"), exact=kind == "tropical"),
                f"{kind} request: dense != {report.mode}",
            )
    return state


def _section4_setup(run: Run, size: Size) -> Dict[str, Any]:
    rec = run.recorder
    config = TelephonyConfig(num_customers=size.customers, num_zips=size.zips, seed=run.seed)
    routing_config = RoutingConfig(
        num_zips=size.routing.num_zips,
        routes_per_zip=size.routing.routes_per_zip,
        num_trunks=size.routing.num_trunks,
        seed=run.seed,
    )
    bounds = dict(size.bounds)
    start = now()
    with rec.span("workloads.generate") as span:
        provenance = generate_revenue_provenance(config)
    run.sample("capture", "telephony", span_seconds(span))
    with rec.span("workloads.generate", what="routing"):
        routing = generate_routing_provenance(routing_config)
    with rec.span("provenance.fingerprint"):
        provenance.fingerprint()
        routing.fingerprint()
    with rec.span("provenance.compile", which="full"):
        compiled = resolve_backend("real").compile(provenance)
    with rec.span("engine.session"):
        session = CobraSession(provenance)
        session.set_abstraction_trees(plans_tree())
    optimized = {}
    for label, bound in bounds.items():
        session.set_bound(bound)
        with rec.span("core.optimize", bound=label) as span:
            optimized[label] = session.compress(method="dp")
        run.sample("compress", f"dp.{label}", span_seconds(span))
    compressor = Compressor()
    forest = AbstractionForest([plans_tree(), months_tree()])
    with rec.span("core.kernel_sweep") as span:
        swept = compressor.sweep(provenance, forest, list(bounds.values()))
    # One sweep computes every bound's abstraction: each costs its share.
    for label in bounds:
        run.sample("compress", f"kernel.{label}", span_seconds(span) / len(bounds))
    path = os.path.join(run.workdir, "section4.cps")
    with rec.span("provenance.store_write"):
        write_store(compiled, path)
    evaluator = BatchEvaluator(compressor=session.compressor())
    with rec.span("provenance.store_open"):
        evaluator.adopt_store(path)
    with rec.span("engine.session", semiring="tropical"):
        tropical = CobraSession(
            routing, routing_base_costs(routing_config).as_dict(), semiring="tropical"
        )
    run.setups.append(now() - start)
    return {
        "config": config,
        "provenance": provenance,
        "session": session,
        "evaluator": evaluator,
        "compressor": compressor,
        "forest": forest,
        "optimized": optimized,
        "optimization": optimized[size.bounds[-1][0]],
        "swept": swept,
        "tropical": tropical,
        "routing_config": routing_config,
        "scenarios": telephony_scenario_sweep(size.sweep_scenarios),
        "store": path,
    }


def _section4_checks(run: Run, size: Size, state: Dict[str, Any]) -> None:
    provenance, optimized, swept = state["provenance"], state["optimized"], state["swept"]
    if size.expected is not None:
        full, per_bound = size.expected
        run.check(provenance.size() == full, f"full size {provenance.size()} != {full}")
        for (label, bound), want in zip(size.bounds, per_bound):
            dp = optimized[label].achieved_size
            kernel = swept[bound].achieved_size
            run.check(dp == want, f"DP at {bound}: {dp} != {want}")
            run.check(kernel == want, f"forest kernel at {bound}: {kernel} != {want}")
    else:
        for label, bound in size.bounds:
            run.check(optimized[label].achieved_size <= bound, f"DP exceeds {bound}")
            run.check(swept[bound].achieved_size <= bound, f"kernel exceeds {bound}")
    report = state["report"]
    if report is not None:
        run.add_error("sweep", report)
        rows = uniform_check(
            run, report, state["scenarios"], state["session"].abstraction, TELEPHONY_VARIABLES
        )
        run.check(rows > 0, "the sweep has no group-uniform scenario")


@dataclass
class Request:
    """One warm request: its kind, call (taking ``mode``), scenario count and inputs."""

    kind: str
    call: Callable[..., Any]
    count: int
    scenarios: Any


class Client:
    """Draws the seeded request mix and sends each request, one at a time."""

    def __init__(self, run: Run, size: Size, state: Dict[str, Any]) -> None:
        self.run = run
        self.size = size
        self.state = state
        self.rng = np.random.default_rng(run.seed)
        self.telephony_pool = telephony_scenario_sweep(12 * size.request_scenarios)
        self.routing_pool = routing_scenario_sweep(
            6 * size.request_scenarios, state["routing_config"]
        )
        self.modes: List[Tuple[str, str]] = []
        #: kind -> (call, report, scenarios or plan) of its first request
        self.recorded: Dict[str, Tuple[Callable[..., Any], Any, Any]] = {}
        self.uniform_rows = 0

    def pool(self, count: int) -> List[Request]:
        """``count`` requests of the mix, in seeded order and with seeded inputs.

        Each kind's share of the pool is fixed, so the seed does not change
        how much work the pool is; a seed gives the same pool in every round.
        """
        kinds = [
            kind for kind, share in REQUEST_MIX for _ in range(round(share * count))
        ]
        kinds += ["sparse"] * (count - len(kinds))
        order = self.rng.permutation(len(kinds))
        return [self.build(kinds[int(i)]) for i in order]

    def _pick(self, pool):
        count = self.size.request_scenarios
        return [pool[int(i)] for i in self.rng.choice(len(pool), count, replace=False)]

    def build(self, kind: str) -> Request:
        state = self.state
        session = state["session"]
        count = self.size.request_scenarios
        if kind == "sparse":
            scenarios = self._pick(self.telephony_pool)
            return Request(kind, lambda mode="auto": session.evaluate_many(
                scenarios, evaluator=state["evaluator"], mode=mode), count, scenarios)
        if kind == "dense":
            scenarios = []
            for i in range(count):
                chosen = self.rng.choice(len(TELEPHONY_VARIABLES), 6, replace=False)
                factor = round(float(self.rng.uniform(0.8, 1.2)), 3)
                names = [TELEPHONY_VARIABLES[int(j)] for j in chosen]
                scenarios.append(Scenario(f"dense#{i} x{factor:g}").scale(names, factor))
            return Request(kind, lambda mode="auto": session.evaluate_many(
                scenarios, evaluator=state["evaluator"], mode=mode), count, scenarios)
        if kind == "factored":
            base = Scenario("all plans x0.95").scale(list(PLAN_VARIABLE_NAMES), 0.95)
            variants = []
            for i in range(self.size.plan_variants):
                month = MONTH_VARIABLES[int(self.rng.integers(len(MONTH_VARIABLES)))]
                factor = round(float(self.rng.uniform(0.8, 1.2)), 3)
                variants.append(Scenario(f"#{i} {month} x{factor:g}").scale([month], factor))
            plan = compose(base, variants)
            return Request(kind, lambda mode="auto": session.evaluate_plan(
                plan, evaluator=state["evaluator"], mode=mode), len(plan), plan)
        if kind == "tropical":
            scenarios = self._pick(self.routing_pool)
            tropical = state["tropical"]
            return Request(kind, lambda mode="auto": tropical.evaluate_many(
                scenarios, evaluator=state["evaluator"], mode=mode), count, scenarios)
        scenarios = self._pick(self.telephony_pool)
        base = {
            name: round(float(self.rng.uniform(0.9, 1.1)), 4)
            for name in TELEPHONY_VARIABLES
        }
        optimization = state["optimization"]
        provenance = state["provenance"]
        return Request(kind, lambda mode="auto": state["evaluator"].evaluate(
            provenance, scenarios, base_valuation=base,
            compressed=optimization.compressed, abstraction=optimization.abstraction,
            mode=mode), count, scenarios)

    def send(self, request: Request, slot: Optional[int] = None) -> None:
        """Send one request; one in a pool ``slot`` is a latency sample.

        Records its mode, error and checks, and keeps each kind's first.
        """
        kind = request.kind
        report, _latency = self.run.request(kind, request.call, slot, request.count)
        if report is None:
            return
        self.modes.append((kind, report.mode))
        self.recorded.setdefault(kind, (request.call, report, request.scenarios))
        if kind != "tropical":
            self.run.add_error(kind, report)
        if kind == "sparse":
            optimization = self.state["optimization"]
            self.uniform_rows += uniform_check(
                self.run, report, request.scenarios, optimization.abstraction,
                TELEPHONY_VARIABLES,
            )


def section4_layers(run: Run, state: Dict[str, Any]) -> Dict[str, float]:
    rec = run.recorder
    size = size_of(run)
    start = run.body[0]
    client = state["client"]
    metrics = provenance_probes(
        run, state["provenance"], state["optimization"], state["store"]
    )
    with rec.span("core.kernel_sweep", cached=True) as span:
        state["compressor"].sweep(
            state["provenance"], state["forest"], [b for _l, b in size.bounds]
        )
    metrics["core.kernel_sweep_cached_s"] = span_seconds(span)
    for label, _bound in size.bounds:
        metrics[f"core.optimize_s.{label}"] = rec.total("core.optimize", start, bound=label)
        metrics[f"core.compressed_monomials.{label}"] = state["optimized"][label].achieved_size
    _call, _report, plan = client.recorded["factored"]
    _call, sparse_report, scenarios = client.recorded["sparse"]
    lower_s = timed_median(lambda: tuple(plan.lower()), 3)

    # One sparse request sharded over two worker processes on the
    # store-backed evaluator (the pool is shut down right after).
    evaluator = state["evaluator"]
    with rec.span("batch.sharded", processes=2) as shard_span:
        sharded = state["session"].evaluate_many(scenarios, evaluator=evaluator, processes=2)
    evaluator.close()
    run.check(
        same_results(sparse_report, sharded, exact=False),
        "sparse request: processes=2 != in-process",
    )
    metrics.update(
        {
            "workloads.generate_s": rec.total("workloads.generate", start, again=None),
            "provenance.fingerprint_s": rec.total("provenance.fingerprint", start),
            "provenance.compile_s.full": rec.total(
                "provenance.compile", start, which="full", probe=None
            ),
            "provenance.store_write_s": rec.total("provenance.store_write", start),
            "core.kernel_sweep_s": rec.total("core.kernel_sweep", start, cached=None),
            "engine.plan_lower_ms": 1e3 * lower_s,
            "batch.report_ms": 1e3 * timed_median(sparse_report.summary, 3),
            "batch.sharded_ms.p2": 1e3 * span_seconds(shard_span),
        }
    )
    metrics.update(request_layers(run, client.modes))
    return metrics


# ---------------------------------------------------------------------------
# sql_capture
# ---------------------------------------------------------------------------

TPCH_QUERIES = (
    q1_pricing_summary,
    q3_segment_revenue,
    q5_local_supplier_volume,
    q6_forecast_revenue,
    q10_returned_items,
)


def scanned_rows(query, catalog: Catalog) -> int:
    """Rows of the base tables a query scans (the executor's input)."""
    stack = [getattr(query, "plan", query)]
    rows = 0
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            rows += len(catalog.get(node.table))
            continue
        for entry in fields(node):
            value = getattr(node, entry.name)
            if isinstance(value, LogicalPlan):
                stack.append(value)
    return rows


@contextmanager
def traced_db_calls(run: Run):
    """Span the executor calls the TPC-H query builders make internally."""
    import repro.workloads.tpch_queries as queries

    rec = run.recorder
    original_execute = queries.execute
    original_extract = queries.to_provenance_set

    def traced_execute(query, catalog, annotations=None):
        with rec.span("db.execute", rows=scanned_rows(query, catalog)):
            return original_execute(query, catalog, annotations)

    def traced_extract(relation, key_columns, value_column):
        with rec.span("db.to_provenance"):
            return original_extract(relation, key_columns, value_column)

    queries.execute = traced_execute
    queries.to_provenance_set = traced_extract
    try:
        yield
    finally:
        queries.execute = original_execute
        queries.to_provenance_set = original_extract


def _price_namer(row) -> Tuple[str, str]:
    return (PLAN_VARIABLES[str(row["Plan"])], f"m{int(row['Mo'])}")


def variable_sweep(provenance) -> List[Scenario]:
    """One price what-if per variable of a provenance, factors cycling."""
    factors = (0.8, 0.9, 1.1, 1.2)
    return [
        Scenario(f"#{i} {name} x{factors[i % 4]:g}").scale([name], factors[i % 4])
        for i, name in enumerate(sorted(provenance.variables()))
    ]


@dataclass
class Captured:
    """One provenance sql_capture captured, compressed and answers sweeps on."""

    name: str
    provenance: Any
    trees: Any
    semiring: str
    scenarios: List[Scenario] = field(default_factory=list)
    result: Any = None
    report: Any = None

    def sweep(self, state: Dict[str, Any], scenarios=None) -> Callable[..., Any]:
        """A sweep of this provenance, through the shared evaluator of ``state``."""
        scenarios = self.scenarios if scenarios is None else scenarios

        def call(mode="auto"):
            return state["evaluator"].evaluate(
                self.provenance, scenarios, compressed=self.result.compressed,
                abstraction=self.result.abstraction, semiring=self.semiring, mode=mode,
            )

        return call


def sql_capture(run: Run) -> Dict[str, Any]:
    size = size_of(run)
    rec = run.recorder
    with rec.span("workloads.generate", what="tpch"):
        tpch = generate_tpch_catalog(TpchConfig(scale=size.tpch_scale, seed=run.seed))
    with rec.span("workloads.generate", what="calls"):
        calls = generate_telephony_catalog(
            TelephonyConfig(
                num_customers=size.call_customers, num_zips=size.call_zips, seed=run.seed
            )
        )
    start = now()
    with traced_db_calls(run) if run.traced else nullcontext():
        state = _sql_setup(run, size, tpch, calls)
    captured = state["captured"]

    # The paper's query answers first, cold; every other sweep once more
    # warms the evaluator up; then the pool, once.  The 14 compiled sets
    # overflow the evaluator's cache, so each provenance's first pool
    # request compiles again.
    captured[0].report = first_answer(run, captured[0].sweep(state))
    for item in captured[1:]:
        item.report, _latency = run.request(item.name, item.sweep(state))
    groups = _sql_pool(run, size, tpch, state)
    if run.fixed:
        run.settle()
        loop_start = now()
        for slot, (name, call, count) in enumerate(r for g in groups for r in g):
            run.request(name, call, slot, count)
        run.loop = (loop_start, now())
        run.end_body(start)
    else:
        # The pool takes a fraction of a second, so it is sent several
        # times, each pass followed by every compression again on a fresh
        # compressor (so that its trajectory cache is cold); after each
        # provenance's requests the paper's query is asked again of a cold
        # evaluator.  The shared evaluator keeps its compiled sets.
        for _ in range(size.sql_passes):
            run.settle()
            slot = 0
            for group in groups:
                for name, call, count in group:
                    run.request(name, call, slot, count)
                    slot += 1
                cold = {"evaluator": fresh_evaluator(state["compressor"])}
                first_answer(run, captured[0].sweep(cold))
            compressor = Compressor()
            run.settle()
            for item in captured:
                started = now()
                compressor.compress(
                    item.provenance, item.trees, max(1, item.provenance.size() // 2),
                    allow_infeasible=True,
                )
                run.sample("compress", item.name, now() - started)
        run.end_body(start)

    with rec.span("bench.check"):
        for item in captured:
            if item.semiring == "real" and item.report is not None:
                run.add_error("sweep", item.report)
            if item.name == "revenue" or item.semiring == "bool":
                run.check(
                    same_results(item.report, item.sweep(state)(mode="dense"),
                                 exact=item.semiring != "real"),
                    f"{item.name} sweep: dense != auto",
                )
            if item.semiring != "real":
                continue
            identity = Valuation.identity_for(item.provenance)
            full = item.provenance.evaluate(identity)
            meta = item.result.compressed.evaluate(
                identity_with_defaults(item.provenance, item.result.abstraction)
            )
            worst = max(
                abs(meta[key] - value) / max(abs(value), 1e-9)
                for key, value in full.items()
            )
            run.check(worst < 1e-6, f"{item.name}: compression lossy at identity ({worst:.3g})")
    return state


def _sql_setup(run: Run, size: Size, tpch: Catalog, calls: Catalog) -> Dict[str, Any]:
    rec = run.recorder
    start = now()
    with rec.span("db.capture", query="revenue") as span:
        with rec.span("db.instrument"):
            policy = CellParameterizationPolicy(column="Price", namer=_price_namer)
            instrumented = Catalog()
            instrumented.add(calls.get("Cust"))
            instrumented.add(calls.get("Calls"))
            instrumented.add(policy.apply(calls.get("Plans")))
        with rec.span("db.parse"):
            query = parse_sql(revenue_query_sql(), instrumented)
        with rec.span("db.execute", rows=scanned_rows(query, instrumented)):
            relation = execute(query, instrumented)
        with rec.span("db.to_provenance"):
            revenue = to_provenance_set(relation, ["Zip"], "revenue")
    run.sample("capture", "revenue", span_seconds(span))
    captured = [
        Captured("revenue", revenue, AbstractionForest([plans_tree(), months_tree()]), "real")
    ]
    for builder in TPCH_QUERIES:
        with rec.span("db.capture", query=builder.__name__) as span:
            item = builder(tpch)
        run.sample("capture", item.name, span_seconds(span))
        captured.append(Captured(item.name, item.provenance, item.trees, "real"))
    with rec.span("db.capture", query="deletion") as span:
        item = tpch_deletion_provenance(tpch)
    run.sample("capture", item.name, span_seconds(span))
    captured.append(Captured(item.name, item.provenance, item.trees, "bool"))

    compressor = Compressor()
    run.settle()
    for item in captured:
        with rec.span("core.kernel_sweep", query=item.name) as span:
            item.result = compressor.compress(
                item.provenance, item.trees, max(1, item.provenance.size() // 2),
                allow_infeasible=True,
            )
        run.sample("compress", item.name, span_seconds(span))
        if item.semiring == "bool":
            item.scenarios = tpch_deletion_scenarios(tpch, size.request_scenarios)
        else:
            item.scenarios = variable_sweep(item.provenance)
    run.setups.append(now() - start)
    return {
        "compressor": compressor,
        "evaluator": BatchEvaluator(compressor=compressor),
        "captured": captured,
    }


def _sql_pool(run: Run, size: Size, tpch: Catalog, state: Dict[str, Any]):
    """``sql_variants`` seeded sweeps per provenance, grouped by provenance.

    Every sweep has ``sql_scenarios`` scenarios, so a seed that gives a
    query more or fewer variables does not change how much a request asks.
    """
    rng = np.random.default_rng(run.seed)
    count = size.sql_scenarios
    deletions = tpch_deletion_scenarios(tpch, 4 * count)
    groups = []
    for item in state["captured"]:
        names = sorted(item.provenance.variables())
        group = []
        for _ in range(size.sql_variants):
            if item.semiring == "bool":
                chosen = rng.choice(len(deletions), count, replace=False)
                scenarios = [deletions[int(i)] for i in chosen]
            else:
                scenarios = [
                    Scenario(f"#{i} {names[j]} x{f:.3f}").scale([names[j]], round(f, 3))
                    for i, (j, f) in enumerate(zip(
                        rng.integers(len(names), size=count), rng.uniform(0.8, 1.2, count)
                    ))
                ]
            group.append((item.name, item.sweep(state, scenarios), count))
        groups.append(group)
    return groups


def sql_layers(run: Run, state: Dict[str, Any]) -> Dict[str, float]:
    rec = run.recorder
    start = run.body[0]
    captured = state["captured"]
    revenue = captured[0]
    metrics = provenance_probes(run, revenue.provenance, revenue.result, None)
    with rec.span("core.kernel_sweep", cached=True) as span:
        for item in captured:
            state["compressor"].compress(
                item.provenance, item.trees, max(1, item.provenance.size() // 2),
                allow_infeasible=True,
            )
    execute_s = rec.total("db.execute", start)
    rows = sum(s["attributes"]["rows"] for s in rec.select("db.execute", start))
    metrics.update(
        {
            "workloads.generate_s": rec.total("workloads.generate"),
            "db.parse_ms": 1e3 * rec.total("db.parse", start),
            "db.execute_s": execute_s,
            "db.to_provenance_s": rec.total("db.to_provenance", start),
            "db.rows_in": rows,
            "db.us_per_row": 1e6 * execute_s / rows,
            "core.kernel_sweep_s": rec.total("core.kernel_sweep", start, cached=None),
            "core.kernel_sweep_cached_s": span_seconds(span),
            "batch.report_ms": 1e3 * timed_median(revenue.report.summary, 3),
        }
    )
    return metrics


#: name -> (body, per-layer probes); each body returns the state its probes use.
JOBS: Dict[str, Tuple[Callable[[Run], Dict[str, Any]], Callable[..., Dict[str, float]]]] = {
    "section4_pipeline": (section4_pipeline, section4_layers),
    "sql_capture": (sql_capture, sql_layers),
}
