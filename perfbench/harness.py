"""The machinery the benchmark's workloads share.

* :class:`Recorder` — benchmark-side spans (name, start, end, parent) around
  each call into a layer of ``repro``.  Always on: a workload takes its
  end-to-end timings from the same spans.  In a traced run it also drains the
  spans the program emits itself through ``repro.obs`` after every top-level
  benchmark span, so both kinds stay in memory until the run ends.
* :class:`Run` — one round of a workload run (one worker process): its
  settings, correctness checks and set-up and request samples.
  :func:`end_to_end` reduces the samples of all the run's rounds to the
  end-to-end metrics.
* helpers for the correctness checks and for the per-layer breakdown.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import spec

now = time.perf_counter

#: Real-semiring results of the dense re-run must match the recorded
#: (sparse or factored) results to this share of the largest magnitude in
#: the result matrix: the paths add the same terms in different orders.
REAL_TOLERANCE = 1e-9

#: Group-uniform scenarios must be answered from the compressed provenance
#: within this relative error.
UNIFORM_TOLERANCE = 1e-9

#: Denominator floor of the relative-error metric (full results near 0).
ERROR_FLOOR = 1e-9


class Recorder:
    """Benchmark-side spans, kept in memory and written out once at the end."""

    def __init__(self, program_tracer: Any = None) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.program_roots: List[Any] = []
        self._stack: List[int] = []
        self.program_tracer = program_tracer

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Dict[str, Any]]:
        """Time the enclosed call as span ``name`` (its layer is the prefix)."""
        record = {
            "name": name,
            "start": now(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "attributes": attributes,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = now()
            self._stack.pop()
            if self.program_tracer is not None and not self._stack:
                self.program_roots.extend(self.program_tracer.drain())

    def select(
        self, name: str, since: float = 0.0, **attributes: Any
    ) -> List[Dict[str, Any]]:
        """Closed spans called ``name`` that started at or after ``since``."""
        return [
            span
            for span in self.spans
            if span["name"] == name
            and span["end"] is not None
            and span["start"] >= since
            and all(span["attributes"].get(k) == v for k, v in attributes.items())
        ]

    def total(self, name: str, since: float = 0.0, **attributes: Any) -> float:
        """Summed duration (s) of the spans :meth:`select` returns."""
        return sum(s["end"] - s["start"] for s in self.select(name, since, **attributes))

    def top_level(self, start: float, end: float) -> List[Dict[str, Any]]:
        """Spans without a parent that lie inside ``[start, end]``."""
        return [
            span
            for span in self.spans
            if span["parent"] is None
            and span["end"] is not None
            and span["start"] >= start
            and span["end"] <= end
        ]

    def to_dict(self) -> Dict[str, Any]:
        """Both span kinds, JSON-serialisable."""
        return {
            "benchmark_spans": [
                {**span, "attributes": {k: str(v) for k, v in span["attributes"].items()}}
                for span in self.spans
            ],
            "program_spans": [
                {"start": root.start_time, **root.to_dict()}
                for root in self.program_roots
            ],
        }


class Run:
    """One round of a workload run: settings, checks and samples.

    ``fixed`` asks for the same work in both passes of a traced comparison:
    the request pool once (section4_pipeline's a shorter one) and none of
    the extra samples an untraced round takes.
    """

    def __init__(
        self,
        seed: int,
        tiny: bool,
        fixed: bool,
        recorder: Recorder,
        workdir: str,
    ) -> None:
        self.seed = seed
        self.tiny = tiny
        self.fixed = fixed
        self.recorder = recorder
        self.workdir = workdir
        #: Whether the program's own spans are being recorded too.
        self.traced = recorder.program_tracer is not None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Duration (s) of each set-up, from raw input to answerable.
        self.setups: List[float] = []
        #: "capture" / "compress" -> step name -> its durations (s).
        self.steps: Dict[str, Dict[str, List[float]]] = {"capture": {}, "compress": {}}
        #: Latency (s) of each cold first answer after set-up.
        self.first_answers: List[float] = []
        #: (pool slot, kind, latency s, scenarios) of each warm request.
        self.requests: List[Tuple[int, str, float, int]] = []
        #: sweep or request kind -> [summed relative error, cells]
        self.errors: Dict[str, List[float]] = {}
        self.body = (0.0, 0.0)
        self.loop = (0.0, 0.0)
        self.counters_at_end: Dict[str, Any] = {}

    # -- correctness -----------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness check; a failed one counts in ``error_rate``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def request(self, kind: str, call, slot: Optional[int] = None, scenarios: int = 0):
        """Time one what-if request; exceptions and degraded reports fail it.

        A request given the ``slot`` it has in the workload's pool is a warm
        one: its latency is kept, with its ``scenarios`` count, as a sample
        of the ``whatif_*`` metrics.
        """
        self.attempted += 1
        with self.recorder.span("engine.request", kind=kind) as span:
            try:
                report = call()
            except Exception as exc:  # a failed request is counted, not fatal
                self.failed += 1
                self.failures.append(f"{kind} request raised {exc!r}")
                report = None
        latency = span["end"] - span["start"]
        if slot is not None:
            self.requests.append((slot, kind, latency, scenarios))
        if report is not None and report.degraded:
            self.failed += 1
            self.failures.append(f"{kind} request degraded: {report.degradations}")
        return report, latency

    def add_error(self, group: str, report) -> None:
        """Fold one real-semiring report into ``abstraction_error``.

        The metric is the mean over groups (a sweep, or a request kind) of
        each group's mean cell error, so how often a seed draws each kind
        of request does not move it.
        """
        total, cells = relative_error_sum(report)
        sums = self.errors.setdefault(group, [0.0, 0])
        sums[0] += total
        sums[1] += cells

    def sample(self, metric: str, step: str, seconds: float) -> None:
        """Keep one duration of a capture or compression ``step``."""
        self.steps[metric].setdefault(step, []).append(seconds)

    def settle(self) -> None:
        """Collect garbage before a timed phase, and freeze what survives.

        Where the previous phase left the collector's generation counters
        decides whether a full collection lands inside the next timed call,
        and how long it takes depends on every object the process holds;
        with inputs that vary by seed that moved a 20 ms first answer by a
        third.  Frozen objects are left out of later collections, so the
        collections a phase triggers, which stay in its time, scan only
        what it allocated.
        """
        with self.recorder.span("bench.settle"):
            gc.collect()
            gc.freeze()

    def samples(self) -> Dict[str, Any]:
        """Everything :func:`end_to_end` needs from this worker, as JSON."""
        return {
            "setups": self.setups,
            "steps": self.steps,
            "first_answers": self.first_answers,
            "requests": self.requests,
            "errors": self.errors,
            "peak_rss_mb": peak_rss_mb(),
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "wall_s": self.body[1] - self.body[0],
        }

    def end_body(self, start: float) -> None:
        """Close the timed body: its window and the program's counters at its end."""
        from repro.obs import get_registry

        self.body = (start, now())
        if self.loop == (0.0, 0.0):
            self.loop = self.body
        self.counters_at_end = get_registry().snapshot()


def end_to_end(rounds: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end metrics of a run from its rounds' samples.

    The host this runs on changes speed by a quarter or more over minutes,
    and that only ever adds time.  So every timing but ``setup_s`` keeps
    each step's or request's best time over all its samples, which are
    spread over the whole run; a median over the same samples spreads about
    twice as much from run to run.  ``setup_s`` is the median set-up.
    Every round sends the same pool of requests, so the warm metrics are
    taken over each request's best latency.  The abstraction error is
    fixed by the seed, so the last round's stands.
    """
    setups = [setup for r in rounds for setup in r["setups"]]
    first = [latency for r in rounds for latency in r["first_answers"]]
    slots = best_requests(rounds)
    latencies = [latency for _kind, latency, _n in slots]
    scenarios = [n for _kind, _latency, n in slots]
    errors = rounds[-1]["errors"]
    return {
        "setup_s": median(setups),
        "capture_s": sum(best_steps(rounds, "capture").values()),
        "compress_s": median(best_steps(rounds, "compress").values()),
        "first_answer_ms": 1e3 * min(first),
        "whatif_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "whatif_p95_ms": 1e3 * float(np.percentile(latencies, 95)),
        "whatif_sps": sum(scenarios) / sum(latencies),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        "abstraction_error": float(
            np.mean([total / cells for total, cells in errors.values()])
        ),
    }


def best_steps(rounds: Sequence[Dict[str, Any]], metric: str) -> Dict[str, float]:
    """Each capture or compression step's best duration over the rounds."""
    best: Dict[str, float] = {}
    for r in rounds:
        for step, seconds in r["steps"][metric].items():
            best[step] = min(seconds + [best.get(step, float("inf"))])
    return best


def best_requests(rounds: Sequence[Dict[str, Any]]) -> List[Tuple[str, float, int]]:
    """(kind, best latency, scenarios) of each slot of the request pool.

    The best is over every time any round sent the slot's request.
    """
    best: Dict[int, Tuple[str, float, int]] = {}
    for r in rounds:
        for slot, kind, latency, scenarios in r["requests"]:
            previous = best.setdefault(slot, (kind, latency, scenarios))
            if previous[0] != kind:
                raise ValueError(f"rounds sent different requests in slot {slot}")
            best[slot] = (kind, min(latency, previous[1]), scenarios)
    return [best[slot] for slot in sorted(best)]


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def relative_error_sum(report) -> Tuple[float, int]:
    """Sum and count of per-cell relative errors, compressed vs full."""
    if report is None or report.compressed_results is None:
        return 0.0, 0
    full = np.asarray(report.full_results, dtype=np.float64)
    compressed = np.asarray(report.compressed_results, dtype=np.float64)
    relative = np.abs(compressed - full) / np.maximum(np.abs(full), ERROR_FLOOR)
    return float(relative.sum()), int(relative.size)


def uniform_rows(scenarios: Sequence[Any], abstraction: Any, universe: Sequence[str]) -> List[int]:
    """Rows whose every operation touches each merged group wholly or not at all.

    From a valuation that is equal within every group (the identity), such a
    scenario keeps the members of each meta-variable equal, so the compressed
    provenance must answer it exactly.
    """
    groups = [
        set(members)
        for members in abstraction.grouped_variables().values()
        if len(members) > 1
    ]
    names = list(universe)
    rows = []
    for row, scenario in enumerate(scenarios):
        selections = [set(sel) for _k, sel, _a in scenario.resolved_operations(names)]
        if all(not (sel & group) or group <= sel for sel in selections for group in groups):
            rows.append(row)
    return rows


def max_relative_error(report, rows: Sequence[int]) -> float:
    """Largest compressed-vs-full relative error over ``rows`` of a report."""
    if not rows:
        return 0.0
    full = np.asarray(report.full_results, dtype=np.float64)[list(rows)]
    compressed = np.asarray(report.compressed_results, dtype=np.float64)[list(rows)]
    return float(
        (np.abs(compressed - full) / np.maximum(np.abs(full), ERROR_FLOOR)).max()
    )


def same_results(recorded, rerun, exact: bool) -> bool:
    """Whether a dense re-run reproduces a recorded report.

    Tropical and bool results must be equal bit for bit; real results within
    ``REAL_TOLERANCE`` of the largest magnitude of the matrix.
    """
    pairs = [(recorded.full_results, rerun.full_results)]
    if recorded.compressed_results is not None:
        pairs.append((recorded.compressed_results, rerun.compressed_results))
    for left, right in pairs:
        left = np.asarray(left, dtype=np.float64)
        right = np.asarray(right, dtype=np.float64)
        if left.shape != right.shape:
            return False
        if exact:
            if not np.array_equal(left, right):
                return False
        else:
            scale = max(1.0, float(np.abs(left).max(initial=0.0)))
            if float(np.abs(left - right).max(initial=0.0)) > REAL_TOLERANCE * scale:
                return False
    return True


def timed_median(call, repeats: int) -> float:
    """Median wall time (s) of ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        start = now()
        call()
        samples.append(now() - start)
    return median(samples)


# -- per-layer breakdown of a traced run -------------------------------------


def program_spans(roots: Iterable[Any]) -> Iterator[Any]:
    """Every span the program emitted, depth first."""
    for root in roots:
        yield from root.walk()


def self_time(span: Any) -> float:
    """A span's duration minus what its children cover."""
    return span.duration - sum(child.duration for child in span.children)


def outermost(roots: Iterable[Any], prefix: str) -> Iterator[Any]:
    """The highest spans whose name starts with ``prefix`` (not their children)."""
    stack = list(roots)
    while stack:
        span = stack.pop()
        if span.name.startswith(prefix):
            yield span
        else:
            stack.extend(span.children)


def within(span: Any, windows: Sequence[Tuple[float, float]]) -> bool:
    """Whether a program span started inside one of ``windows``."""
    return any(start <= span.start_time <= end for start, end in windows)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


#: Program counters reported as they are.
COUNTERS = (
    "batch.compile_cache.hits",
    "batch.compile_cache.misses",
    "compress.trajectory_cache.hits",
    "compress.trajectory_cache.misses",
    "kernel.steps",
    "kernel.heap_pops",
    "kernel.gain_updates",
    "resilience.retries",
    "resilience.degradations",
    "resilience.quarantines",
)


def breakdown(run: Run, program_roots: Sequence[Any], counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics shared by every workload, from spans and counters."""
    recorder = run.recorder
    start, end = run.body
    wall = end - start
    top = recorder.top_level(start, end)
    covered = sum(s["end"] - s["start"] for s in top)
    by_layer: Dict[str, float] = {}
    for span in top:
        layer = layer_of(span["name"])
        by_layer[layer] = by_layer.get(layer, 0.0) + span["end"] - span["start"]

    requests = recorder.select("engine.request", since=start)
    windows = [(s["start"], s["end"]) for s in requests]
    request_time = sum(e - s for s, e in windows)
    body_roots = [r for r in program_roots if start <= r.start_time <= end]
    batch_time = sum(
        span.duration for span in outermost(body_roots, "batch.") if within(span, windows)
    )
    loop_start, loop_end = run.loop
    loop_requests = sum(
        s["end"] - s["start"] for s in requests if loop_start <= s["start"] <= loop_end
    )

    metrics: Dict[str, float] = {
        "obs.wall_s": wall,
        "obs.coverage": covered / wall,
        "obs.unattributed_s": wall - covered,
        "obs.share.db": by_layer.get("db", 0.0) / wall,
        "obs.share.provenance_core": (
            by_layer.get("provenance", 0.0) + by_layer.get("core", 0.0)
        ) / wall,
        "obs.share.requests": loop_requests / (loop_end - loop_start),
        "obs.share.batch_in_requests": batch_time / request_time if request_time else 0.0,
    }

    spans = list(program_spans(body_roots))
    for name in spec.PROGRAM_SPANS:
        metrics[f"{name}.self_s"] = sum(self_time(s) for s in spans if s.name == name)
    touched = [
        s.attributes["touched_fraction"]
        for s in spans
        if s.name == "batch.evaluate" and "touched_fraction" in s.attributes
    ]
    metrics["batch.touched_fraction"] = float(np.mean(touched)) if touched else 0.0

    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    for mode in spec.MODES:
        metrics[f"batch.mode.{mode}"] = counters.get(f"batch.mode.{mode}", 0)
    hits = counters.get("batch.compile_cache.hits", 0)
    misses = counters.get("batch.compile_cache.misses", 0)
    prefix = counters.get("batch.factored.prefix_cells", 0)
    residual = counters.get("batch.factored.residual_cells", 0)
    metrics["batch.compile_cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["batch.factored.shared_fraction"] = (
        prefix / (prefix + residual) if prefix + residual else 0.0
    )
    return metrics


def request_layers(run: Run, modes: Sequence[Tuple[str, str]]) -> Dict[str, float]:
    """Per-kind p50 of the timed requests, and the mode each kind took."""
    metrics: Dict[str, float] = {}
    for kind in spec.REQUEST_KINDS:
        samples = [lat for _slot, k, lat, _n in run.requests if k == kind]
        metrics[f"engine.request_ms.{kind}"] = (
            1e3 * float(np.percentile(samples, 50)) if samples else 0.0
        )
        for mode in spec.MODES:
            metrics[f"batch.mode.{mode}.{kind}"] = sum(
                1 for k, m in modes if k == kind and m == mode
            )
    return metrics
