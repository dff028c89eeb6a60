"""What the COBRA benchmark measures, in one place.

Every workload, end-to-end metric and per-layer metric the benchmark reports
is declared here.  ``BENCHMARK.json`` at the repository root is rendered from
these tables (``python3 perfbench/spec.py`` rewrites it, and the benchmark's
tests check that the committed file matches).  ``BENCHMARK.json`` has a fixed
schema, so the facts it cannot hold live here instead: what each per-layer
metric should move and on which workload (``MOVES``), how each end-to-end
metric is defined on each workload (``E2E_DEFINITIONS``), and the measured
spread behind each bound (``SPREAD_NOTES``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Seconds one run measures, in rounds of ``ROUND_SECONDS``.
RUN_SECONDS = 45

#: Seconds one round (a fresh worker process: set-up, first answer, the
#: request pool once) takes on a 2-core host at its usual speed.  A run of
#: ``--seconds S`` makes ``round(S / ROUND_SECONDS)`` rounds, at least two,
#: so the work per run does not depend on how fast the host happens to be.
ROUND_SECONDS = {"section4_pipeline": 27.5, "sql_capture": 13.5}

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "section4_pipeline",
        "Paper instance (139,260 monomials) set up, then a closed loop of "
        "warm what-ifs: loads provenance, core (exact DP, forest kernel), "
        "engine and batch; bypasses db.",
    ),
    (
        "sql_capture",
        "Captures provenance through the db executor (5 TPC-H queries, a "
        "deletion query, the paper's SQL on 12k call rows): loads db; core "
        "and batch cost little; overflows the compile cache.",
    ),
)

WORKLOAD_NAMES = tuple(name for name, _why in WORKLOADS)

#: (name, unit, better, bound) of every end-to-end metric.  Every workload
#: reports every one of them (see ``E2E_DEFINITIONS`` for what each means on
#: each workload).  Bounds are shares of the parent's median.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("capture_s", "s", "lower", 0.25),
    ("compress_s", "s", "lower", 0.25),
    ("first_answer_ms", "ms", "lower", 0.25),
    ("whatif_p50_ms", "ms", "lower", 0.25),
    ("whatif_p95_ms", "ms", "lower", 0.25),
    ("whatif_sps", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("abstraction_error", "ratio", "lower", 0.25),
)

E2E_DEFINITIONS: Dict[str, str] = {
    "setup_s": "median over the run's rounds of the time from raw input "
    "until what-ifs can be answered (section4_pipeline: both generators, "
    "fingerprint, compile, DP at two bounds, the forest-kernel sweep, "
    "store write and open, the tropical session; sql_capture: capture and "
    "compression of its seven provenances, which compile lazily)",
    "capture_s": "provenance capture: the sum over capture steps of each "
    "step's best time in the run (section4_pipeline: the paper instance's "
    "generator, timed in set-up and after each quarter of the pool; "
    "sql_capture: each of its seven queries through the db executor)",
    "compress_s": "median over abstractions of each one's best computing "
    "time in the run (section4_pipeline: DP at 94,600 and 38,600 and the "
    "forest kernel's share of its two-bound sweep, in set-up; "
    "sql_capture: each of its seven provenances compressed to half, in "
    "set-up and again on a fresh compressor after each pass of the pool)",
    "first_answer_ms": "best over the run of the first what-if after "
    "set-up, asked of a cold evaluator with the module caches dropped "
    "(section4_pipeline: the 200-scenario sweep, after set-up and after each "
    "quarter of the pool; sql_capture: the paper's revenue query, after set-up "
    "and after each provenance's requests in every pass of the pool); only "
    "a process's first ask also pays one-time imports, about 10 ms",
    "whatif_p50_ms": "median over the workload's pool of warm requests of "
    "each request's best latency in the run (section4_pipeline: 100 "
    "requests of the mix 55% sparse, 15% dense, 10% factored, 10% "
    "tropical, 10% rebase in seeded order, after one of each kind, sent "
    "once per round; sql_capture: 8 sweeps of 16 scenarios per provenance, "
    "one provenance after another, sent four times per round)",
    "whatif_p95_ms": "95th percentile (linear) of the same best latencies",
    "whatif_sps": "scenarios the pool asks divided by the sum of the same "
    "best latencies",
    "peak_rss_mb": "peak resident memory of the largest round's process",
    "abstraction_error": "mean over request kinds (or sweeps) of the mean "
    "relative error of compressed against full results over the "
    "real-semiring answers, so a seed fixes it",
}

#: (name, unit, better) of every per-layer metric.  Reported by the traced
#: run (``--trace 1``) of every workload; a layer a workload does not touch
#: reads 0.
REQUEST_KINDS = ("sparse", "dense", "factored", "tropical", "rebase")
MODES = ("dense", "sparse", "factored")
PROGRAM_SPANS = (
    "batch.compile",
    "batch.lower",
    "batch.factor",
    "batch.kernel.dense",
    "batch.kernel.sparse",
    "batch.reduce",
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.generate_s", "s", "lower"),
    ("db.parse_ms", "ms", "lower"),
    ("db.execute_s", "s", "lower"),
    ("db.to_provenance_s", "s", "lower"),
    ("db.rows_in", "count", "lower"),
    ("db.us_per_row", "us", "lower"),
    ("provenance.fingerprint_s", "s", "lower"),
    ("provenance.compile_s.full", "s", "lower"),
    ("provenance.compile_s.compressed", "s", "lower"),
    ("provenance.store_write_s", "s", "lower"),
    ("provenance.store_open_ms", "ms", "lower"),
    ("provenance.store_bytes_per_monomial", "B", "lower"),
    ("provenance.eval_full_ms", "ms", "lower"),
    ("provenance.eval_compressed_ms", "ms", "lower"),
    ("provenance.assign_speedup", "x", "higher"),
    ("core.optimize_s.b94600", "s", "lower"),
    ("core.optimize_s.b38600", "s", "lower"),
    ("core.load_model_s", "s", "lower"),
    ("core.kernel_sweep_s", "s", "lower"),
    ("core.kernel_sweep_cached_s", "s", "lower"),
    ("core.apply_abstraction_s", "s", "lower"),
    ("core.compressed_monomials.b94600", "count", "lower"),
    ("core.compressed_monomials.b38600", "count", "lower"),
    ("core.meta_variables", "count", "higher"),
    ("kernel.steps", "count", "lower"),
    ("kernel.heap_pops", "count", "lower"),
    ("kernel.gain_updates", "count", "lower"),
    ("core.default_valuation_ms", "ms", "lower"),
    ("engine.plan_lower_ms", "ms", "lower"),
    *((f"engine.request_ms.{kind}", "ms", "lower") for kind in REQUEST_KINDS),
    *((f"{span}.self_s", "s", "lower") for span in PROGRAM_SPANS),
    *((f"batch.mode.{mode}", "count", "higher") for mode in MODES),
    *(
        (f"batch.mode.{mode}.{kind}", "count", "higher")
        for kind in REQUEST_KINDS
        for mode in MODES
    ),
    ("batch.touched_fraction", "ratio", "lower"),
    ("batch.compile_cache.hits", "count", "higher"),
    ("batch.compile_cache.misses", "count", "lower"),
    ("batch.compile_cache.hit_rate", "ratio", "higher"),
    ("compress.trajectory_cache.hits", "count", "higher"),
    ("compress.trajectory_cache.misses", "count", "lower"),
    ("batch.factored.shared_fraction", "ratio", "higher"),
    ("batch.report_ms", "ms", "lower"),
    ("batch.sharded_ms.p2", "ms", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.degradations", "count", "lower"),
    ("resilience.quarantines", "count", "lower"),
    ("obs.wall_s", "s", "lower"),
    ("obs.coverage", "ratio", "higher"),
    ("obs.unattributed_s", "s", "lower"),
    ("obs.tracing_overhead", "ratio", "lower"),
    ("obs.share.db", "ratio", "lower"),
    ("obs.share.provenance_core", "ratio", "lower"),
    ("obs.share.requests", "ratio", "higher"),
    ("obs.share.batch_in_requests", "ratio", "higher"),
)

#: Per-layer metric (or name prefix) -> what it should move, and where.
MOVES: Dict[str, str] = {
    "workloads.generate_s": "capture_s, setup_s on section4_pipeline",
    "db.": "capture_s, setup_s on sql_capture; nothing elsewhere",
    "db.rows_in": "capture_s on sql_capture (work done, not time)",
    "db.us_per_row": "capture_s on sql_capture",
    "provenance.fingerprint_s": "setup_s on section4_pipeline; "
    "first_answer_ms through the compile-cache key",
    "provenance.compile_s.": "setup_s, first_answer_ms on section4_pipeline",
    "provenance.store_": "setup_s on section4_pipeline",
    "provenance.eval_": "whatif_p50_ms on section4_pipeline",
    "provenance.assign_speedup": "whatif_p50_ms on section4_pipeline "
    "(the paper's 47% / 79% assignment speed-up)",
    "core.optimize_s.": "compress_s, setup_s on section4_pipeline",
    "core.load_model_s": "compress_s on section4_pipeline",
    "core.kernel_sweep": "compress_s on section4_pipeline",
    "core.apply_abstraction_s": "compress_s on section4_pipeline and "
    "sql_capture",
    "core.compressed_monomials.": "compress_s on section4_pipeline",
    "core.meta_variables": "compress_s on section4_pipeline",
    "kernel.": "compress_s on section4_pipeline",
    "core.default_valuation_ms": "whatif_p50_ms on section4_pipeline",
    "engine.plan_lower_ms": "whatif_p50_ms on factored requests "
    "(section4_pipeline)",
    "engine.request_ms.": "whatif_p50_ms, whatif_p95_ms, whatif_sps on "
    "section4_pipeline",
    "batch.compile.self_s": "whatif_p50_ms, whatif_p95_ms on section4_pipeline",
    "batch.lower.self_s": "whatif_p50_ms, whatif_p95_ms on section4_pipeline",
    "batch.factor.self_s": "whatif_p50_ms, whatif_p95_ms on section4_pipeline",
    "batch.kernel.": "whatif_p50_ms, whatif_p95_ms on section4_pipeline",
    "batch.reduce.self_s": "whatif_p50_ms, whatif_p95_ms on section4_pipeline",
    "batch.mode.": "whatif_p95_ms on section4_pipeline (which mode the "
    "automatic choice picked)",
    "batch.touched_fraction": "whatif_p95_ms on section4_pipeline",
    "batch.compile_cache.": "first_answer_ms; setup_s on sql_capture",
    "compress.trajectory_cache.": "compress_s on section4_pipeline",
    "batch.factored.shared_fraction": "whatif_sps on factored requests "
    "(section4_pipeline)",
    "batch.report_ms": "whatif_p50_ms on section4_pipeline",
    "batch.sharded_ms.p2": "whatif_sps on section4_pipeline, if sharding "
    "ever becomes the default",
    "resilience.": "error_rate (all expected to be 0)",
    "obs.": "every workload (trace quality, not speed)",
}

#: Spread measured when the bounds were set: inter-quartile range over ten
#: seeds (1-10) as a share of the median, section4_pipeline / sql_capture,
#: on a 2-core shared host.  That host's speed swings by a quarter to a
#: half over minutes: a fixed pure-Python and numpy loop timed for eight
#: minutes gave medians over 60-s windows that spread 0.2-0.29, and minima
#: over the same windows that spread about 0.09.  So every timing but
#: ``setup_s`` is a best time over the run (see ``harness.end_to_end``);
#: rescaling timings by such a reference loop run beside them was tried
#: and spread no less.  A second set (seeds 11-20) straddled a change of
#: host speed: section4_pipeline's set-ups went from 17.4 s to 10-11 s
#: after two runs, and sql_capture's capture ran about 55% slower than in
#: the first set.  Each entry gives the first set's spreads, then the
#: second set's.
#: No metric was dropped.  The whatif_serving workload was: its request mix
#: runs in section4_pipeline, so that two workloads can run long enough
#: within the contract's time for all runs.
SPREAD_NOTES: Dict[str, str] = {
    "setup_s": "0.090 / 0.073, then 0.277 / 0.135; median of 2 / 3 set-ups, "
    "each in a fresh process",
    "capture_s": "0.138 / 0.072, then 0.080 / 0.158; best of 10 generator "
    "runs / of 3 runs of each query",
    "compress_s": "0.103 / 0.048, then 0.258 / 0.260; best of 2 per DP bound "
    "and kernel sweep / of 15 per provenance",
    "first_answer_ms": "0.099 / 0.058, then 0.122 / 0.099; best of 10 / 87 "
    "cold asks",
    "whatif_p50_ms": "0.113 / 0.095, then 0.243 / 0.171; each request's best "
    "of 2 / 12 sends",
    "whatif_p95_ms": "0.148 / 0.052, then 0.180 / 0.180; over 100 / 56 "
    "requests, so 5 / 2 lie above it",
    "whatif_sps": "0.107 / 0.068, then 0.172 / 0.135",
    "peak_rss_mb": "0.004 / 0.012, then 0.002 / 0.001",
    "abstraction_error": "0.042 / 0.144, then 0.033 / 0.193; fixed by the "
    "seed, the spread is between inputs (sql_capture's small TPC-H "
    "provenances)",
}


def rounds(workload: str, seconds: float) -> int:
    """Rounds of one untraced run of ``workload`` lasting about ``seconds``."""
    return max(2, round(seconds / ROUND_SECONDS[workload]))


def moves(metric: str) -> str:
    """What ``metric`` should move: the longest matching ``MOVES`` entry."""
    matches = [key for key in MOVES if metric == key or metric.startswith(key)]
    if not matches:
        raise KeyError(f"no MOVES entry covers {metric!r}")
    return MOVES[max(matches, key=len)]


def benchmark_json() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``, in its fixed schema."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def render() -> str:
    """``BENCHMARK.json`` as committed: two-space JSON with a final newline."""
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render())
    print(f"wrote {ROOT / 'BENCHMARK.json'}")
