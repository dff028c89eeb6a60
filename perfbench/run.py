"""The COBRA benchmark: one command for every workload and metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny]

Each workload runs in rounds, each a fresh Python process
(``perfbench/worker.py``) with the seed as its only input: a round sets up,
answers its first what-if cold and sends the workload's pool of warm
requests.  With ``--trace 0`` the run is untraced and reports the
end-to-end metrics over as many rounds as fill ``--seconds`` at the rate
``spec.ROUND_SECONDS`` gives (at least two).  With ``--trace 1`` it runs
one round twice on a fixed amount of work, untraced and traced, and
reports the per-layer breakdown plus the tracing overhead.  Every metric
is printed by name with its unit; the last line of standard output is one
JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The command exits with
a non-zero code when a correctness check fails or a workload cannot run.
The metrics are declared in ``perfbench/spec.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spec  # noqa: E402

#: A run must end within 180 s; the children share this budget.
CHILD_BUDGET_S = 170.0

#: Workers run with one fixed string-hash seed.  Set and dict layouts, and
#: with them the optimiser's and capture's timings, otherwise change from
#: process to process by up to a fifth; ``--seed`` still varies the inputs.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class WorkloadFailed(Exception):
    """A workload process exited abnormally or produced no result."""


def run_child(workload: str, args: argparse.Namespace, deadline: float,
              *flags: str) -> dict:
    """Run one worker in a fresh process and return its samples."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        *flags,
    ] + ["--tiny"] * args.tiny
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkloadFailed(f"{workload}: timed out after {exc.timeout:.0f} s") from exc
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise WorkloadFailed(f"{workload}: worker exited with {completed.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, args: argparse.Namespace, deadline: float) -> dict:
    """One workload's metrics (end-to-end or per-layer) and check counts."""
    if args.trace:
        reference = run_child(workload, args, deadline, "--fixed")
        traced = run_child(workload, args, deadline, "--fixed", "--traced")
        workers = [reference, traced]
        metrics = dict(traced["layers"])
        metrics["obs.tracing_overhead"] = traced["wall_s"] / reference["wall_s"] - 1
        units = {name: unit for name, unit, _better in spec.PER_LAYER}
    else:
        workers = [
            run_child(workload, args, deadline)
            for _ in range(spec.rounds(workload, args.seconds))
        ]
        metrics = harness.end_to_end(workers)
        units = {name: unit for name, unit, _b, _bound in spec.END_TO_END}
    return {
        "metrics": metrics,
        "units": units,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "failures": [f for w in workers for f in w["failures"]],
        "workers": len(workers),
        "setup_samples": [round(s, 3) for w in workers for s in w["setups"]],
        "requests": [len(w["requests"]) for w in workers],
    }


def report(workload: str, result: dict) -> None:
    """Print a workload's metrics, one per line, with units."""
    print(f"== {workload}: {result['workers']} worker processes, "
          f"warm requests per round {result['requests']}, set-up samples (s): "
          f"{result['setup_samples']}")
    metrics = result["metrics"]
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {result['units'][name]}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':<40} {failed / attempted:>14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    if "obs.coverage" in metrics:
        print(f"  unattributed: {metrics['obs.unattributed_s']:.3f} s of "
              f"{metrics['obs.wall_s']:.3f} s (coverage {metrics['obs.coverage']:.1%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The COBRA benchmark.")
    parser.add_argument("--workload", default="all", choices=spec.WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = spec.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + CHILD_BUDGET_S * len(names)
    results = {}
    for name in names:
        try:
            results[name] = measure(name, args, deadline)
        except WorkloadFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        report(name, results[name])

    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, value in result["metrics"].items():
            if not math.isfinite(value):
                result["failed"] += 1
                result["failures"].append(f"{metric} is {value}")
                print(f"perfbench: {name}: {metric} is {value}", file=sys.stderr)
                value = 0.0
            metrics[prefix + metric] = {"value": value, "unit": result["units"][metric]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
