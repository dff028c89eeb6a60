"""Run one round of a benchmark workload in this (fresh) process.

``run.py`` starts one of these per round and per pass, so a round inherits
no module cache, import or peak memory from another one::

    python3 perfbench/worker.py --workload sql_capture --seed 3
        [--traced] [--fixed] [--tiny]

``--traced`` turns on the program's own span tracing, records the per-layer
breakdown and writes every span to ``.perfbench_out/`` once at the end.
``--fixed`` does the fixed work of a traced comparison (see ``harness.Run``),
so a traced and an untraced pass do the same work.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro`` from it."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {source}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {source}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--fixed", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    import harness
    import jobs
    import spec
    from repro.obs import MetricsRegistry, enable_tracing, get_registry

    if args.workload not in jobs.JOBS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    body, probes = jobs.JOBS[args.workload]
    recorder = harness.Recorder(enable_tracing() if args.traced else None)
    temp_root = ROOT / ".perfbench_tmp"
    temp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=temp_root)
    try:
        run = harness.Run(args.seed, args.tiny, args.fixed, recorder, workdir)
        before = get_registry().snapshot()
        state = body(run)
        counters = MetricsRegistry.diff(before, run.counters_at_end)["counters"]
        if args.traced:
            layers = {name: 0.0 for name, _unit, _better in spec.PER_LAYER}
            layers.update(harness.breakdown(run, recorder.program_roots, counters))
            layers.update(probes(run, state))
        result = run.samples()
        if args.traced:
            result["layers"] = layers
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            trace_file = out / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(recorder.to_dict()))
        evaluator = state.get("evaluator")
        if evaluator is not None:
            evaluator.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
