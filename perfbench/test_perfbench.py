"""The benchmark's own tests: tiny-size runs of every workload.

They check that every declared metric is reported with its unit, that the
count metrics repeat exactly for a seed, that ``BENCHMARK.json`` is the one
``spec.py`` renders, and that the command fails cleanly without sources.
Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Count metrics that must read the same on two traced runs of one seed.
REPEATING_COUNTS = (
    "core.compressed_monomials.",
    "core.meta_variables",
    "batch.mode.",
    "batch.compile_cache.hits",
    "batch.compile_cache.misses",
    "compress.trajectory_cache.",
    "kernel.steps",
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *arguments],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def untraced() -> dict:
    return result_of(bench("--tiny", "--seconds", "0", "--seed", "5"))


@pytest.fixture(scope="module")
def traced_twice() -> tuple:
    return tuple(
        result_of(bench("--tiny", "--seconds", "0", "--seed", "5", "--trace", "1"))
        for _ in range(2)
    )


def test_benchmark_json_is_rendered_from_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.render()


def test_spec_obeys_the_benchmark_contract():
    document = spec.benchmark_json()
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(document["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert len(document["per_layer"]) <= 128
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_per_layer_metric_says_what_it_moves():
    for name, _unit, _better in spec.PER_LAYER:
        assert spec.moves(name)


def test_every_end_to_end_metric_is_reported_with_its_unit(untraced):
    for workload in spec.WORKLOAD_NAMES:
        for name, unit, _better, _bound in spec.END_TO_END:
            metric = untraced["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
            assert metric["value"] > 0, (workload, name)


def test_every_per_layer_metric_is_reported_with_its_unit(traced_twice):
    for workload in spec.WORKLOAD_NAMES:
        for name, unit, _better in spec.PER_LAYER:
            assert traced_twice[0]["metrics"][f"{workload}.{name}"]["unit"] == unit


def test_count_metrics_repeat_for_a_seed(traced_twice):
    first, second = (result["metrics"] for result in traced_twice)
    counts = [
        name for name in first
        if name.split(".", 1)[1].startswith(REPEATING_COUNTS)
    ]
    assert len(counts) > 2 * 20
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_layers_a_workload_bypasses_read_zero(traced_twice):
    metrics = traced_twice[0]["metrics"]
    assert metrics["section4_pipeline.obs.share.db"]["value"] == 0
    assert metrics["sql_capture.db.rows_in"]["value"] > 0
    assert metrics["sql_capture.batch.compile_cache.misses"]["value"] >= 14
    for mode in ("dense", "sparse", "factored"):
        assert metrics[f"section4_pipeline.batch.mode.{mode}"]["value"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "sql_capture", "--seed", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
