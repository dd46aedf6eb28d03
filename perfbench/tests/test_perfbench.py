"""Self-test of the benchmark (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs at a tiny size; the checks are on what the benchmark
prints, not on how fast anything is.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from catalog import BENCHMARKED, END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--scale", "0.05", "--seconds", "1"]


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--trace", str(trace),
         *TINY, *extra],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = result(run(workload, trace))
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {entry["name"]: entry["unit"] for entry in spec}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_flipped_verdict_counts_as_failed():
    out = result(run("wire-small-groups", 0, "--flip-verdict"))
    assert out["correct"] is False
    assert out["failed"] >= 1


def test_catalog_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(BENCHMARKED)
    assert {e["name"]: (e["unit"], e["better"], e["bound"])
            for e in SPEC["end_to_end"]} == END_TO_END
    assert {e["name"]: (e["unit"], e["better"]) for e in SPEC["per_layer"]} == {
        name: entry[:2] for name, entry in PER_LAYER.items()
    }


def test_every_layer_metric_names_metrics_and_workloads_that_exist():
    workloads = set(WORKLOADS)
    metrics = {e["name"] for e in SPEC["end_to_end"]}
    for name, (_unit, _better, module, moves) in PER_LAYER.items():
        assert module, name
        assert moves, name
        for metric, on in moves.items():
            assert metric in metrics, (name, metric)
            assert on and set(on) <= workloads, (name, on)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("wire-small-groups", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
