"""Self-tests of the host benchmark, at smoke size.

Run with ``python3 -m pytest hostbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SINGLE = ["paper-128r", "kernels-16r"]


def _import_workloads():
    """Import the benchmark's modules the way ``run.py`` does."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ["REPRO_NATIVE_CACHE"] = str(ROOT / ".bench_build" / "cnative")
    import workloads

    return workloads


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "hostbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
            assert any(line.split()[:1] == [m["name"]] and m["unit"] in line
                       for line in proc.stdout.splitlines()), m["name"]


def test_declared_metrics_match_the_code():
    workloads = _import_workloads()
    assert [m["name"] for m in SPEC["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [m["name"] for m in SPEC["per_layer"]] == list(workloads.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_answer_raises_failed(workload):
    workloads = _import_workloads()
    clean = workloads.run_workload(workload, 5, 0.3, False, smoke=True)
    bad = workloads.run_workload(workload, 5, 0.3, False, smoke=True,
                                 corrupt=1)
    assert clean.failed == 0
    assert bad.failed >= 1
    assert bad.failed / bad.attempted > clean.failed / clean.attempted


@pytest.mark.parametrize("workload", SINGLE)
def test_traced_layers_account_for_query_time(workload):
    workloads = _import_workloads()
    report = workloads.run_workload(workload, 7, 0.5, True, smoke=True)
    assert report.traced_digest == report.sim_digest
    layers = report.per_layer
    accounted = sum(layers[name][0] for name in (
        "engine.self_ms", "topdown.expand_ms", "topdown.apply_ms",
        "bottomup.scan_ms", "mpi.alltoallv_ms", "mpi.allgather_ms",
        "timing.assemble_ms",
    ))
    # The outer timer also covers the engine.run wrapper itself.
    assert accounted == pytest.approx(report.traced_query_ms, rel=0.05)


def test_fails_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", ["kernels-16r", "serve-open"])
def test_answer_checks_leave_no_process_running(workload):
    from multiprocessing import active_children, resource_tracker

    workloads = _import_workloads()
    workloads.run_workload(workload, 5, 0.3, False, smoke=True)
    assert active_children() == []
    assert resource_tracker._resource_tracker._pid is None
