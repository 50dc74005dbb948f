"""Self-test of the benchmark at tiny sizes: every workload runs, emits
exactly the metrics BENCHMARK.json declares, and counts corrupted results
as failures.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=run.ROOT, script=run.BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.4",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def _corrupt(name, value):
    """A wrong result of each workload's request type."""
    if name == "wide_heuristic":
        alloc, objective, certified = value
        return alloc, objective + 1.0, certified
    if name == "small_certify":
        alloc, objective = value
        return alloc, objective - 0.5
    if name == "restructure_chain":
        return dataclasses.replace(value, objective=value.objective + 1.0)
    code, stdout, stderr = value
    return 1, stdout, stderr


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_result_counts_as_failure(workload, tmp_path):
    da = run.load_package()
    wl = WORKLOADS[workload](da, 3, True, tmp_path)
    try:
        victim = wl.requests[-1]
        clean = victim.run
        victim.run = lambda: _corrupt(workload, clean())
        m = run.Measurement()
        run.measure(wl, 0.0, m)  # exactly one pass
        assert m.passes == 1 and m.attempted == len(wl.requests)
        assert m.failed == 1
        assert victim.label in m.first_error
    finally:
        wl.close()


def test_result_differing_from_first_pass_counts_as_failure(tmp_path):
    da = run.load_package()
    wl = WORKLOADS["cli_documents"](da, 3, True, tmp_path)
    try:
        m = run.Measurement()
        run.measure(wl, 0.0, m)
        assert m.failed == 0
        victim = wl.requests[0]
        clean = victim.run
        victim.run = lambda: (lambda code, out, err: (code, out + "changed\n", err))(*clean())
        run.measure(wl, 0.2, m)
        assert m.failed >= 1
        assert "differs from the first pass" in m.first_error
    finally:
        wl.close()


def test_raised_exception_counts_as_failure(tmp_path):
    da = run.load_package()
    wl = WORKLOADS["small_certify"](da, 3, True, tmp_path)
    m = run.Measurement()

    def broken():
        raise AssertionError("restructuring beat a certified optimum")

    wl.requests[0].run = broken
    run.measure(wl, 0.0, m)
    assert m.failed == 1 and m.attempted == len(wl.requests)
    assert run.end_to_end(m, 1.0)["success_rate"] < 1.0


def test_tail_names_the_percentile_with_ten_samples_beyond():
    times = [float(i) for i in range(1, 101)]
    value, percentile = run.tail(times)
    assert value == 90.0 and percentile == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "small_certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
