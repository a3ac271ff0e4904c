"""Harness smoke test: every workload at a tiny op count.

Not collected by the default ``pytest`` run (the file name does not
match ``test_*.py``); run it from the repository root with::

    python3 -m pytest perfbench/tests/smoke_check.py -q

It checks the output format declared in ``BENCHMARK.json``, that the
deterministic counters repeat exactly across two processes with the
same seed, and that the harness refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer metrics that are exact program counts (no times, and not
#: the payload byte sizes, which carry wall-clock timings)
EXACT_UNITS = {"count", "share"}
NOT_EXACT = {"trace.overhead_share"}


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-3000:]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def tiny(workload: str, trace: int, seed: int = 3) -> dict:
    return result_of(
        run("--workload", workload, "--seed", str(seed), "--seconds", "0.3",
            "--trace", str(trace))
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_the_spec(workload):
    metrics = tiny(workload, 0)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first = tiny(workload, 1)["metrics"]
    second = tiny(workload, 1)["metrics"]
    assert {name: m["unit"] for name, m in first.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    counts = [
        name for name, m in first.items()
        if m["unit"] in EXACT_UNITS and name not in NOT_EXACT
    ]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {
        n: second[n]["value"] for n in counts
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
