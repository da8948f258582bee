"""Small-scale smoke test of the benchmark itself.

Runs every workload of ``BENCHMARK.json`` on a small population, untraced
and traced, and checks that each named metric is printed with its unit
and that no request failed.  Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--patients", "1500"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit_and_no_errors(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "error_rate 0.000000" in done.stdout
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(str(tmp_path), "explore_flat", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
