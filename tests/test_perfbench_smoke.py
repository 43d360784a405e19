"""The benchmark harness against the package: a short traced run of each
workload in BENCHMARK.json must pass the harness's own output checks."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    WORKLOADS = [w["name"] for w in json.load(f)["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct(workload):
    # run from the repository root, as perfbench/run.py requires; the trace
    # goes to the ignored perfbench/_traces/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
