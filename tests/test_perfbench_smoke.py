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


class _RecordingTracer:
    """Stands in for perfbench's Tracer: records each patch target that the
    package lacks instead of wrapping it."""

    def __init__(self):
        self.missing = set()

    def patch_function(self, module, attr, name, group=None, observe=None):
        if getattr(module, attr, None) is None:
            self.missing.add(f"{module.__name__.removeprefix('immimo.')}.{attr}")

    def patch_method(self, cls, attr, name, group=None):
        if cls.__dict__.get(attr) is None:
            self.missing.add(f"{cls.__name__}.{attr}")


def test_instrument_misses_only_the_known_stale_targets(monkeypatch):
    # a renamed function reads 0 in the benchmark, with only a "not found"
    # line on stderr; the three names below are the known stale entries,
    # which leave with the next change to perfbench/
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import perlayer

    tracer = _RecordingTracer()
    perlayer.instrument(tracer, table=None)
    assert tracer.missing == {"phy.corrupt_csi", "detectors.somp_detect",
                              "dataset.generate_frame_data"}
