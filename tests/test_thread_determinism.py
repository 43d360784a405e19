"""Byte-level determinism across BLAS thread counts: the golden digests and
eval pins of test_golden_bytes.py, taken at one BLAS thread (conftest.py),
must hold at two."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_golden_bytes_hold_at_two_blas_threads():
    # a fresh process: BLAS reads its thread count once, at load
    path = filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.join("tests", "test_golden_bytes.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
