"""Shared fixtures. Thread pinning must happen before numpy is imported
anywhere in the test process, so keep these os.environ writes at the top."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from immimo.linalg import Rng

# every property test runs the same examples on every run and keeps no
# example database; a test module's settings set only max_examples
settings.register_profile("immimo", deadline=None, derandomize=True, database=None)
settings.load_profile("immimo")


def pytest_sessionstart(session):
    """Hypothesis writes its caches (the constants/ cache, which derandomize=True
    keeps, fills at collection) to a pytest temp directory, not to .hypothesis/
    in the working directory."""
    set_hypothesis_home_dir(session.config._tmp_path_factory.mktemp("hypothesis"))


@pytest.fixture
def rng():
    return Rng(1234)


@pytest.fixture
def np_rng():
    return np.random.default_rng(99)


def finite_diff(loss_fn, arr, step=1e-4):
    """Central finite differences on a parameter array, one slot at a time.

    For complex arrays the real and imaginary parts are perturbed
    independently and the result is packed as d/dRe + 1j * d/dIm, matching
    the gradient convention used by the layers.
    """
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = loss_fn()
        flat[i] = orig - step
        fm = loss_fn()
        d_re = (fp - fm) / (2 * step)
        if np.iscomplexobj(arr):
            flat[i] = orig + 1j * step
            fp = loss_fn()
            flat[i] = orig - 1j * step
            fm = loss_fn()
            d_im = (fp - fm) / (2 * step)
            gflat[i] = d_re + 1j * d_im
        else:
            gflat[i] = d_re
        flat[i] = orig
    return grad


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom
