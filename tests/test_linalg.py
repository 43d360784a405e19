"""Tests for the RNG and complex linear algebra substrate."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from immimo.linalg import (
    Rng,
    SingularMatrixError,
    complex_gaussian,
    derive_stream,
    ls_solve,
    philox_raw,
    stream_bits,
    stream_complex_gaussian,
)

_U64 = st.integers(0, 2**64 - 1)
_PROPERTY = settings(max_examples=200)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).raw(64)
        b = Rng(42).raw(64)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Rng(42).raw(64)
        b = Rng(43).raw(64)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            Rng(-1)

    def test_uniform_range_and_moments(self):
        u = Rng(7).uniform(200_000)
        assert u.min() > 0.0
        assert u.max() <= 1.0
        assert abs(u.mean() - 0.5) < 5e-3
        assert abs(u.var() - 1.0 / 12.0) < 5e-3

    def test_normals_moments(self):
        z = Rng(11).normals(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02
        # fourth moment of N(0,1) is 3
        assert abs((z**4).mean() - 3.0) < 0.1

    def test_normals_odd_count(self):
        z = Rng(3).normals(7)
        assert z.shape == (7,)
        assert np.array_equal(z, Rng(3).normals(8)[:7])

    def test_bits_unbiased(self):
        b = Rng(5).bits(100_000)
        assert set(np.unique(b)) <= {0, 1}
        assert abs(b.mean() - 0.5) < 5e-3

    def test_bits_exact_count(self):
        assert Rng(5).bits(3).shape == (3,)
        assert Rng(5).bits(64).shape == (64,)
        assert Rng(5).bits(65).shape == (65,)

    def test_permutation_is_permutation(self):
        p = Rng(9).permutation(1000)
        assert np.array_equal(np.sort(p), np.arange(1000))

    def test_permutation_deterministic(self):
        assert np.array_equal(Rng(9).permutation(100), Rng(9).permutation(100))

    def test_symmetric_uniform_range(self):
        x = Rng(1).symmetric_uniform((100, 100))
        assert x.shape == (100, 100)
        assert x.min() > -1.0
        assert x.max() <= 1.0
        assert abs(x.mean()) < 0.01

    def test_derive_reproducible(self):
        r = Rng(1000)
        a = r.derive(3, 5).raw(16)
        b = r.derive(3, 5).raw(16)
        assert np.array_equal(a, b)

    def test_derive_independent_of_parent_state(self):
        r1 = Rng(1000)
        r1.raw(100)  # consume parent
        r2 = Rng(1000)
        assert np.array_equal(r1.derive(2).raw(16), r2.derive(2).raw(16))

    def test_derive_paths_distinct(self):
        r = Rng(1000)
        streams = [
            r.derive(0).raw(8).tobytes(),
            r.derive(1).raw(8).tobytes(),
            r.derive(0, 0).raw(8).tobytes(),
            r.derive(0, 1).raw(8).tobytes(),
            r.derive(1, 0).raw(8).tobytes(),
            r.raw(8).tobytes(),
        ]
        assert len(set(streams)) == len(streams)

    def test_derive_order_sensitive(self):
        r = Rng(77)
        assert not np.array_equal(r.derive(1, 2).raw(8), r.derive(2, 1).raw(8))


class TestFrameAxisStreams:
    """The frame-axis draws reproduce the scalar `Rng` streams bit for bit."""

    @_PROPERTY
    @given(seed=_U64, stream=_U64, n=st.integers(0, 40))
    @example(seed=0, stream=0, n=0)
    @example(seed=2**64 - 1, stream=2**64 - 1, n=39)
    @example(seed=0, stream=2**64 - 1, n=5)
    @example(seed=2**64 - 1, stream=0, n=4)
    def test_philox_matches_numpy(self, seed, stream, n):
        want = Philox(key=np.array([seed, stream], dtype=np.uint64)).random_raw(n)
        got = philox_raw(seed, [stream], n)
        assert got.shape == (1, n)
        assert got.dtype == np.uint64
        assert np.array_equal(got[0], want)

    def test_philox_rows_are_independent_streams(self):
        streams = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        got = philox_raw(9, streams, 7)
        for row, stream in zip(got, streams):
            assert np.array_equal(row, Rng(9, int(stream)).raw(7))

    @_PROPERTY
    @given(seed=_U64, a=_U64, frames=st.lists(_U64, min_size=1, max_size=5))
    @example(seed=2**64 - 1, a=2**64 - 1, frames=[0, 2**64 - 1])
    def test_derive_matches_rng(self, seed, a, frames):
        base = derive_stream(seed, 0, a, np.array(frames, dtype=np.uint64))
        children = [derive_stream(seed, base, k) for k in range(3)]
        assert base.dtype == np.uint64
        for j, i in enumerate(frames):
            ref = Rng(seed).derive(a, i)
            assert int(base[j]) == ref._stream
            for k, child in enumerate(children):
                assert int(child[j]) == ref.derive(k)._stream

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
    def test_stream_bits_match_rng(self, n):
        streams = np.array([3, 2**64 - 1], dtype=np.uint64)
        got = stream_bits(11, streams, n)
        assert got.shape == (2, n) and got.dtype == np.int64
        for row, stream in zip(got, streams):
            assert np.array_equal(row, Rng(11, int(stream)).bits(n))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 16)])
    def test_stream_complex_gaussian_matches_rng(self, shape):
        streams = np.array([5, 6, 7], dtype=np.uint64)
        got = stream_complex_gaussian(11, streams, shape, 0.3)
        assert got.shape == (3,) + shape
        for draw, stream in zip(got, streams):
            want = complex_gaussian(Rng(11, int(stream)), *shape, 0.3)
            assert draw.tobytes() == want.tobytes()


class TestComplexGaussian:
    def test_shape_and_dtype(self):
        h = complex_gaussian(Rng(2), 4, 6, 1.0)
        assert h.shape == (4, 6)
        assert h.dtype == np.complex128

    def test_variance_split(self):
        h = complex_gaussian(Rng(2), 400, 500, 0.25)
        assert abs(np.mean(np.abs(h) ** 2) - 0.25) < 5e-3
        assert abs(h.real.var() - 0.125) < 5e-3
        assert abs(h.imag.var() - 0.125) < 5e-3
        assert abs(h.mean()) < 5e-3

    def test_zero_variance(self):
        h = complex_gaussian(Rng(2), 3, 3, 0.0)
        assert np.all(h == 0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            complex_gaussian(Rng(2), 2, 2, -1.0)

    def test_row_major_pair_order(self):
        # entry (i, j) must consume normal pairs (2k, 2k+1), k = i*cols + j
        rng = Rng(8)
        h = complex_gaussian(rng, 2, 3, 2.0)
        z = Rng(8).normals(12)
        expect = (z[0::2] + 1j * z[1::2]).reshape(2, 3)
        assert np.allclose(h, expect)


class TestLsSolve:
    def test_recovers_constructed_solution(self, np_rng):
        # construct-then-solve oracle: build b = a @ x from a known x
        for trial in range(20):
            m, n = np_rng.integers(2, 9), np_rng.integers(1, 5)
            if m < n:
                m, n = n, m
            a = np_rng.normal(size=(m, n)) + 1j * np_rng.normal(size=(m, n))
            x = np_rng.normal(size=(n, 3)) + 1j * np_rng.normal(size=(n, 3))
            got = ls_solve(a, a @ x)
            assert np.allclose(got, x, atol=1e-9)

    def test_matches_normal_equations_on_overdetermined(self, np_rng):
        a = np_rng.normal(size=(8, 3)) + 1j * np_rng.normal(size=(8, 3))
        b = np_rng.normal(size=(8,)) + 1j * np_rng.normal(size=(8,))
        got = ls_solve(a, b)
        aha = a.conj().T @ a
        expect = np.linalg.solve(aha, a.conj().T @ b)
        assert got.shape == (3,)
        assert np.allclose(got, expect, atol=1e-10)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], dtype=complex)
        with pytest.raises(SingularMatrixError):
            ls_solve(a, np.ones(3, dtype=complex))

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            ls_solve(np.ones((2, 3), dtype=complex), np.ones(2, dtype=complex))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ls_solve(np.eye(3, dtype=complex), np.ones(2, dtype=complex))

    def test_1d_rhs_squeezed(self):
        a = np.eye(3, dtype=complex)
        b = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert ls_solve(a, b).shape == (3,)
        assert ls_solve(a, b[:, None]).shape == (3, 1)

    def test_stack_matches_each_system(self, np_rng):
        a = np_rng.normal(size=(7, 5, 3)) + 1j * np_rng.normal(size=(7, 5, 3))
        b = np_rng.normal(size=(7, 5, 4)) + 1j * np_rng.normal(size=(7, 5, 4))
        got = ls_solve(a, b)
        assert got.shape == (7, 3, 4)
        for i in range(7):
            assert np.array_equal(got[i], ls_solve(a[i], b[i]))
        assert ls_solve(a, b[:, :, 0]).shape == (7, 3)

    def test_stack_with_one_singular_system_raises(self, np_rng):
        a = np_rng.normal(size=(4, 3, 2)) + 1j * np_rng.normal(size=(4, 3, 2))
        a[2, :, 1] = 2.0 * a[2, :, 0]
        with pytest.raises(SingularMatrixError):
            ls_solve(a, np.ones((4, 3), dtype=complex))

    def test_stack_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ls_solve(np.ones((2, 3, 2), dtype=complex), np.ones((3, 3), dtype=complex))
