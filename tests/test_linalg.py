"""Tests for the RNG and complex linear algebra substrate."""

import numpy as np
import pytest

from immimo.linalg import (
    DecompositionError,
    Rng,
    SingularMatrixError,
    cholesky_factor,
    complex_gaussian,
    ls_solve,
)


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


class TestCholesky:
    def test_hand_2x2(self):
        # R = [[4, 2j], [-2j, 5]] = L L^H with L = [[2, 0], [-1j, 2]]
        r = np.array([[4.0, 2.0j], [-2.0j, 5.0]])
        l = cholesky_factor(r)
        expect = np.array([[2.0, 0.0], [-1.0j, 2.0]])
        assert np.allclose(l, expect)
        assert np.allclose(l @ l.conj().T, r)

    def test_factor_reproduces_input(self, np_rng):
        for _ in range(10):
            a = np_rng.normal(size=(5, 5)) + 1j * np_rng.normal(size=(5, 5))
            r = a @ a.conj().T + 5 * np.eye(5)
            l = cholesky_factor(r)
            assert np.allclose(l @ l.conj().T, r, atol=1e-10)
            assert np.allclose(l, np.tril(l))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            cholesky_factor(np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex))

    def test_non_pd_raises(self):
        r = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        with pytest.raises(DecompositionError):
            cholesky_factor(r)
