"""Tests for the classical detectors against brute-force oracles."""

import itertools

import numpy as np
import pytest

from immimo.detectors import (
    classical_detect,
    classical_pipeline,
    legalize_support,
    ml_detect,
    somp_detect,
    zf_estimate,
    zf_matrix,
)
from immimo.linalg import Rng, SingularMatrixError, complex_gaussian
from immimo.modulation import QamConstellation
from immimo.phy import (
    apply_channel,
    assemble_frame,
    build_tac_table,
    draw_channel,
    frame_bit_count,
)


def brute_force_ml(y, h, table, constellation):
    """Reference ML by direct enumeration of ||Y - H X||_F^2 per hypothesis.

    Scans TACs in table order and per-slot symbol tuples in the same
    mixed-radix order as the fast implementation's grid, keeping the first
    strict improvement, so tie-breaking semantics match.
    """
    t = y.shape[1]
    best_cost = np.inf
    best = None
    for ti, tac in enumerate(table.tacs):
        hs = h[:, [a - 1 for a in tac]]
        cost = 0.0
        s_hat = np.zeros((table.n_u, t), dtype=np.complex128)
        for j in range(t):
            slot_best = np.inf
            slot_sym = None
            for combo in itertools.product(constellation.points, repeat=table.n_u):
                v = hs @ np.array(combo)
                c = np.sum(np.abs(y[:, j] - v) ** 2)
                if c < slot_best:
                    slot_best = c
                    slot_sym = combo
            cost += slot_best
            s_hat[:, j] = slot_sym
        if cost < best_cost:
            best_cost = cost
            best = (ti, s_hat)
    return best


def random_frame(rng, table, constellation, t, n_r, snr_db):
    bits = rng.derive(0).bits(frame_bit_count(table, constellation, t))
    fr = assemble_frame(bits, table, constellation, t)
    h = draw_channel(rng.derive(1), n_r, table.n_t)
    y = apply_channel(fr, h, snr_db, rng.derive(2))
    return fr, h, y


class TestMlDetect:
    @pytest.mark.parametrize("n_t,n_u,m,n_r,snr", [
        (4, 1, 4, 2, 5.0),
        (4, 2, 4, 4, 10.0),
        (4, 2, 16, 2, 0.0),
    ])
    def test_matches_brute_force(self, n_t, n_u, m, n_r, snr):
        table = build_tac_table(n_t, n_u)
        const = QamConstellation(m)
        rng = Rng(500)
        for i in range(15):
            _, h, y = random_frame(rng.derive(i), table, const, 3, n_r, snr)
            got_ti, got_s = ml_detect(y, h, table, const)
            ref_ti, ref_s = brute_force_ml(y, h, table, const)
            assert got_ti == ref_ti
            assert np.allclose(got_s, ref_s)

    def test_noiseless_exact(self):
        table = build_tac_table(4, 2)
        const = QamConstellation(4)
        rng = Rng(501)
        for i in range(30):
            fr, h, y = random_frame(rng.derive(i), table, const, 4, 4, float("inf"))
            ti, s_hat = ml_detect(y, h, table, const)
            assert ti == fr.tac_index
            assert np.allclose(s_hat, fr.s)


class TestSompDetect:
    def test_recovers_support_high_snr(self):
        table = build_tac_table(8, 2)
        const = QamConstellation(4)
        rng = Rng(502)
        hits = 0
        for i in range(200):
            fr, h, y = random_frame(rng.derive(i), table, const, 8, 8, 30.0)
            got = somp_detect(y, h, table.n_u)
            hits += got == table.tacs[fr.tac_index]
        assert hits >= 195

    def test_returns_sorted_1based(self):
        rng = Rng(503)
        h = complex_gaussian(rng, 4, 6, 1.0)
        y = complex_gaussian(rng, 4, 5, 1.0)
        sup = somp_detect(y, h, 3)
        assert len(sup) == 3
        assert list(sup) == sorted(sup)
        assert all(1 <= a <= 6 for a in sup)

    def test_single_column_exact(self):
        # one active antenna, orthogonal channel: correlation picks it out
        h = np.eye(4, dtype=np.complex128)
        y = np.zeros((4, 2), dtype=np.complex128)
        y[2] = [1.0, 1.0j]
        assert somp_detect(y, h, 1) == (3,)

    def test_zero_column_rejected(self):
        h = np.ones((3, 3), dtype=np.complex128)
        h[:, 1] = 0
        with pytest.raises(ValueError):
            somp_detect(np.ones((3, 2), dtype=np.complex128), h, 1)


class TestLegalizeSupport:
    def test_exact_match_keeps_index(self):
        table = build_tac_table(4, 2)  # (1,2) (1,3) (1,4) (2,3)
        assert legalize_support((1, 4), table) == 2
        assert legalize_support((4, 1), table) == 2  # order-insensitive

    def test_illegal_maps_to_max_overlap(self):
        table = build_tac_table(4, 2)
        # (2,4) is illegal; overlaps: (1,2)=1 (1,3)=1 (1,4)=1 (2,3)=1 -> ties,
        # earliest entry wins
        assert legalize_support((2, 4), table) == 0
        # (3,4) is illegal; overlaps: 0,1,1,1 -> earliest max is (1,3)
        assert legalize_support((3, 4), table) == 1


class TestZf:
    def test_identity_on_support(self, np_rng):
        # W^ZF H_J = I for well-conditioned channels
        for _ in range(50):
            h = np_rng.normal(size=(6, 8)) + 1j * np_rng.normal(size=(6, 8))
            sup = tuple(np_rng.choice(8, size=3, replace=False) + 1)
            w = zf_matrix(h, sup)
            hs = h[:, [a - 1 for a in sorted(sup)]]
            assert np.abs(w @ hs - np.eye(3)).max() < 1e-10

    def test_estimate_noiseless(self):
        table = build_tac_table(4, 2)
        const = QamConstellation(16)
        rng = Rng(504)
        fr, h, y = random_frame(rng, table, const, 6, 4, float("inf"))
        s_hat = zf_estimate(y, h, table.tacs[fr.tac_index])
        assert np.allclose(s_hat, fr.s, atol=1e-10)

    def test_estimate_row_order_is_ascending_antenna(self):
        h = np.eye(4, dtype=np.complex128)
        y = np.zeros((4, 1), dtype=np.complex128)
        y[0, 0] = 1.0
        y[2, 0] = 2.0
        s = zf_estimate(y, h, (3, 1))  # unsorted support on purpose
        assert np.allclose(s[:, 0], [1.0, 2.0])

    def test_singular_support_raises(self):
        h = np.ones((4, 4), dtype=np.complex128)  # identical columns
        y = np.ones((4, 2), dtype=np.complex128)
        with pytest.raises(SingularMatrixError):
            zf_estimate(y, h, (1, 2))


class TestClassicalFrontend:
    def test_detect_and_pipeline_agree(self):
        table = build_tac_table(4, 1)
        const = QamConstellation(4)
        rng = Rng(505)
        fr, h, y = random_frame(rng, table, const, 8, 2, 20.0)
        for method in ("ml", "somp"):
            ti, s_hat = classical_detect(y, h, table, const, method)
            bits = classical_pipeline(y, h, table, const, method)
            assert bits.shape == fr.bits.shape
            assert 0 <= ti < table.n_l

    def test_somp_pipeline_legalizes(self):
        # force an illegal SOMP support: only legal TACs contain antenna 1
        table = build_tac_table(4, 2)
        const = QamConstellation(4)
        rng = Rng(506)
        fr, h, y = random_frame(rng, table, const, 8, 4, 25.0)
        ti, _ = classical_detect(y, h, table, const, "somp")
        assert 0 <= ti < table.n_l

    def test_unknown_method_rejected(self):
        table = build_tac_table(4, 1)
        const = QamConstellation(4)
        y = np.zeros((2, 2), dtype=np.complex128)
        h = np.eye(2, 4, dtype=np.complex128)
        with pytest.raises(ValueError):
            classical_detect(y, h, table, const, "mmse")
        with pytest.raises(ValueError):
            classical_detect(y, h, table, const, "zf-oracle")
