"""Tests for the physical layer: TAC tables, frames, channels, metrics."""

import math

import numpy as np
import pytest

from immimo.config import ExperimentConfig
from immimo.dataset import generate_arrays
from immimo.linalg import Rng, complex_gaussian
from immimo.modulation import QamConstellation
from immimo.phy import (
    TAC_PRESET_4X2,
    aap_accuracy,
    apply_channel,
    assemble_frame,
    ber,
    build_tac_table,
    csi_error_variance,
    demap_frame,
    draw_channel,
    frame_bit_count,
    make_correlated,
    noise_variance,
)


class TestTacTable:
    @pytest.mark.parametrize("n_t,n_u,n_l", [
        (4, 1, 4),      # C(4,1)=4 -> 4
        (4, 2, 4),      # C(4,2)=6 -> 4
        (8, 2, 16),     # C(8,2)=28 -> 16
        (16, 4, 1024),  # C(16,4)=1820 -> 1024
    ])
    def test_codebook_size(self, n_t, n_u, n_l):
        table = build_tac_table(n_t, n_u)
        assert table.n_l == n_l
        assert table.b1 == int(np.log2(n_l))

    def test_lexicographic_order(self):
        table = build_tac_table(4, 2)
        assert table.tacs == ((1, 2), (1, 3), (1, 4), (2, 3))

    def test_index_round_trip(self):
        table = build_tac_table(8, 2)
        for i, tac in enumerate(table.tacs):
            assert table.tacs.index(tac) == i

    def test_aap_vector(self):
        table = build_tac_table(4, 2)
        assert np.array_equal(table.patterns[1], [1, 0, 1, 0])  # tac (1,3)

    def test_preset_4x2(self):
        table = build_tac_table(4, 2, tacs=TAC_PRESET_4X2)
        assert table.tacs == ((1, 3), (1, 4), (2, 4), (2, 3))
        assert table.tacs.index((2, 4)) == 2

    @pytest.mark.parametrize("n_t,n_u,tacs", [
        (4, 1, None), (8, 2, None), (8, 3, None), (16, 4, None),
        (4, 2, TAC_PRESET_4X2),
    ], ids=["4x1", "8x2", "8x3", "16x4", "preset-4x2"])
    def test_cols_and_patterns_match_the_tuples(self, n_t, n_u, tacs):
        table = build_tac_table(n_t, n_u, tacs=tacs)
        want_cols = [[a - 1 for a in tac] for tac in table.tacs]
        want_patterns = np.zeros((table.n_l, n_t))
        for i, tac in enumerate(table.tacs):
            want_patterns[i, [a - 1 for a in tac]] = 1.0
        assert table.cols.shape == (table.n_l, n_u) and table.cols.dtype == np.intp
        assert np.array_equal(table.cols, want_cols)
        assert table.patterns.dtype == np.float64
        assert np.array_equal(table.patterns, want_patterns)
        assert table.cols is table.cols and table.patterns is table.patterns

    def test_cols_and_patterns_are_read_only(self):
        table = build_tac_table(8, 2)
        with pytest.raises(ValueError):
            table.cols[0, 0] = 5
        with pytest.raises(ValueError):
            table.patterns[0] = 0.0
        assert table == build_tac_table(8, 2)
        assert hash(table) == hash(build_tac_table(8, 2))

    def test_explicit_table_validation(self):
        with pytest.raises(ValueError):
            build_tac_table(4, 2, tacs=[(1, 2), (1, 3)])  # wrong count
        with pytest.raises(ValueError):
            build_tac_table(4, 2, tacs=[(1, 2)] * 4)  # duplicates
        with pytest.raises(ValueError):
            build_tac_table(4, 2, tacs=[(2, 1), (1, 3), (1, 4), (2, 3)])  # unsorted
        with pytest.raises(ValueError):
            build_tac_table(4, 2, tacs=[(1, 5), (1, 3), (1, 4), (2, 3)])  # out of range

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            build_tac_table(4, 0)
        with pytest.raises(ValueError):
            build_tac_table(4, 5)


class TestFrame:
    def test_bit_count(self):
        table = build_tac_table(4, 1)
        const = QamConstellation(4)
        # 2 spatial bits + 1 link * 2 bits * 16 slots
        assert frame_bit_count(table, const, 16) == 34

    def test_assemble_known_frame(self):
        table = build_tac_table(4, 1)
        const = QamConstellation(4)
        # spatial bits 10 -> tac index 2 -> antenna 3; slot bits 00, 11
        bits = np.array([[1, 0, 0, 0, 1, 1]])
        tac, s = assemble_frame(bits, table, const, t=2)
        assert tac.tolist() == [2]
        r = np.sqrt(2.0)
        assert np.allclose(s, [[[(1 + 1j) / r, (-1 - 1j) / r]]])
        x = transmit_matrices(tac, s, table)[0]
        assert np.allclose(x[2], s[0, 0])
        mask = np.ones(4, dtype=bool)
        mask[2] = False
        assert np.all(x[mask] == 0)

    def test_row_sparsity_constant_support(self, rng):
        table = build_tac_table(8, 2)
        const = QamConstellation(16)
        bits = np.stack([rng.bits(frame_bit_count(table, const, 8)) for _ in range(20)])
        tac, s = assemble_frame(bits, table, const, t=8)
        for ti, x in zip(tac, transmit_matrices(tac, s, table)):
            active = np.flatnonzero(np.any(x != 0, axis=1))
            assert np.array_equal(active + 1, table.tacs[ti])
            # every slot uses the same support
            assert np.all((x[active] != 0).all(axis=0))

    def test_round_trip_all_tacs(self, rng):
        table = build_tac_table(4, 2)
        const = QamConstellation(4)
        bits = np.stack([rng.bits(frame_bit_count(table, const, 4)) for _ in range(50)])
        back = demap_frame(*assemble_frame(bits, table, const, t=4), table, const)
        assert np.array_equal(back, bits)

    @pytest.mark.parametrize("n_t,n_u,m,t,preset", [
        (4, 1, 4, 16, None),
        (8, 2, 4, 16, None),
        (4, 2, 16, 8, TAC_PRESET_4X2),
        (8, 3, 64, 3, None),
        (4, 4, 4, 5, None),     # one legal TAC: no spatial bits
    ])
    @pytest.mark.parametrize("count", [37, 1, 0])
    def test_demap_inverts_assemble_over_a_batch(self, rng, n_t, n_u, m, t, preset, count):
        table = build_tac_table(n_t, n_u, tacs=preset)
        const = QamConstellation(m)
        nbits = frame_bit_count(table, const, t)
        bits = rng.bits(count * nbits).reshape(count, nbits)
        tac, s = assemble_frame(bits, table, const, t)
        assert tac.shape == (count,) and s.shape == (count, n_u, t)
        assert np.array_equal(demap_frame(tac, s, table, const), bits)

    def test_identity_channel_round_trip(self, rng):
        # noiseless identity channel: read s straight off the active rows
        table = build_tac_table(4, 1)
        const = QamConstellation(16)
        bits = rng.bits(frame_bit_count(table, const, 8))[None]
        tac, s = assemble_frame(bits, table, const, t=8)
        y = transmit_matrices(tac, s, table)
        s_hat = y[0][[a - 1 for a in table.tacs[tac[0]]], :]
        assert np.array_equal(demap_frame(tac, s_hat[None], table, const), bits)

    def test_wrong_bit_count_rejected(self):
        table = build_tac_table(4, 1)
        const = QamConstellation(4)
        with pytest.raises(ValueError, match="expected"):
            assemble_frame(np.zeros((1, 7), dtype=int), table, const, t=2)
        with pytest.raises(ValueError, match="expected"):  # one frame is a batch of 1
            assemble_frame(np.zeros(6, dtype=int), table, const, t=2)

    def test_non_binary_rejected(self):
        table = build_tac_table(4, 1)
        const = QamConstellation(4)
        with pytest.raises(ValueError):
            assemble_frame(np.full((1, 6), 2), table, const, t=2)


def transmit_matrices(tac_indices, s, table):
    """The row-sparse X (B, n_t, t) of each frame: the noiseless receive
    matrices of an identity channel."""
    return apply_channel(np.eye(table.n_t), tac_indices, s, table)


class TestChannel:
    def test_entry_variance(self):
        h = draw_channel(Rng(3), 64, 64)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0 / 64) < 2e-3 / 64 * 50

    # generation adds the receiver's CSI error to the seed's channel
    def test_estimate_equals_truth_without_error(self):
        data = generate_arrays(ExperimentConfig(n_t=4, n_u=1, n_r=4, seed=3), 10.0, 8, 0)
        assert np.array_equal(data["h_est"], data["h"])

    def test_csi_error_variance_empirical(self):
        cfg = ExperimentConfig(n_t=8, n_u=2, n_r=8, csi_error_var=0.04, seed=4)
        data = generate_arrays(cfg, 10.0, 100, 0)
        assert abs(np.mean(np.abs(data["h_est"] - data["h"]) ** 2) - 0.04) < 3e-3

    def test_pilot_error_variance_formula(self):
        assert csi_error_variance(4, 0.1, n_p=8, e_p=2.0) == pytest.approx(0.025)
        with pytest.raises(ValueError):
            csi_error_variance(4, 0.1, n_p=0, e_p=1.0)
        assert csi_error_variance(4, 0.0, n_p=2 ** 64 - 1, e_p=1e-300) == 0.0

    @pytest.mark.parametrize("sigma_z2, n_p, e_p", [
        (0.1, 2 ** 64, 1.0), (0.1, 1, 0.0), (0.1, 1, math.inf), (0.1, 1, math.nan),
        (-0.1, 1, 1.0), (math.inf, 1, 1.0), (math.nan, 1, 1.0)])
    def test_pilot_triple_out_of_range_names_all_three(self, sigma_z2, n_p, e_p):
        with pytest.raises(ValueError, match="n_p.*e_p.*sigma_z2"):
            csi_error_variance(4, sigma_z2, n_p=n_p, e_p=e_p)

    def test_kronecker_second_moments(self):
        # E[H_c H_c^H] = tr(R_t)/N_r * R_r for H with CN(0, 1/N_r) entries;
        # estimate by averaging many draws and compare to rho^|i-j|
        rho = 0.6
        n_r, n_t = 4, 4
        acc = np.zeros((n_r, n_r), dtype=np.complex128)
        trials = 4000
        rng = Rng(10)
        for i in range(trials):
            h = draw_channel(rng.derive(i), n_r, n_t, rho=rho)
            acc += h @ h.conj().T
        got = acc / trials / (np.trace(_exp_corr(n_t, rho)).real / n_r)
        expect = _exp_corr(n_r, rho)
        assert np.abs(got - expect).max() < 0.12

    def test_correlation_identity_at_zero(self):
        h = draw_channel(Rng(6), 3, 5)
        assert np.array_equal(make_correlated(h, 0.0), h)

    def test_invalid_rho(self):
        h = np.ones((2, 2), dtype=np.complex128)
        with pytest.raises(ValueError):
            make_correlated(h, 1.0)
        with pytest.raises(ValueError):
            make_correlated(h, -0.2)


def _exp_corr(n, rho):
    idx = np.arange(n)
    return (rho ** np.abs(idx[:, None] - idx[None, :])).astype(np.complex128)


class TestNoise:
    def test_noise_variance_formula(self):
        # sigma^2 = N_u / (N_r * 10^(SNR/10))
        assert noise_variance(10.0, 4, 1) == pytest.approx(1 / 40)
        assert noise_variance(0.0, 2, 2) == pytest.approx(1.0)
        assert noise_variance(float("inf"), 4, 1) == 0.0

    @pytest.mark.parametrize("snr_db", [float("nan"), float("-inf"), 4000.0, -4000.0])
    def test_out_of_range_snr_rejected(self, snr_db):
        # only +inf dB is the noiseless link; +-4000 dB overflow 10^(SNR/10)
        with pytest.raises(ValueError, match="SNR"):
            noise_variance(snr_db, 4, 1)

    def test_snr_realized_empirically(self):
        # measured E||Hx||^2 / E||n||^2 across many frames should match
        # the requested SNR
        table = build_tac_table(4, 2)
        const = QamConstellation(4)
        snr_db = 7.0
        streams = [Rng(20).derive(i) for i in range(2000)]
        bits = np.stack([r.derive(0).bits(frame_bit_count(table, const, 4))
                         for r in streams])
        tac, s = assemble_frame(bits, table, const, t=4)
        h = np.stack([draw_channel(r.derive(1), 4, 4) for r in streams])
        var = noise_variance(snr_db, 4, table.n_u)
        noise = np.stack([complex_gaussian(r.derive(2), 4, 4, var) for r in streams])
        clean = apply_channel(h, tac, s, table)
        y = apply_channel(h, tac, s, table, noise)
        got_db = 10 * np.log10(np.sum(np.abs(clean) ** 2) / np.sum(np.abs(y - clean) ** 2))
        assert abs(got_db - snr_db) < 0.15

    def test_noiseless_at_inf(self):
        table = build_tac_table(4, 1)
        const = QamConstellation(4)
        rng = Rng(21)
        bits = rng.bits(frame_bit_count(table, const, 4))[None]
        tac, s = assemble_frame(bits, table, const, t=4)
        h = draw_channel(rng, 4, 4)
        noise = complex_gaussian(rng, 4, 4, noise_variance(float("inf"), 4, 1))[None]
        y = apply_channel(h, tac, s, table, noise)
        assert np.array_equal(y, h @ transmit_matrices(tac, s, table))


class TestMetrics:
    def test_ber(self):
        assert ber([0, 1, 1, 0], [0, 1, 0, 0]) == 0.25
        assert ber([0, 1], [0, 1]) == 0.0
        with pytest.raises(ValueError):
            ber([0, 1], [0])
        with pytest.raises(ValueError):
            ber([], [])

    def test_aap_accuracy_set_semantics(self):
        # order inside a TAC must not matter
        assert aap_accuracy([(1, 3), (2, 4)], [(3, 1), (2, 3)]) == 0.5
        with pytest.raises(ValueError):
            aap_accuracy([(1,)], [])
        with pytest.raises(ValueError):
            aap_accuracy([], [])
