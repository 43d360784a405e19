"""Tests for the classical detectors against brute-force oracles and
against the per-frame loops they replaced."""

import itertools

import numpy as np
import pytest

from immimo import detectors
from immimo.config import ExperimentConfig
from immimo.dataset import generate_arrays, table_for
from immimo.detectors import (
    classical_detect,
    ml_detect,
    somp_supports,
    tacs_from_probabilities,
    zf_estimate,
)
from immimo.linalg import Rng, SingularMatrixError, complex_gaussian, ls_solve
from immimo.modulation import QamConstellation
from immimo.phy import (
    apply_channel,
    assemble_frame,
    build_tac_table,
    demap_frame,
    draw_channel,
    frame_bit_count,
    noise_variance,
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


def ml_detect_one(y, h, table, constellation):
    """Reference per-frame ML loop (the single-frame form of ml_detect)."""
    grid = detectors._symbol_grid(constellation, table.n_u)
    y_energy = np.sum(np.abs(y) ** 2, axis=0)
    best_cost = np.inf
    best = None
    for ti, tac in enumerate(table.tacs):
        v = h[:, [a - 1 for a in tac]] @ grid
        g = np.sum(np.abs(v) ** 2, axis=0)
        cross = y.conj().T @ v
        d = y_energy[:, None] - 2.0 * cross.real + g[None, :]
        kmin = np.argmin(d, axis=1)
        cost = float(d[np.arange(d.shape[0]), kmin].sum())
        if cost < best_cost:
            best_cost = cost
            best = (ti, grid[:, kmin])
    return best


def somp_one(y, h, n_u):
    """Reference per-frame SOMP (the single-frame loop somp_supports
    replaced): sorted 1-based support of one frame."""
    y = np.asarray(y, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    norms = np.linalg.norm(h, axis=0)
    if np.any(norms == 0):
        raise ValueError("channel matrix has a zero column")
    chosen = []
    r = y
    for _ in range(n_u):
        scores = np.sum(np.abs(h.conj().T @ r), axis=1) / norms
        scores[chosen] = -np.inf
        k = int(np.argmax(scores))  # ties: lowest index wins
        chosen.append(k)
        sub = h[:, chosen]
        s = ls_solve(sub, y)
        r = y - sub @ s
    return tuple(sorted(a + 1 for a in chosen))


def somp_one_cols(y, h, n_u):
    """somp_one over every frame of a batch, as (B, n_u) 0-based columns."""
    return np.array([somp_one(y[i], h[i], n_u) for i in range(len(y))],
                    dtype=np.intp).reshape(len(y), n_u) - 1


def legalize_support(support, table):
    """Reference per-frame support legalization: the exact match, else the
    legal TAC of maximal overlap, ties toward the earliest entry."""
    sup = set(support)
    if tuple(sorted(sup)) in table.tacs:
        return table.tacs.index(tuple(sorted(sup)))
    return int(np.argmax([len(sup & set(t)) for t in table.tacs]))


def zf_one(y, h, support):
    """Reference per-frame ZF on one support."""
    return ls_solve(h[:, [a - 1 for a in sorted(support)]], y)


def legalize(support, table):
    """Package legalization of one support as a 0/1 indicator row."""
    row = np.zeros((1, table.n_t))
    row[0, [a - 1 for a in support]] = 1.0
    return int(tacs_from_probabilities(row, table)[0])


def random_frames(streams, table, constellation, t, n_r, snr_db):
    """One frame per Rng stream, each with its own channel: bits (B, b),
    tac_indices (B,), s (B, n_u, t), h (B, n_r, n_t) and y (B, n_r, t)."""
    var = noise_variance(snr_db, n_r, table.n_u)
    bits = np.stack([r.derive(0).bits(frame_bit_count(table, constellation, t))
                     for r in streams])
    tac_indices, s = assemble_frame(bits, table, constellation, t)
    h = np.stack([draw_channel(r.derive(1), n_r, table.n_t) for r in streams])
    noise = np.stack([complex_gaussian(r.derive(2), n_r, t, var) for r in streams])
    return bits, tac_indices, s, h, apply_channel(h, tac_indices, s, table, noise)


def random_batch(rng, table, constellation, t, n_r, snr_db, count):
    """random_frames on the streams rng.derive(0..count-1)."""
    return random_frames([rng.derive(i) for i in range(count)], table,
                         constellation, t, n_r, snr_db)


class TestMlDetect:
    @pytest.mark.parametrize("n_t,n_u,m,n_r,snr", [
        (4, 1, 4, 2, 5.0),
        (4, 2, 4, 4, 10.0),
        (4, 2, 16, 2, 0.0),
    ])
    def test_matches_brute_force(self, n_t, n_u, m, n_r, snr):
        table = build_tac_table(n_t, n_u)
        const = QamConstellation(m)
        *_, h, y = random_batch(Rng(500), table, const, 3, n_r, snr, 15)
        got_ti, got_s = ml_detect(y, h, table, const)
        for i in range(15):
            ref_ti, ref_s = brute_force_ml(y[i], h[i], table, const)
            assert got_ti[i] == ref_ti
            assert np.allclose(got_s[i], ref_s)

    def test_noiseless_exact(self):
        table = build_tac_table(4, 2)
        const = QamConstellation(4)
        _, tac, s, h, y = random_batch(Rng(501), table, const, 4, 4, float("inf"), 30)
        ti, s_hat = ml_detect(y, h, table, const)
        assert np.array_equal(ti, tac)
        assert np.allclose(s_hat, s)


class TestSompDetect:
    def test_recovers_support_high_snr(self):
        table = build_tac_table(8, 2)
        const = QamConstellation(4)
        _, tac, _, h, y = random_batch(Rng(502), table, const, 8, 8, 30.0, 200)
        got = somp_supports(y, h, table.n_u)
        hits = int((got == table.cols[tac]).all(axis=1).sum())
        assert hits >= 195

    def test_returns_sorted_0based_columns(self):
        rng = Rng(503)
        h = complex_gaussian(rng, 4, 6, 1.0)
        y = complex_gaussian(rng, 4, 5, 1.0)
        sup = somp_supports(y[None], h[None], 3)
        assert sup.shape == (1, 3)
        assert list(sup[0]) == sorted(sup[0])
        assert all(0 <= a <= 5 for a in sup[0])

    def test_single_column_exact(self):
        # one active antenna, orthogonal channel: correlation picks it out
        h = np.eye(4, dtype=np.complex128)
        y = np.zeros((4, 2), dtype=np.complex128)
        y[2] = [1.0, 1.0j]
        assert somp_supports(y[None], h[None], 1).tolist() == [[2]]

    def test_zero_column_rejected(self):
        h = np.ones((3, 3), dtype=np.complex128)
        h[:, 1] = 0
        with pytest.raises(ValueError):
            somp_supports(np.ones((1, 3, 2), dtype=np.complex128), h[None], 1)
        # one frame of a batch is enough
        table = build_tac_table(4, 2)
        const = QamConstellation(4)
        *_, h, y = random_batch(Rng(508), table, const, 4, 4, 10.0, 6)
        h[4, :, 2] = 0
        somp_supports(np.delete(y, 4, 0), np.delete(h, 4, 0), 2)
        with pytest.raises(ValueError, match="zero column"):
            somp_supports(y, h, 2)

    def test_rank_deficient_subset_in_one_frame_fails_the_batch(self):
        # frame 2's channel has rank 1: the second greedy pick always
        # spans the same direction as the first
        table = build_tac_table(4, 2)
        const = QamConstellation(4)
        *_, h, y = random_batch(Rng(509), table, const, 4, 4, 10.0, 5)
        h[2] = h[2, :, :1] * np.arange(1, 5)
        somp_supports(np.delete(y, 2, 0), np.delete(h, 2, 0), 2)
        with pytest.raises(SingularMatrixError):
            somp_supports(y, h, 2)

    def test_empty_batch(self):
        y = np.zeros((0, 4, 8), dtype=np.complex128)
        h = np.zeros((0, 4, 6), dtype=np.complex128)
        assert somp_supports(y, h, 2).shape == (0, 2)

    def test_batch_of_one_equals_per_frame(self):
        table = build_tac_table(8, 3)
        const = QamConstellation(4)
        *_, h, y = random_batch(Rng(510), table, const, 4, 8, 5.0, 20)
        for i in range(len(y)):
            got = somp_supports(y[i:i + 1], h[i:i + 1], table.n_u)
            assert np.array_equal(got, somp_one_cols(y[i:i + 1], h[i:i + 1], table.n_u))


# The systems the batched search was checked on: 2000 frames each at 15 and
# 5 dB, with per-frame CSI error on all but the first.
SOMP_SYSTEMS = {
    "4x1": dict(n_t=4, n_u=1, n_r=4, t=16, m=4),
    "8x2-csi": dict(n_t=8, n_u=2, n_r=8, t=16, m=4, csi_error_var=0.01),
    "8x2-16qam-rho": dict(n_t=8, n_u=2, n_r=8, t=16, m=16, rho=0.5, csi_error_var=0.01),
    "8x3-csi": dict(n_t=8, n_u=3, n_r=8, t=16, m=4, csi_error_var=0.05),
}


class TestSompMatchesPerFrame:
    @pytest.mark.parametrize("snr", [15.0, 5.0])
    @pytest.mark.parametrize("name", sorted(SOMP_SYSTEMS))
    def test_columns_equal(self, name, snr):
        cfg = ExperimentConfig(**SOMP_SYSTEMS[name], seed=11)
        data = generate_arrays(cfg, snr, 2000, 0)
        y, h = data["y"], data["h_est"]
        assert np.array_equal(somp_supports(y, h, cfg.n_u), somp_one_cols(y, h, cfg.n_u))


class TestLegalizeSupport:
    def test_exact_match_keeps_index(self):
        table = build_tac_table(4, 2)  # (1,2) (1,3) (1,4) (2,3)
        assert legalize((1, 4), table) == 2
        assert legalize((4, 1), table) == 2  # order-insensitive

    def test_illegal_maps_to_max_overlap(self):
        table = build_tac_table(4, 2)
        # (2,4) is illegal; overlaps: (1,2)=1 (1,3)=1 (1,4)=1 (2,3)=1 -> ties,
        # earliest entry wins
        assert legalize((2, 4), table) == 0
        # (3,4) is illegal; overlaps: 0,1,1,1 -> earliest max is (1,3)
        assert legalize((3, 4), table) == 1


class TestZf:
    def test_identity_on_support(self, np_rng):
        # W^ZF H_J = I for well-conditioned channels
        for _ in range(50):
            h = np_rng.normal(size=(6, 8)) + 1j * np_rng.normal(size=(6, 8))
            cols = np.sort(np_rng.choice(8, size=3, replace=False))
            w = zf_estimate(np.eye(6)[None], h[None], cols[None])[0]
            hs = h[:, cols]
            assert np.abs(w @ hs - np.eye(3)).max() < 1e-10

    def test_estimate_noiseless(self):
        table = build_tac_table(4, 2)
        const = QamConstellation(16)
        rng = Rng(504)
        _, tac, s, h, y = random_frames([rng], table, const, 6, 4, float("inf"))
        s_hat = zf_estimate(y, h, table.cols[tac])
        assert np.allclose(s_hat, s, atol=1e-10)

    def test_estimate_rows_follow_cols_order(self):
        h = np.eye(4, dtype=np.complex128)
        y = np.zeros((4, 1), dtype=np.complex128)
        y[0, 0] = 1.0
        y[2, 0] = 2.0
        s = zf_estimate(y[None], h[None], [(2, 0)])[0]  # unsorted columns on purpose
        assert np.allclose(s[:, 0], [2.0, 1.0])

    def test_singular_support_raises(self):
        h = np.ones((4, 4), dtype=np.complex128)  # identical columns
        y = np.ones((4, 2), dtype=np.complex128)
        with pytest.raises(SingularMatrixError):
            zf_estimate(y[None], h[None], [(0, 1)])

    def test_one_singular_frame_fails_the_batch(self):
        table = build_tac_table(4, 2)
        const = QamConstellation(4)
        *_, h, y = random_batch(Rng(507), table, const, 4, 4, 10.0, 6)
        h[3, :, 1] = h[3, :, 0]  # frame 3: antennas 1 and 2 see the same column
        cols = [(0, 1)] * 6
        zf_estimate(np.delete(y, 3, 0), np.delete(h, 3, 0), cols[:5])
        with pytest.raises(SingularMatrixError):
            zf_estimate(y, h, cols)


class TestClassicalFrontend:
    def test_detect_and_pipeline_agree(self):
        table = build_tac_table(4, 1)
        const = QamConstellation(4)
        rng = Rng(505)
        bits_sent, _, _, h, y = random_frames([rng], table, const, 8, 2, 20.0)
        for method in ("ml", "somp"):
            ti, s_hat = classical_detect(y, h, table, const, method)
            bits = demap_frame(ti, s_hat, table, const)
            assert bits.shape == bits_sent.shape
            assert ti.shape == (1,) and 0 <= ti[0] < table.n_l

    def test_somp_pipeline_legalizes(self):
        # force an illegal SOMP support: only legal TACs contain antenna 1
        table = build_tac_table(4, 2)
        const = QamConstellation(4)
        rng = Rng(506)
        *_, h, y = random_frames([rng], table, const, 8, 4, 25.0)
        ti, _ = classical_detect(y, h, table, const, "somp")
        assert 0 <= ti[0] < table.n_l

    def test_unknown_method_rejected(self):
        table = build_tac_table(4, 1)
        const = QamConstellation(4)
        y = np.zeros((1, 2, 2), dtype=np.complex128)
        h = np.eye(2, 4, dtype=np.complex128)[None]
        with pytest.raises(ValueError):
            classical_detect(y, h, table, const, "mmse")
        with pytest.raises(ValueError):
            classical_detect(y, h, table, const, "zf-oracle")


# Benchmark-like tables: noisy frames with per-frame CSI error, so SOMP
# often lands on supports outside the legal table.
REFERENCE_SYSTEMS = {
    "4x1": dict(n_t=4, n_u=1, n_r=4, t=16, m=4),
    "preset-4x2": dict(n_t=4, n_u=2, n_r=4, t=8, m=4, tac_preset="preset-4x2"),
    "8x2": dict(n_t=8, n_u=2, n_r=8, t=16, m=4),
    "8x3": dict(n_t=8, n_u=3, n_r=8, t=4, m=4),
    "4x2-16qam": dict(n_t=4, n_u=2, n_r=4, t=8, m=16),
}


@pytest.fixture(scope="module", params=sorted(REFERENCE_SYSTEMS))
def system(request):
    cfg = ExperimentConfig(**REFERENCE_SYSTEMS[request.param], csi_error_var=0.05,
                           rho=0.3, seed=9)
    data = generate_arrays(cfg, 4.0, 64, 0)
    return request.param, table_for(cfg), QamConstellation(cfg.m), data


class TestBatchedMatchesPerFrame:
    def test_ml(self, system):
        _, table, const, data = system
        y, h = data["y"], data["h_est"]
        tacs, s_hat = ml_detect(y, h, table, const)
        for i in range(len(y)):
            ti, s = ml_detect_one(y[i], h[i], table, const)
            assert tacs[i] == ti
            assert np.array_equal(s_hat[i], s)

    @pytest.mark.parametrize("elements", [1, 1000])
    def test_ml_chunks(self, system, elements, monkeypatch):
        # 1 element per chunk still holds one frame; 1000 splits mid-batch
        _, table, const, data = system
        y, h = data["y"], data["h_est"]
        whole = ml_detect(y, h, table, const)
        monkeypatch.setattr(detectors, "ML_CHUNK_ELEMENTS", elements)
        chunked = ml_detect(y, h, table, const)
        assert np.array_equal(whole[0], chunked[0])
        assert np.array_equal(whole[1], chunked[1])

    def test_zf(self, system):
        _, table, _, data = system
        y, h = data["y"], data["h_est"]
        cols = [np.flatnonzero(g) for g in data["g"]]
        got = zf_estimate(y, h, cols)
        for i in range(len(y)):
            assert np.array_equal(got[i], zf_one(y[i], h[i], cols[i] + 1))

    def test_somp(self, system):
        name, table, const, data = system
        y, h = data["y"], data["h_est"]
        tacs, s_hat = classical_detect(y, h, table, const, "somp")
        nonlegal = 0
        supports = somp_supports(y, h, table.n_u)
        for i in range(len(y)):
            support = somp_one(y[i], h[i], table.n_u)
            assert np.array_equal(supports[i] + 1, support)
            nonlegal += support not in table.tacs
            ti = legalize_support(support, table)
            assert tacs[i] == ti
            assert np.array_equal(s_hat[i], zf_one(y[i], h[i], table.tacs[ti]))
        if name != "4x1":  # every single antenna is a legal 4x1 TAC
            assert nonlegal > 0

    def test_legalization_of_every_support(self, system):
        # all C(n_t, n_u) supports, legal or not, as indicator rows at once
        _, table, _, _ = system
        supports = list(itertools.combinations(range(1, table.n_t + 1), table.n_u))
        rows = np.zeros((len(supports), table.n_t))
        for i, sup in enumerate(supports):
            rows[i, [a - 1 for a in sup]] = 1.0
        want = [legalize_support(sup, table) for sup in supports]
        assert np.array_equal(tacs_from_probabilities(rows, table), want)
