"""Two-stage detector: builders, TAC legalization, training loops, inference."""

import numpy as np
import pytest

from immimo import detectors, twostage
from immimo.config import ExperimentConfig
from immimo.dataset import generate_arrays, table_for
from immimo.linalg import ls_solve
from immimo.modulation import QamConstellation
from immimo.phy import TAC_PRESET_4X2, build_tac_table, demap_frame
from immimo.twostage import (
    TrainConfig,
    build_aapd,
    build_se,
    build_zf_dataset,
    detect_frames,
    tacs_from_probabilities,
    train_aapd,
    train_full,
    train_se,
)


def zero_params(model):
    for _, a in model.param_items():
        a[...] = 0


def tac_from_probabilities(p, table):
    """Reference per-row legalization loop for tacs_from_probabilities.

    Top-N_u antennas; if that set is illegal, the legal TAC with the
    largest probability sum (ties toward the earliest table entry).
    """
    order = np.argsort(-p, kind="stable")
    cand = tuple(sorted(int(a) + 1 for a in order[: table.n_u]))
    if cand in table:
        return table.tacs.index(cand)
    sums = [p[[a - 1 for a in tac]].sum() for tac in table.tacs]
    return int(np.argmax(sums))


def zf_one(y, h, support):
    """Reference per-frame ZF on one support."""
    return ls_solve(h[:, [a - 1 for a in sorted(support)]], y)


def detect_frame(y, h_est, aapd, se, table, constellation):
    """Reference per-frame two-stage detection for detect_frames."""
    p = aapd.probabilities(y[None])[0]
    ti = tac_from_probabilities(p, table)
    s_zf = zf_one(y, h_est, table.tacs[ti])
    return demap_frame([ti], se.enhance(s_zf[None]), table, constellation)[0]


def legalize_one(p, table):
    return int(tacs_from_probabilities(np.asarray(p)[None], table)[0])


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-3 and cfg.batch == 100

    def test_batch_too_small(self):
        with pytest.raises(ValueError):
            TrainConfig(batch=1)

    def test_max_epochs_positive(self):
        # zero epochs would leave best_val_loss = inf for the JSON log
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)

    def test_gamma1_positive(self):
        with pytest.raises(ValueError):
            TrainConfig(gamma1=0.0)

    def test_gamma2_positive(self):
        with pytest.raises(ValueError):
            TrainConfig(gamma2=-1.0)


class TestBuilders:
    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            build_aapd(0, 16, 4)
        with pytest.raises(ValueError):
            build_se(1, 0)

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            build_aapd(2, 16, 4, variant="quaternion")
        with pytest.raises(ValueError):
            build_se(1, 16, variant="split")

    @pytest.mark.parametrize("variant", ["complex", "real"])
    def test_aapd_output_is_probability_vector(self, variant, np_rng):
        aapd = build_aapd(2, 8, 4, variant=variant,
                          conv_channels=(2, 3), dense_units=(6, 5), seed=1)
        y = np_rng.normal(size=(3, 2, 8)) + 1j * np_rng.normal(size=(3, 2, 8))
        p = aapd.probabilities(y)
        assert p.shape == (3, 4)
        assert np.all(np.isfinite(p)) and np.all((p > 0) & (p < 1))
        single = aapd.probabilities(y[:1])
        assert single.shape == (1, 4)
        assert np.array_equal(single[0], p[0])

    @pytest.mark.parametrize("variant", ["complex", "real"])
    def test_se_preserves_shape(self, variant, np_rng):
        se = build_se(2, 8, variant=variant, channels=(3, 4), seed=1)
        s = np_rng.normal(size=(5, 2, 8)) + 1j * np_rng.normal(size=(5, 2, 8))
        out = se.enhance(s)
        assert out.shape == s.shape
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("variant", ["complex", "real"])
    def test_se_zero_branch_is_identity(self, variant, np_rng):
        se = build_se(1, 6, variant=variant, channels=(2, 2), seed=1)
        zero_params(se.net)
        s = np_rng.normal(size=(4, 1, 6)) + 1j * np_rng.normal(size=(4, 1, 6))
        assert np.array_equal(se.enhance(s), s)


class TestTacLegalization:
    def test_top1_direct(self):
        table = build_tac_table(4, 1)
        p = np.array([0.9, 0.1, 0.8, 0.2])
        assert legalize_one(p, table) == table.tacs.index((1,))

    def test_top2_already_legal_kept(self):
        table = build_tac_table(4, 2, tacs=TAC_PRESET_4X2)
        p = np.array([0.9, 0.1, 0.8, 0.2])
        assert table.tacs[legalize_one(p, table)] == (1, 3)

    def test_illegal_candidate_legalized_by_probability_sum(self):
        # top-2 {1,2} is not in the preset; sums: {1,3}=1.0 beats
        # {1,4}=0.95, {2,3}=0.95, {2,4}=0.9
        table = build_tac_table(4, 2, tacs=TAC_PRESET_4X2)
        p = np.array([0.9, 0.85, 0.1, 0.05])
        assert table.tacs[legalize_one(p, table)] == (1, 3)

    def test_sum_ties_take_earliest_table_entry(self):
        table = build_tac_table(4, 2, tacs=TAC_PRESET_4X2)
        p = np.array([0.5, 0.5, 0.5, 0.5])
        assert legalize_one(p, table) == 0

    def test_result_always_legal(self, np_rng):
        table = build_tac_table(8, 2)  # 28 pairs, table keeps 16
        for _ in range(200):
            p = np_rng.random(8)
            ti = legalize_one(p, table)
            assert 0 <= ti < table.n_l

    def test_one_function_for_aapd_and_somp(self):
        # SOMP legalizes 0/1 support rows with the AAPD legalization
        assert twostage.tacs_from_probabilities is detectors.tacs_from_probabilities

    def test_vectorized_matches_scalar(self, np_rng):
        # random rows, rows rounded to 0.1 (top-N_u and sum ties) and
        # all-equal rows, on tables with and without illegal top-N_u sets
        tables = [build_tac_table(4, 1), build_tac_table(4, 2, tacs=TAC_PRESET_4X2),
                  build_tac_table(8, 2), build_tac_table(8, 3)]
        for table in tables:
            raw = np_rng.random((300, table.n_t))
            p = np.concatenate([raw, np.round(raw, 1),
                                np.full((3, table.n_t), 0.5),
                                np.zeros((1, table.n_t))])
            batch = tacs_from_probabilities(p, table)
            each = [tac_from_probabilities(row, table) for row in p]
            assert np.array_equal(batch, each)


class TestTraining:
    def test_empty_dataset_rejected(self):
        aapd = build_aapd(2, 4, 4, conv_channels=(2, 2), dense_units=(4, 4))
        empty = (np.zeros((0, 2, 4), complex), np.zeros((0, 4)))
        with pytest.raises(ValueError):
            train_aapd(aapd, empty, empty, TrainConfig())
        se = build_se(1, 4, channels=(2, 2))
        empty_se = (np.zeros((0, 1, 4), complex), np.zeros((0, 1, 4), complex))
        with pytest.raises(ValueError):
            train_se(se, empty_se, empty_se, TrainConfig())

    def test_aapd_overfits_single_sample(self, np_rng):
        # one distinct frame duplicated to the minimal legal batch for BN
        y = np_rng.normal(size=(1, 2, 4)) + 1j * np_rng.normal(size=(1, 2, 4))
        g = np.array([[1.0, 0.0, 0.0, 0.0]])
        y2, g2 = np.repeat(y, 2, axis=0), np.repeat(g, 2, axis=0)
        aapd = build_aapd(2, 4, 4, conv_channels=(2, 2), dense_units=(4, 4), seed=3)
        cfg = TrainConfig(lr=0.05, batch=2, max_epochs=400, gamma1=1e-3, seed=3)
        hist = train_aapd(aapd, (y2, g2), (y2, g2), cfg)
        done = hist[-1]
        assert done["event"] == "done"
        assert done["best_val_loss"] < 1e-3

    def test_aapd_best_checkpoint_kept(self, np_rng):
        y = np_rng.normal(size=(8, 2, 4)) + 1j * np_rng.normal(size=(8, 2, 4))
        g = (np_rng.random((8, 4)) < 0.25).astype(float)
        aapd = build_aapd(2, 4, 4, conv_channels=(2, 2), dense_units=(4, 4), seed=4)
        cfg = TrainConfig(lr=0.05, batch=4, max_epochs=12, gamma1=1e-9, seed=4)
        hist = train_aapd(aapd, (y, g), (y, g), cfg)
        done = hist[-1]
        epochs = [h for h in hist if "epoch" in h]
        assert done["best_val_loss"] == min(h["val_loss"] for h in epochs)
        assert not done["converged"]  # unreachable target hits the epoch cap

    def test_se_overfits_single_sample(self, np_rng):
        s = np_rng.normal(size=(1, 1, 4)) + 1j * np_rng.normal(size=(1, 1, 4))
        z = s + 0.7 * (np_rng.normal(size=s.shape) + 1j * np_rng.normal(size=s.shape))
        se = build_se(1, 4, channels=(2, 2), seed=5)
        cfg = TrainConfig(lr=0.02, batch=2, max_epochs=800, gamma2=1e-4, seed=5)
        hist = train_se(se, (z, s), (z, s), cfg)
        done = hist[-1]
        assert done["event"] == "done"
        assert done["best_val_loss"] < 1e-4

    @pytest.mark.parametrize("where", ["train", "val"])
    def test_non_finite_loss_raises(self, where, np_rng):
        # one NaN input must stop training, not run to the epoch cap on
        # NaN weights
        def with_nan(x):
            bad = x.copy()
            bad[3, 0, 2] = np.nan
            return (bad, x) if where == "train" else (x, bad)

        y = np_rng.normal(size=(8, 2, 4)) + 1j * np_rng.normal(size=(8, 2, 4))
        g = (np_rng.random((8, 4)) < 0.25).astype(float)
        cfg = TrainConfig(batch=4, max_epochs=3, seed=4)
        tr, va = with_nan(y)
        aapd = build_aapd(2, 4, 4, conv_channels=(2, 2), dense_units=(4, 4), seed=4)
        with pytest.raises(FloatingPointError):
            train_aapd(aapd, (tr, g), (va, g), cfg)
        s = y[:, :1, :]
        tr, va = with_nan(s)
        se = build_se(1, 4, channels=(2, 2), seed=4)
        with pytest.raises(FloatingPointError):
            train_se(se, (tr, s), (va, s), cfg)

    def test_se_floor_is_zf_input_mse(self, np_rng):
        s = np_rng.normal(size=(3, 1, 4)) + 1j * np_rng.normal(size=(3, 1, 4))
        z = s + 0.1
        se = build_se(1, 4, channels=(2, 2), seed=6)
        cfg = TrainConfig(max_epochs=1, seed=6)
        hist = train_se(se, (z, s), (z, s), cfg)
        floor = hist[0]["zf_floor"]
        want = np.mean([np.sum(np.abs(z[i] - s[i]) ** 2) for i in range(3)])
        assert floor == pytest.approx(want, rel=1e-12)


class TestTrainFull:
    def make_data(self, n):
        cfg = ExperimentConfig(n_t=4, n_u=1, n_r=2, m=4, t=4, seed=11)
        return generate_arrays(cfg, 15.0, n, 0), table_for(cfg)

    def test_stage_order_and_history(self):
        data, table = self.make_data(32)
        cfg = TrainConfig(lr=0.02, batch=8, max_epochs=3, gamma1=1e-9, seed=7)
        aapd, se, hist = train_full(data, data, cfg, table,
                                    conv_channels=(2, 2), dense_units=(4, 4),
                                    se_channels=(2, 2))
        stages = [(h["stage"], h.get("event")) for h in hist if "event" in h]
        frozen = stages.index(("aapd", "frozen"))
        se_start = stages.index(("se", "start"))
        assert frozen < se_start  # SE data exists only after AAPD freeze
        assert aapd.variant == "complex" and se.variant == "complex"
        times = [h["time"] for h in hist if "time" in h]
        assert times == sorted(times)

    def test_real_variant_builds_real_nets(self):
        data, table = self.make_data(16)
        cfg = TrainConfig(lr=0.02, batch=8, max_epochs=1, gamma1=1e-9, seed=7)
        aapd, se, _ = train_full(data, data, cfg, table, variant="real",
                                 conv_channels=(2, 2), dense_units=(4, 4),
                                 se_channels=(2, 2))
        kinds = {l.kind for l in aapd.net.layers}
        assert "complex_conv2d" not in kinds and "real_conv2d" in kinds


class TestInference:
    def setup_method(self):
        cfg = ExperimentConfig(n_t=4, n_u=1, n_r=2, m=4, t=8, seed=21)
        self.cfg = cfg
        self.table = table_for(cfg)
        self.const = QamConstellation(cfg.m)
        self.data = generate_arrays(cfg, 12.0, 12, 0)
        self.aapd = build_aapd(cfg.n_r, cfg.t, cfg.n_t,
                               conv_channels=(2, 2), dense_units=(4, 4), seed=8)
        self.se = build_se(cfg.n_u, cfg.t, channels=(2, 2), seed=8)

    def test_oracle_tac_identity_se_equals_zf_pipeline(self):
        zero_params(self.se.net)  # residual branch off: SE is the identity
        for i in range(6):
            ti = int(np.flatnonzero(self.data["g"][i])[0])
            ti = self.table.tacs.index((ti + 1,))
            s_zf = zf_one(self.data["y"][i], self.data["h_est"][i],
                          self.table.tacs[ti])[None]
            got = demap_frame([ti], self.se.enhance(s_zf), self.table, self.const)
            want = demap_frame([ti], s_zf, self.table, self.const)
            assert np.array_equal(got, want)

    def test_probabilities_ignore_csi(self, np_rng):
        # only the ZF stage reads h_est; stage-1 output must not move
        y = self.data["y"][:4]
        p1 = self.aapd.probabilities(y)
        p2 = self.aapd.probabilities(y)
        assert np.array_equal(p1, p2)
        h_a = self.data["h_est"][:4]
        h_b = h_a + (np_rng.normal(size=h_a.shape)
                     + 1j * np_rng.normal(size=h_a.shape))
        bits_a, tacs_a = detect_frames(y, h_a, self.aapd, self.se,
                                       self.table, self.const)
        bits_b, tacs_b = detect_frames(y, h_b, self.aapd, self.se,
                                       self.table, self.const)
        assert np.array_equal(tacs_a, tacs_b)

    def test_batch_matches_per_frame(self):
        y, h = self.data["y"], self.data["h_est"]
        bits, tacs = detect_frames(y, h, self.aapd, self.se, self.table,
                                   self.const, chunk=5)
        for i in range(len(y)):
            one = detect_frame(y[i], h[i], self.aapd, self.se, self.table,
                               self.const)
            assert np.array_equal(one, bits[i])

    def test_inference_deterministic(self):
        y, h = self.data["y"], self.data["h_est"]
        a = detect_frames(y, h, self.aapd, self.se, self.table, self.const)
        b = detect_frames(y, h, self.aapd, self.se, self.table, self.const)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_zf_dataset_shapes_and_legality(self):
        z, tacs = build_zf_dataset(self.aapd, self.data["y"],
                                   self.data["h_est"], self.table)
        assert z.shape == (12, self.table.n_u, self.cfg.t)
        assert np.all((tacs >= 0) & (tacs < self.table.n_l))
        for i in range(len(z)):
            want = zf_one(self.data["y"][i], self.data["h_est"][i],
                          self.table.tacs[tacs[i]])
            assert np.array_equal(z[i], want)
