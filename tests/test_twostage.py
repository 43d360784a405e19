"""Two-stage detector: builders, TAC legalization, training loops, inference."""

import tracemalloc

import numpy as np
import pytest

from dataclasses import replace

from immimo import detectors, twostage
from immimo.config import ExperimentConfig
from immimo.cvnn import Model, layers
from immimo.dataset import generate_arrays, table_for
from immimo.linalg import Rng, ls_solve
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


# the codebook of the 4-antenna, one-active AAPD tests below
TABLE_4X1 = build_tac_table(4, 1)


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
    if cand in table.tacs:
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

    @pytest.mark.parametrize("lr", [0.0, -1.0])
    def test_lr_positive(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)

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
    def test_epoch_batches_cover_each_index_once_without_one_frame_batches(self):
        for n in range(1, 21):
            for batch in range(2, 7):
                perm = Rng(n).derive(batch).permutation(n)
                parts = twostage._epoch_batches(n, batch, Rng(n).derive(batch))
                # the permutation's order, cut into minibatches
                assert np.array_equal(np.concatenate(parts), perm)
                sizes = [len(p) for p in parts]
                assert all(size == batch for size in sizes[:-1]), (n, batch, sizes)
                assert 2 <= sizes[-1] <= batch + 1 or n == 1, (n, batch, sizes)

    def test_empty_dataset_rejected(self):
        aapd = build_aapd(2, 4, 4, conv_channels=(2, 2), dense_units=(4, 4))
        empty = (np.zeros((0, 2, 4), complex), np.zeros((0, 4)))
        with pytest.raises(ValueError):
            train_aapd(aapd, empty, empty, TrainConfig(), TABLE_4X1)
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
        hist = train_aapd(aapd, (y2, g2), (y2, g2), cfg, TABLE_4X1)
        done = hist[-1]
        assert done["event"] == "done"
        assert done["best_val_loss"] < 1e-3

    def test_aapd_best_checkpoint_kept(self, np_rng):
        y = np_rng.normal(size=(8, 2, 4)) + 1j * np_rng.normal(size=(8, 2, 4))
        g = (np_rng.random((8, 4)) < 0.25).astype(float)
        aapd = build_aapd(2, 4, 4, conv_channels=(2, 2), dense_units=(4, 4), seed=4)
        cfg = TrainConfig(lr=0.05, batch=4, max_epochs=12, gamma1=1e-9, seed=4)
        hist = train_aapd(aapd, (y, g), (y, g), cfg, TABLE_4X1)
        done = hist[-1]
        epochs = [h for h in hist if "epoch" in h]
        assert done["best_val_loss"] == min(h["val_loss"] for h in epochs)
        assert not done["converged"]  # unreachable target hits the epoch cap

    @pytest.mark.parametrize("gamma1, reason", [(10.0, "target"), (1e-9, "epoch_cap")])
    def test_done_record_says_why_training_stopped(self, gamma1, reason, np_rng):
        y = np_rng.normal(size=(8, 2, 4)) + 1j * np_rng.normal(size=(8, 2, 4))
        g = (np_rng.random((8, 4)) < 0.25).astype(float)
        aapd = build_aapd(2, 4, 4, conv_channels=(2, 2), dense_units=(4, 4), seed=4)
        cfg = TrainConfig(batch=4, max_epochs=3, gamma1=gamma1, seed=4)
        hist = train_aapd(aapd, (y, g), (y, g), cfg, TABLE_4X1)
        done = hist[-1]
        epochs = [h for h in hist if "epoch" in h]
        assert done["stop_reason"] == reason
        assert done["converged"] == (reason == "target")
        assert len(epochs) == (1 if reason == "target" else cfg.max_epochs)

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
            train_aapd(aapd, (tr, g), (va, g), cfg, TABLE_4X1)
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
        assert aapd.net.meta["variant"] == "complex" and se.net.meta["variant"] == "complex"
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

    def assert_batch_matches_per_frame(self, y, h):
        bits, tacs = detect_frames(y, h, self.aapd, self.se, self.table,
                                   self.const)
        assert len(bits) == len(tacs) == len(y)
        for i in range(len(y)):
            one = detect_frame(y[i], h[i], self.aapd, self.se, self.table,
                               self.const)
            assert np.array_equal(one, bits[i]), i

    def test_batch_matches_per_frame(self):
        self.assert_batch_matches_per_frame(self.data["y"], self.data["h_est"])

    def test_more_frames_than_a_net_pass_match_per_frame(self):
        # the nets run 256 frames at a time; ZF, legalization and demapping
        # run over the whole batch
        data = generate_arrays(self.cfg, 12.0, 300, 0)
        self.assert_batch_matches_per_frame(data["y"], data["h_est"])

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


# the benchmark systems, 15 dB: (n_t, n_u, n_r, t, m) and CSI error variance
PRECISION_SYSTEMS = {
    "4x1-static": (dict(n_t=4, n_u=1, n_r=4, t=16, m=4), 0.0),
    "8x2-csi": (dict(n_t=8, n_u=2, n_r=8, t=16, m=4), 0.01),
}


def upcast(net):
    """`net` with every tensor upcast to float64/complex128: the precision
    a loaded checkpoint used to infer at."""
    net.set_tensors([(k, a.astype(np.complex128 if np.iscomplexobj(a) else np.float64))
                     for k, a in net.tensor_items()])
    return net


def per_call_infer_map(bn):
    """ComplexBatchNorm's infer-mode map as its forward computed it on
    every call before the memo: the complex128 a, b and c, which the
    forward casts to its dtype."""
    v11, v12, v22 = (np.asarray(v, dtype=np.float64) for v in bn.running_v.T)
    v11, v22 = v11 + bn.eps, v22 + bn.eps
    # V^(-1/2) = t adj(V + sI) / (s t^2), s = sqrt(det V), t = sqrt(tr V + 2s)
    s = np.sqrt(v11 * v22 - v12 * v12)
    t = np.sqrt(v11 + v22 + 2.0 * s)
    denom = s * t
    w = np.stack([np.stack([(v22 + s) / denom, -v12 / denom], -1),
                  np.stack([-v12 / denom, (v11 + s) / denom], -1)], -2)
    a, b = layers._widely_linear(np.asarray(bn.gamma, dtype=np.float64) @ w)
    mean = np.asarray(bn.running_mean, dtype=np.complex128)
    c = bn.beta.astype(np.complex128) - (a * mean + b * mean.conj())
    return a, b, c


def precision_nets(name, tmp_path_factory, settle):
    """Seed-built nets at default widths after a checkpoint round trip, at
    checkpoint precision and as a float64 twin, plus 512 frames. With
    `settle`, train-mode AAPD forwards over other frames of the system move
    its batch-norm running statistics off their start (zero mean, identity
    covariance) before the save."""
    system, csi = PRECISION_SYSTEMS[name]
    cfg = ExperimentConfig(**system, csi_error_var=csi, seed=1)
    root = tmp_path_factory.mktemp(name)
    built = (build_aapd(cfg.n_r, cfg.t, cfg.n_t, seed=1), build_se(cfg.n_u, cfg.t, seed=1))
    if settle:
        y = generate_arrays(cfg, 15.0, 1024, 512)["y"]
        for i in range(0, len(y), 64):
            built[0].net.forward(y[i:i + 64, None], train=True)
    for i, model in enumerate(built):
        model.net.save(root / f"{i}.cvnn")
    loaded = [replace(m, net=Model.load(root / f"{i}.cvnn")) for i, m in enumerate(built)]
    twin = [replace(m, net=upcast(Model.load(root / f"{i}.cvnn")))
            for i, m in enumerate(built)]
    return {"table": table_for(cfg), "const": QamConstellation(cfg.m),
            "data": generate_arrays(cfg, 15.0, 512, 0), "loaded": loaded, "twin": twin}


@pytest.fixture(scope="module", params=sorted(PRECISION_SYSTEMS))
def precision_case(request, tmp_path_factory):
    """Seed-built nets at checkpoint precision and their float64 twin."""
    return precision_nets(request.param, tmp_path_factory, settle=False)


class TestCheckpointPrecision:
    """Detection at checkpoint precision (complex64/float32) decides as the
    float64 path did."""

    def test_decisions_equal_the_float64_path(self, precision_case):
        c = precision_case
        y, h = c["data"]["y"], c["data"]["h_est"]
        got = detect_frames(y, h, *c["loaded"], c["table"], c["const"])
        want = detect_frames(y, h, *c["twin"], c["table"], c["const"])
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[0], want[0])
        p = c["loaded"][0].probabilities(y)
        q = c["twin"][0].probabilities(y)
        assert q.dtype == np.float64
        assert np.max(np.abs(p - q)) <= 1e-5

    def test_probabilities_are_float32(self, precision_case):
        c = precision_case
        assert c["loaded"][0].probabilities(c["data"]["y"][:3]).dtype == np.float32

    def test_batch_of_one_equals_batched(self, precision_case):
        c = precision_case
        y, h = c["data"]["y"], c["data"]["h_est"]
        bits, tacs = detect_frames(y, h, *c["loaded"], c["table"], c["const"])
        for i in range(len(y)):
            one = detect_frames(y[i:i + 1], h[i:i + 1], *c["loaded"], c["table"],
                                c["const"])
            assert int(one[1][0]) == int(tacs[i]), i
            assert np.array_equal(one[0][0], bits[i]), i

    def test_memoized_path_equals_the_cache_free_one(self, precision_case, monkeypatch):
        """Probabilities, TACs and bits at batch 1 and 256 equal those of
        the per-call forms: batch-norm coefficients recomputed on every
        call, windows from sliding_window_view and every chunk
        concatenated."""
        c = precision_case
        y, h = c["data"]["y"], c["data"]["h_est"]
        args = (*c["loaded"], c["table"], c["const"])

        def outputs():
            one = [(c["loaded"][0].probabilities(y[i:i + 1]),
                    *detect_frames(y[i:i + 1], h[i:i + 1], *args)) for i in range(16)]
            return one + [(c["loaded"][0].probabilities(y[:256]),
                           *detect_frames(y[:256], h[:256], *args))]

        got = outputs()
        monkeypatch.setattr(layers.ComplexBatchNorm, "_infer_map", per_call_infer_map)
        monkeypatch.setattr(layers, "_windows", lambda x, k, pad: (
            np.lib.stride_tricks.sliding_window_view(layers._pad(x, pad), (k, k),
                                                     axis=(2, 3))))
        monkeypatch.setattr(twostage, "_joined", np.concatenate)
        want = outputs()
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                assert a.dtype == b.dtype and np.array_equal(a, b)


class TestCheckpointPrecisionSettledNorms(TestCheckpointPrecision):
    """The same checks with batch-norm running statistics taken from frames:
    a non-zero mean and a covariance that is not a multiple of the identity
    exercise every term of the complex batch norm's widely-linear map."""

    @pytest.fixture(scope="class", params=sorted(PRECISION_SYSTEMS))
    def precision_case(self, request, tmp_path_factory):
        case = precision_nets(request.param, tmp_path_factory, settle=True)
        first, second = (case["loaded"][0].net.layers[i] for i in (1, 4))
        # the first norm sees circular input: mean near 0, V near s^2 I, s^2 < 1
        assert np.abs(first.running_v[:, [0, 2]] - 1).min() > 0.5
        # after a conv and a ReLU, the second has every term
        v11, v12, v22 = second.running_v.T
        assert np.abs(second.running_mean).max() > 0.1
        assert np.abs(v12).max() > 1e-3 and np.abs(v11 - v22).max() > 1e-3
        return case


@pytest.mark.parametrize("role, variant", [("aapd", "complex"), ("aapd", "real"),
                                           ("se", "complex")],
                         ids=["aapd-complex", "aapd-real", "se"])
def test_inference_leaves_no_activations(role, variant, np_rng):
    """A 256-frame inference pass of a 4x1-static net at checkpoint
    precision, its output dropped, leaves less than 1 MiB allocated: no
    layer keeps an activation (the AAPD's forward caches are tens of MiB)."""
    if role == "aapd":
        model = build_aapd(4, 16, 4, variant=variant, seed=1)
        run, rows = model.probabilities, 4
    else:
        model = build_se(1, 16, variant=variant, seed=1)
        run, rows = model.enhance, 1
    model.net.quantize_state()
    x = np_rng.normal(size=(256, rows, 16)) + 1j * np_rng.normal(size=(256, rows, 16))
    tracemalloc.start()
    try:
        run(x)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20
