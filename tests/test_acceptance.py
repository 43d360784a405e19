"""End-to-end acceptance checks for the toolkit's headline guarantees.

Grouped by subject: exactness of the classical detectors, the complex layer
stack against naive oracles, parameter accounting, batch-norm whitening,
quality of the trained two-stage detector on held-out frames, robustness
under CSI estimation error, and determinism of the on-disk formats. The
training-backed checks share session fixtures so each network is trained
once per run; every timed bound is wall time on a single worker (conftest
pins the BLAS pools).
"""

import math
import time
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from immimo.cli import main
from immimo.config import ExperimentConfig
from immimo.cvnn.layers import ComplexBatchNorm, ComplexConv2d
from immimo.cvnn.model import count_params
from immimo.dataset import DatasetHeader, generate_arrays, table_for
from immimo.detectors import somp_supports, zf_estimate
from immimo.modulation import QamConstellation
from immimo.runner import (BENCH_COLUMNS, EVAL_COLUMNS, SWEEP_COLUMNS,
                           checkpoint_paths, load_detector, rows_to_csv,
                           run_classical, run_nn)
from immimo.twostage import (TrainConfig, build_aapd, build_se, detect_frames,
                             train_full)

from _gradcheck import make_case, run_case
from test_cvnn_layers import naive_complex_conv

pytestmark = pytest.mark.acceptance

# One training budget for every learned check. The quality targets are read
# against classical baselines measured on the same held-out frames, so they
# stay meaningful whatever the absolute numbers are for a given seed.
BUDGET = TrainConfig(lr=1e-3, batch=100, max_epochs=40, gamma1=0.05, seed=1)
DESK = dict(n_t=4, n_u=1, n_r=2, m=4, t=16, seed=2)
DESK_WIDTHS = dict(conv_channels=(8, 16), dense_units=(64, 32),
                   se_channels=(8, 8))
DESK_SNR = 10.0


def crand(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def exhaustive_support(y, h, n_u):
    """Best size-n_u support by least-squares residual, scanning all of them."""
    best, best_r = None, np.inf
    for sup in combinations(range(1, h.shape[1] + 1), n_u):
        sub = h[:, [a - 1 for a in sup]]
        s, *_ = np.linalg.lstsq(sub, y, rcond=None)
        r = np.linalg.norm(y - sub @ s)
        if r < best_r:
            best_r, best = r, sup
    return best


@pytest.fixture(scope="session")
def desk_data():
    """Single-active-antenna 4QAM setup at 10 dB, small receive array,
    20k/5k/5k frames."""
    cfg = ExperimentConfig(**DESK)
    t0 = time.perf_counter()
    train = generate_arrays(cfg, DESK_SNR, 20000, 0)
    val = generate_arrays(cfg, DESK_SNR, 5000, 20000)
    test = generate_arrays(cfg, DESK_SNR, 5000, 25000)
    return dict(cfg=cfg, table=table_for(cfg), const=QamConstellation(cfg.m),
                train=train, val=val, test=test,
                gen_s=time.perf_counter() - t0)


def _train_and_score(data, variant):
    t0 = time.perf_counter()
    aapd, se, history = train_full(data["train"], data["val"], BUDGET,
                                   data["table"], variant, **DESK_WIDTHS)
    train_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    row = run_nn(aapd, se, data["test"], data["table"], data["const"])
    return dict(aapd=aapd, se=se, history=history, row=row,
                train_s=train_s, eval_s=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def desk_complex(desk_data):
    return _train_and_score(desk_data, "complex")


@pytest.fixture(scope="session")
def desk_real(desk_data):
    return _train_and_score(desk_data, "real")


@pytest.fixture(scope="session")
def desk_classical(desk_data):
    d = desk_data
    return {m: run_classical(m, d["test"], d["table"], d["const"])
            for m in ("ml", "somp")}


class TestClassicalExactness:
    def test_ml_is_exact_without_noise(self):
        cfg = ExperimentConfig(n_t=4, n_u=1, n_r=4, m=4, t=16, seed=1)
        t0 = time.perf_counter()
        data = generate_arrays(cfg, float("inf"), 1000, 0)
        row = run_classical("ml", data, table_for(cfg),
                            QamConstellation(cfg.m))
        elapsed = time.perf_counter() - t0
        assert row["ber"] == 0.0
        assert row["aap_accuracy"] == 1.0
        assert elapsed < 10.0

    def test_zf_weights_invert_the_channel_on_the_support(self):
        rng = np.random.default_rng(0)
        eye_err = 0.0
        t0 = time.perf_counter()
        for _ in range(1000):
            n_r = int(rng.integers(2, 9))
            n_t = int(rng.integers(2, 13))
            n_u = int(rng.integers(1, min(n_r, n_t) + 1))
            while True:
                h = crand(rng, (n_r, n_t)) / np.sqrt(2.0)
                cols = np.sort(rng.choice(n_t, size=n_u, replace=False))
                sub = h[:, cols]
                if np.linalg.cond(sub) < 1e3:
                    break
            w = zf_estimate(np.eye(n_r)[None], h[None], cols[None])[0]
            err = np.linalg.norm(w @ sub - np.eye(n_u))
            eye_err = max(eye_err, float(err))
        elapsed = time.perf_counter() - t0
        assert eye_err < 1e-9
        assert elapsed < 5.0

    def test_somp_matches_exhaustive_residual_search(self):
        # greedy selection ranks columns by an l1 correlation score, the
        # exhaustive search by true least-squares residual; at high SNR
        # they must agree on nearly every frame
        cfg = ExperimentConfig(n_t=4, n_u=1, n_r=4, m=4, t=16, seed=1)
        t0 = time.perf_counter()
        data = generate_arrays(cfg, 25.0, 10000, 0)
        y, h_est = data["y"], data["h_est"]
        supports = somp_supports(y, h_est, cfg.n_u) + 1
        agree = sum(
            tuple(supports[f]) == exhaustive_support(y[f], h_est[f], cfg.n_u)
            for f in range(len(y)))
        elapsed = time.perf_counter() - t0
        assert agree / len(y) >= 0.99
        assert elapsed < 60.0


class TestLayerStack:
    def test_complex_conv_matches_naive_reference(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            pad = "same" if rng.integers(2) else "valid"
            lo = k if pad == "valid" else 1
            h = int(rng.integers(lo, lo + 5))
            w = int(rng.integers(lo, lo + 5))
            b = int(rng.integers(1, 4))
            layer = ComplexConv2d(cin, cout, k, pad)
            layer.weight = crand(rng, (cout, cin, k, k))
            layer.bias = crand(rng, (cout,))
            x = crand(rng, (b, cin, h, w))
            got = layer.forward(x)
            want = naive_complex_conv(x, layer.weight, layer.bias, pad)
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-12

    @pytest.mark.parametrize("kind", [
        "complex_conv2d", "complex_dense", "complex_relu", "complex_batchnorm",
        "real_head_dense"])
    @pytest.mark.parametrize("loss_name", ["bce", "mse"])
    def test_layer_gradients_match_finite_differences(self, kind, loss_name):
        for seed in range(20):
            model, x, target = make_case(kind, loss_name, seed)
            worst = run_case(model, x, target, loss_name)
            assert worst < 1e-4, (
                f"{kind}/{loss_name} seed {seed}: rel err {worst:.2e}")

    def test_batchnorm_whitens_each_channel(self):
        channels, batch = 20, 1024
        rng = np.random.default_rng(7)
        layer = ComplexBatchNorm(channels)
        # identity gamma and zero beta expose the whitened tensor directly
        layer.gamma = np.tile(np.eye(2), (channels, 1, 1))
        layer.beta = np.zeros(channels, dtype=np.complex128)
        # per channel: random mean plus a random well-conditioned 2x2 mixing
        # of the (re, im) pair, so the input has nontrivial cross-covariance
        base = rng.normal(size=(batch, channels, 2))
        mix = np.empty((channels, 2, 2))
        for c in range(channels):
            u, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            v, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            mix[c] = u @ np.diag(rng.uniform(0.7, 2.5, size=2)) @ v
        mixed = np.einsum("bci,cij->bcj", base, mix)
        mixed += rng.normal(size=(channels, 2))[None] * 3.0
        x = mixed[..., 0] + 1j * mixed[..., 1]
        out = layer.forward(x, train=True)
        re, im = out.real, out.imag
        assert np.max(np.abs(re.mean(axis=0))) < 1e-2
        assert np.max(np.abs(im.mean(axis=0))) < 1e-2
        assert np.max(np.abs(re.var(axis=0) - 1.0)) < 1e-2
        assert np.max(np.abs(im.var(axis=0) - 1.0)) < 1e-2
        cross = (re * im).mean(axis=0) - re.mean(axis=0) * im.mean(axis=0)
        assert np.max(np.abs(cross)) < 1e-2


class TestParameterAccounting:
    def test_complex_variant_halves_parameter_count(self):
        for n_r, t, n_t, n_u in ((4, 16, 4, 1), (8, 16, 8, 2)):
            cx = count_params(build_aapd(n_r, t, n_t, "complex").net)
            rx = count_params(build_aapd(n_r, t, n_t, "real").net)
            assert 2 * cx == rx
            cx = count_params(build_se(n_u, t, "complex").net)
            rx = count_params(build_se(n_u, t, "real").net)
            assert 2 * cx == rx


class TestTrainedDetector:
    def test_learned_detector_beats_somp_and_tracks_ml(
            self, desk_data, desk_complex, desk_classical):
        nn = desk_complex["row"]
        ml, somp = desk_classical["ml"], desk_classical["somp"]
        assert nn["aap_accuracy"] >= 0.95
        assert nn["ber"] < somp["ber"]
        assert nn["ber"] <= 10.0 * ml["ber"]
        total = (desk_data["gen_s"] + desk_complex["train_s"]
                 + desk_complex["eval_s"])
        assert total < 1800.0

    def test_complex_variant_not_inferior_to_real_twin(
            self, desk_complex, desk_real):
        cx = desk_complex["row"]["aap_accuracy"]
        rx = desk_real["row"]["aap_accuracy"]
        assert cx >= rx - 0.01

    def test_ordering_holds_on_a_correlated_channel(self):
        cfg = ExperimentConfig(n_t=8, n_u=2, n_r=8, m=16, t=16, seed=1,
                               rho=0.5)
        table, const = table_for(cfg), QamConstellation(cfg.m)
        t0 = time.perf_counter()
        train = generate_arrays(cfg, 20.0, 10000, 0)
        val = generate_arrays(cfg, 20.0, 2500, 10000)
        test = generate_arrays(cfg, 20.0, 2500, 12500)
        aapd, se, _ = train_full(train, val, BUDGET, table, "complex",
                                 conv_channels=(8, 16), dense_units=(64, 32),
                                 se_channels=(8, 8))
        nn = run_nn(aapd, se, test, table, const)
        ml = run_classical("ml", test, table, const)
        somp = run_classical("somp", test, table, const)
        elapsed = time.perf_counter() - t0
        assert nn["ber"] < somp["ber"]
        assert ml["ber"] <= 1.5 * nn["ber"]
        assert elapsed < 2700.0


@pytest.fixture(scope="session")
def sweep():
    """Train at 15 dB with perfect CSI, test under growing CSI error."""
    cfg = ExperimentConfig(**DESK)
    table, const = table_for(cfg), QamConstellation(cfg.m)
    train = generate_arrays(cfg, 15.0, 20000, 0)
    val = generate_arrays(cfg, 15.0, 5000, 20000)
    aapd, se, _ = train_full(train, val, BUDGET, table, "complex",
                             **DESK_WIDTHS)
    points = []
    for err in cfg.sweep_error_var:
        test = generate_arrays(replace(cfg, csi_error_var=err),
                               15.0, 5000, 25000)
        points.append(dict(
            err=err,
            nn=run_nn(aapd, se, test, table, const)["ber"],
            ml=run_classical("ml", test, table, const)["ber"],
            somp=run_classical("somp", test, table, const)["ber"]))
    per_frame = DatasetHeader(cfg.n_t, cfg.n_u, cfg.n_r, cfg.t, cfg.m,
                              15.0, 5000, cfg.seed).bits_per_frame
    return dict(points=points, n_bits=5000 * per_frame)


class TestCsiRobustness:
    def test_ber_never_improves_with_worse_csi(self, sweep):
        n = sweep["n_bits"]
        for det in ("ml", "somp", "nn"):
            seq = [p[det] for p in sweep["points"]]
            for lo, hi in zip(seq, seq[1:]):
                stderr = math.sqrt(max(lo * (1.0 - lo), 1e-12) / n)
                assert hi >= lo - 2.0 * stderr, (
                    f"{det}: {seq} not non-decreasing")

    def test_learned_detector_closes_on_ml_under_csi_error(self, sweep):
        first, last = sweep["points"][0], sweep["points"][-1]
        assert last["nn"] - last["ml"] < first["nn"] - first["ml"]


SMALL_CFG = """
n_t = 4
n_u = 1
n_r = 2
t = 8
m = 4
snr_db = 12
frames_train = 40
frames_val = 10
frames_test = 10
seed = 5
"""

GOLDEN_EVAL = "schema,detector,snr_db,frames,ber,aap_accuracy,wall_time_s"
GOLDEN_BENCH = "schema,detector,params,flops_per_frame,latency_ms_median,trials"
GOLDEN_SWEEP = ("schema,detector,snr_db,csi_error_var,frames,ber,"
                "aap_accuracy,wall_time_s")


class TestDeterminism:
    def test_gen_data_is_reproducible_byte_for_byte(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["gen-data", "--config", str(cfg), "--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert names == ["snr12_test.imds", "snr12_train.imds",
                         "snr12_val.imds"]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_checkpoint_roundtrip_preserves_inference(
            self, tmp_path, desk_data, desk_complex):
        aapd, se = desk_complex["aapd"], desk_complex["se"]
        aapd_path, se_path = checkpoint_paths(str(tmp_path), "complex",
                                              DESK_SNR)
        aapd.net.save(aapd_path)
        se.net.save(se_path)
        aapd2, se2 = load_detector(str(tmp_path), "complex", DESK_SNR)
        y = desk_data["test"]["y"][:500]
        h_est = desk_data["test"]["h_est"][:500]
        assert np.array_equal(aapd.probabilities(y), aapd2.probabilities(y))
        bits, tacs = detect_frames(y, h_est, aapd, se, desk_data["table"],
                                   desk_data["const"])
        bits2, tacs2 = detect_frames(y, h_est, aapd2, se2, desk_data["table"],
                                     desk_data["const"])
        assert np.array_equal(tacs, tacs2)
        assert np.array_equal(bits, bits2)

    def test_results_headers_are_frozen(self):
        assert rows_to_csv([], EVAL_COLUMNS).splitlines()[0] == GOLDEN_EVAL
        assert rows_to_csv([], BENCH_COLUMNS).splitlines()[0] == GOLDEN_BENCH
        assert rows_to_csv([], SWEEP_COLUMNS).splitlines()[0] == GOLDEN_SWEEP
