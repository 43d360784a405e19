"""Model container, checkpoint format, Adam, losses, complexity accounting."""

import json
import struct

import numpy as np
import pytest

from immimo.cvnn import (
    Adam,
    ComplexDense,
    ComplexReLU,
    Model,
    RealDense,
    RealHeadDense,
    RealReLU,
    RealSigmoid,
    bce,
    bce_backward,
    count_flops,
    count_params,
    mse,
    mse_backward,
)
from immimo.cvnn.layers import ComplexConv2d, RealConv2d
from immimo.linalg import Rng
from immimo.twostage import build_aapd, build_se


def small_model(seed=5):
    rng = Rng(seed)
    return Model([
        ComplexDense(6, 4, rng=rng.derive(0)),
        ComplexReLU(),
        RealHeadDense(8, 3, rng=rng.derive(1)),
        RealSigmoid(),
    ], meta={"role": "test"})


def train_steps(model, steps, seed=7, lr=1e-3):
    rng = np.random.default_rng(seed)
    opt = Adam(model, lr=lr)
    for _ in range(steps):
        x = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
        g = (rng.random((8, 3)) < 0.5).astype(float)
        p = model.forward(x, train=True)
        model.backward(bce_backward(p, g))
        opt.step()
    return opt


class TestLosses:
    def test_bce_half_probabilities_is_ln2(self):
        # any targets against p=0.5 cost exactly ln 2 per entry
        p = np.full((1, 2), 0.5)
        g = np.array([[1.0, 0.0]])
        assert bce(p, g) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_bce_perfect_prediction_near_zero(self):
        g = np.array([[1.0, 0.0, 1.0]])
        assert bce(g, g) < 1e-6

    def test_bce_hand_value(self):
        # -(log 0.25 + log 0.6) / 2
        p = np.array([[0.25, 0.4]])
        g = np.array([[1.0, 0.0]])
        want = -(np.log(0.25) + np.log(0.6)) / 2
        assert bce(p, g) == pytest.approx(want, rel=1e-12)

    def test_bce_shape_mismatch(self):
        with pytest.raises(ValueError):
            bce(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_bce_backward_matches_formula(self):
        p = np.array([[0.25, 0.8]])
        g = np.array([[1.0, 0.0]])
        grad = bce_backward(p, g)
        want = np.array([[-1 / 0.25, 1 / 0.2]]) / 2
        assert np.allclose(grad, want, rtol=1e-12)

    def test_bce_backward_zero_inside_clip(self):
        p = np.array([[0.0, 1.0]])
        g = np.array([[0.0, 1.0]])
        assert np.all(bce_backward(p, g) == 0.0)

    def test_mse_exact_match_zero(self):
        s = np.array([[1 + 2j, -1j]])
        assert mse(s, s) == 0.0

    def test_mse_hand_value(self):
        s_hat = np.array([[1 + 1j], [0j]])
        s = np.array([[0j], [0j]])
        # sample errors 2 and 0, batch mean 1
        assert mse(s_hat, s) == pytest.approx(1.0, rel=1e-12)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 3), complex), np.zeros((3, 2), complex))

    def test_mse_backward_is_wirtinger_gradient(self):
        # f(z) = |z|^2 has packed gradient 2z
        z = np.array([[1 + 2j]])
        grad = mse_backward(z, np.zeros_like(z))
        assert np.allclose(grad, np.array([[2 + 4j]]), rtol=1e-12)


class TestCheckpoint:
    def test_save_load_identical_forward(self, tmp_path):
        model = small_model()
        train_steps(model, 5)
        path = tmp_path / "m.cvnn"
        model.save(path)
        loaded = Model.load(path)
        x = np.arange(12, dtype=float).reshape(2, 6) * (0.3 - 0.1j)
        a = Model.load(path).forward(x)
        b = loaded.forward(x)
        model.quantize_state()
        c = model.forward(x)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_save_load_save_bytes_identical(self, tmp_path):
        model = small_model()
        train_steps(model, 3)
        p1, p2 = tmp_path / "a.cvnn", tmp_path / "b.cvnn"
        model.save(p1)
        Model.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_meta_round_trip(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.cvnn"
        model.save(path)
        assert Model.load(path).meta == {"role": "test"}

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.cvnn"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError, match="magic"):
            Model.load(path)

    def test_bad_version_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.cvnn"
        model.save(path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            Model.load(path)

    @pytest.mark.parametrize("keep", [6, 9, 20, -1])
    def test_truncated_rejected(self, tmp_path, keep):
        # cut in the version, the header length, the JSON header, the tensors
        model = small_model()
        path = tmp_path / "m.cvnn"
        model.save(path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError):
            Model.load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.cvnn"
        model.save(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            Model.load(path)

    def test_non_null_adam_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.cvnn"
        model.save(path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[6:10])
        header = json.loads(raw[10:10 + hlen])
        assert header["adam"] is None
        header["adam"] = {"step": 4, "lr": 1e-3, "tensors": []}
        hj = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(raw[:6] + struct.pack("<I", len(hj)) + hj + raw[10 + hlen:])
        with pytest.raises(ValueError, match="adam"):
            Model.load(path)

    def test_batchnorm_running_stats_round_trip(self, tmp_path):
        aapd = build_aapd(2, 4, 4, conv_channels=(2, 3), dense_units=(5, 4), seed=3)
        x = (np.arange(2 * 1 * 2 * 4).reshape(2, 1, 2, 4)
             * (0.2 + 0.1j)).astype(np.complex128)
        aapd.net.forward(x, train=True)  # moves running stats off init
        aapd.net.quantize_state()
        before = aapd.net.forward(x)
        path = tmp_path / "a.cvnn"
        aapd.net.save(path)
        after = Model.load(path).forward(x)
        assert np.array_equal(before, after)

    def test_state_arrays_length_mismatch(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.load_state_arrays(model.state_arrays()[:-1])


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        model = small_model()
        x = np.ones((4, 6), dtype=complex)
        p = model.forward(x, train=True)
        model.backward(np.zeros_like(p))
        before = [a.copy() for _, a in model.param_items()]
        Adam(model, lr=0.1).step()
        for prev, (_, now) in zip(before, model.param_items()):
            assert np.array_equal(prev, now)

    def test_constant_gradient_step_size_approaches_lr(self):
        # Adam asymptote: |update| -> lr for a constant gradient
        model = Model([RealDense(1, 1, rng=Rng(3))])
        x = np.ones((2, 1))
        model.forward(x, train=True)
        model.backward(np.ones((2, 1)))
        grads = [g for _, g in model.grad_items()]
        fixed = [g.copy() for g in grads]
        opt = Adam(model, lr=1e-3)
        w = model.layers[0].weight
        prev = w.copy()
        for _ in range(300):
            for g, f in zip(grads, fixed):
                g[...] = f
            prev = w.copy()
            opt.step()
        assert abs(abs(float((w - prev)[0, 0])) - 1e-3) < 1e-5

    def test_complex_slots_update_independently(self):
        # one step from zero state: each slot moves by lr * sign(grad slot)
        model = Model([ComplexDense(1, 1, rng=Rng(4))])
        x = np.ones((2, 1), dtype=complex)
        model.forward(x, train=True)
        model.backward(np.full((2, 1), 1 - 1j))
        w0 = model.layers[0].weight.copy()
        g = model.layers[0].grads["weight"].copy()
        Adam(model, lr=1e-3).step()
        dw = model.layers[0].weight - w0
        eps = 1e-8
        want_re = -1e-3 * g.real / (np.abs(g.real) + eps)
        want_im = -1e-3 * g.imag / (np.abs(g.imag) + eps)
        assert np.allclose(dw.real, want_re, rtol=1e-9)
        assert np.allclose(dw.imag, want_im, rtol=1e-9)

    def test_second_moment_nonnegative(self):
        model = small_model()
        opt = train_steps(model, 10)
        for slot in opt.slots:
            v = slot["v"]
            if np.iscomplexobj(v):
                assert np.all(v.real >= 0) and np.all(v.imag >= 0)
            else:
                assert np.all(v >= 0)

    def test_load_state_resumes_the_same_trajectory(self):
        model, twin = small_model(), small_model()
        opt = train_steps(model, 4)
        twin.load_state_arrays(model.state_arrays())
        opt2 = Adam(twin, lr=1.0)
        opt2.load_state(opt.state())
        assert (opt2.step_count, opt2.lr) == (opt.step_count, opt.lr)
        x = np.full((8, 6), 0.3 - 0.1j)
        for net, o in ((model, opt), (twin, opt2)):
            net.backward(bce_backward(net.forward(x, train=True), np.ones((8, 3))))
            o.step()
        for (_, a), (_, b) in zip(model.tensor_items(), twin.tensor_items()):
            assert np.array_equal(a, b)

    def test_missing_gradients_rejected(self):
        model = small_model()
        with pytest.raises((RuntimeError, KeyError)):
            Adam(model).step()

    def test_hundred_steps_bitwise_reproducible(self):
        a, b = small_model(seed=9), small_model(seed=9)
        train_steps(a, 100, seed=13)
        train_steps(b, 100, seed=13)
        for (_, pa), (_, pb) in zip(a.param_items(), b.param_items()):
            assert np.array_equal(pa, pb)


class TestCountParams:
    def test_real_conv_reference_value(self):
        m = Model([RealConv2d(16, 32, 3, "same", rng=Rng(1))])
        assert count_params(m) == 4608

    def test_complex_conv_half(self):
        # same real-slot budget: 16 complex channels hold 32 real planes
        m = Model([ComplexConv2d(8, 16, 3, "same", rng=Rng(1))])
        assert count_params(m) == 2 * 9 * 8 * 16
        real_twin = Model([RealConv2d(16, 32, 3, "same", rng=Rng(1))])
        assert count_params(m) == count_params(real_twin) // 2

    def test_dense_reference_values(self):
        real = Model([RealDense(128, 64, rng=Rng(1))])
        cplx = Model([ComplexDense(64, 32, rng=Rng(1))])
        assert count_params(real) == 8192
        assert count_params(cplx) == 4096

    def test_aapd_variants_halve_exactly(self):
        kw = dict(conv_channels=(8, 16), dense_units=(64, 32), seed=0)
        c = build_aapd(2, 16, 4, variant="complex", **kw)
        r = build_aapd(2, 16, 4, variant="real", **kw)
        nc, nr = count_params(c.net), count_params(r.net)
        assert nr == 2 * nc
        assert nr % 2 == 0 and nc > 0

    def test_se_variants_halve_exactly(self):
        c = build_se(1, 16, variant="complex", channels=(8, 8), seed=0)
        r = build_se(1, 16, variant="real", channels=(8, 8), seed=0)
        assert count_params(r.net) == 2 * count_params(c.net)

    def test_default_widths_halve_exactly(self):
        c = build_aapd(4, 16, 4, variant="complex")
        r = build_aapd(4, 16, 4, variant="real")
        assert count_params(r.net) == 2 * count_params(c.net)


class TestCountFlops:
    def test_complex_dense_flops(self):
        m = Model([ComplexDense(4, 3, rng=Rng(1))])
        assert count_flops(m, (4,)) == 8 * 12

    def test_real_dense_flops(self):
        m = Model([RealDense(4, 3, rng=Rng(1))])
        assert count_flops(m, (4,)) == 2 * 12

    def test_conv_same_padding_flops(self):
        m = Model([ComplexConv2d(1, 5, 3, "same", rng=Rng(1))])
        assert count_flops(m, (1, 4, 6)) == 8 * 4 * 6 * 9 * 1 * 5

    def test_conv_valid_padding_shrinks_map(self):
        m = Model([ComplexConv2d(1, 5, 3, "valid", rng=Rng(1))])
        assert count_flops(m, (1, 4, 6)) == 8 * 2 * 4 * 9 * 1 * 5

    def test_wrong_input_shape_rejected(self):
        m = Model([ComplexConv2d(2, 5, 3, "same", rng=Rng(1))])
        with pytest.raises(ValueError):
            count_flops(m, (1, 4, 6))

    def test_variants_spend_equal_flops(self):
        # a complex layer of width C does the MAC work of a real layer of
        # width 2C at a quarter of the MAC count but 4x the cost per MAC
        kw = dict(conv_channels=(8, 16), dense_units=(64, 32), seed=0)
        c = build_aapd(2, 16, 4, variant="complex", **kw)
        r = build_aapd(2, 16, 4, variant="real", **kw)
        shape = (1, 2, 16)
        assert count_flops(c.net, shape) == count_flops(r.net, shape)

    def test_se_variants_spend_equal_flops(self):
        c = build_se(1, 16, variant="complex", channels=(8, 8), seed=0)
        r = build_se(1, 16, variant="real", channels=(8, 8), seed=0)
        assert count_flops(c.net, (1, 1, 16)) == count_flops(r.net, (1, 1, 16))
