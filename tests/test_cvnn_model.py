"""Model container, checkpoint format, Adam, losses, complexity accounting."""

import json
import pickle
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
from immimo.cvnn.layers import (
    ComplexBatchNorm,
    ComplexConv2d,
    Flatten,
    RealBatchNorm,
    RealConv2d,
    Residual,
)
from immimo.cvnn.model import _leaf_layers
from immimo.cvnn.optim import _BLOCK
from immimo.linalg import Rng
from immimo.twostage import build_aapd, build_se

from conftest import rel_err


def small_model(seed=5):
    rng = Rng(seed)
    return Model([
        ComplexDense(6, 4, rng=rng.derive(0)),
        ComplexReLU(),
        RealHeadDense(8, 3, rng=rng.derive(1)),
        RealSigmoid(),
    ], meta={"role": "test"})


def crandn(np_rng, *shape):
    return np_rng.normal(size=shape) + 1j * np_rng.normal(size=shape)


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

    @staticmethod
    def _norm_net():
        # both batch norms, one of them inside a residual branch
        return Model([ComplexBatchNorm(2), RealBatchNorm(2),
                      Residual([ComplexBatchNorm(2)])])

    @pytest.mark.parametrize("layer, name, value", [
        (0, "running_v", (-1.0, 0.0, -1.0)),
        (0, "running_v", (1.0, 0.0, -1.0)),
        (0, "running_v", (-1.0, 0.0, 1.0)),
        (0, "running_v", (1.0, 2.0, 1.0)),
        (2, "0.running_v", (1.0, -1.5, 1.0)),
        (1, "running_var", -1.0),
        (1, "running_var", -2e-5),
    ], ids=["v11-v22-negative", "v22-negative", "v11-negative", "det-negative",
            "residual-det-negative", "var-negative", "var-below-minus-eps"])
    def test_non_positive_definite_running_stats_rejected(self, tmp_path, layer,
                                                          name, value):
        model = self._norm_net()
        bad = dict(model.tensor_items())[(layer, name)].copy()
        bad[1] = value
        model.set_tensors([((layer, name), bad)])
        path = tmp_path / "m.cvnn"
        model.save(path)
        with pytest.raises(ValueError, match=f"layer {layer} tensor {name} plus eps"):
            Model.load(path)

    def test_degenerate_but_eps_loaded_running_stats_load(self, tmp_path):
        # zero variances and a singular covariance are what a constant or
        # rank-1 batch leaves; eps makes them positive (definite)
        model = self._norm_net()
        model.set_tensors([((0, "running_v"), np.zeros((2, 3))),
                           ((1, "running_var"), np.zeros(2)),
                           ((2, "0.running_v"), np.tile([1.0, 1.0, 1.0], (2, 1)))])
        path = tmp_path / "m.cvnn"
        model.save(path)
        x = np.ones((3, 2), dtype=np.complex64)
        assert np.isfinite(Model.load(path).layers[0].forward(x)).all()

    def test_state_arrays_length_mismatch(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.load_state_arrays(model.state_arrays()[:-1])


class TestCheckpointPrecision:
    """Loaded and trained nets hold their tensors at the disk dtype."""

    @staticmethod
    def trained_pair(variant, tmp_path):
        # batch-norm running stats moved off init, so buffers count too
        aapd = build_aapd(2, 4, 4, variant, conv_channels=(2, 3), dense_units=(5, 4),
                          seed=3)
        se = build_se(2, 4, variant, channels=(2, 2), seed=3)
        x = (np.arange(2 * 1 * 2 * 4).reshape(2, 1, 2, 4) * (0.2 + 0.1j))
        aapd.net.forward(x, train=True)
        for i, net in enumerate((aapd.net, se.net)):
            net.save(tmp_path / f"{i}.cvnn")
        return [(net, Model.load(tmp_path / f"{i}.cvnn"))
                for i, net in enumerate((aapd.net, se.net))]

    @pytest.mark.parametrize("variant", ["complex", "real"])
    def test_load_and_quantize_give_the_same_tensors(self, variant, tmp_path):
        for net, loaded in self.trained_pair(variant, tmp_path):
            net.quantize_state()
            items, want = loaded.tensor_items(), net.tensor_items()
            assert [k for k, _ in items] == [k for k, _ in want]
            for (key, a), (_, b) in zip(items, want):
                assert a.dtype == b.dtype, key
                assert a.dtype in (np.complex64, np.float32), key
                assert a.tobytes() == b.tobytes(), key
                assert a.flags.writeable and a.flags.c_contiguous, key

    def test_quantize_keeps_the_checkpoint_bytes(self, tmp_path):
        net = small_model()
        train_steps(net, 3)
        net.save(tmp_path / "a.cvnn")
        net.quantize_state()
        net.save(tmp_path / "b.cvnn")
        assert (tmp_path / "a.cvnn").read_bytes() == (tmp_path / "b.cvnn").read_bytes()

    def test_residual_tensor_reaches_its_sublayer(self):
        se = build_se(1, 4, channels=(2, 2), seed=1)
        w = np.ones((2, 1, 3, 3), dtype=np.complex64)
        se.net.set_tensors([((0, "0.weight"), w)])
        assert se.net.layers[0].layers[0].weight is w

    @pytest.mark.parametrize("variant", ["complex", "real"])
    def test_every_layer_of_a_loaded_aapd_stays_at_32_bits(self, variant, tmp_path):
        # no layer upcasts a 32-bit stream (the input is complex64 here, so
        # that the real variant's SplitReIm yields float32 too)
        (_, loaded), _ = self.trained_pair(variant, tmp_path)
        x = np.ones((3, 1, 2, 4), dtype=np.complex64)
        for layer in loaded.layers:
            x = layer.forward(x)
            assert x.dtype in (np.complex64, np.float32), layer.kind

    def test_loaded_net_infers_in_float32(self, tmp_path):
        net = small_model()
        net.save(tmp_path / "m.cvnn")
        out = Model.load(tmp_path / "m.cvnn").forward(np.ones((2, 6), dtype=complex))
        assert out.dtype == np.float32

    @pytest.mark.parametrize("source", ["loaded", "quantized"])
    def test_adam_keeps_the_bytes_of_a_c8_net(self, source, tmp_path):
        # Adam's rounding is the identity on a c8/f4 net; its steps write
        # into the net's own parameters, at their dtype
        net = small_model()
        if source == "loaded":
            net.save(tmp_path / "m.cvnn")
            net = Model.load(tmp_path / "m.cvnn")
        else:
            net.quantize_state()
        before = [a.copy() for _, a in net.param_items()]
        opt = Adam(net, lr=1e-3)
        for b, (key, p) in zip(before, net.param_items()):
            assert b.dtype in (np.complex64, np.float32), key
            assert p.dtype == b.dtype and p.tobytes() == b.tobytes(), key
        held = [p for _, p in net.param_items()]
        x = np.full((4, 6), 0.5 - 0.25j)
        net.backward(bce_backward(net.forward(x, train=True), np.ones((4, 3))))
        opt.step()
        for b, h, (key, p) in zip(before, held, net.param_items()):
            assert p is h and p.dtype == b.dtype and not np.array_equal(p, b), key

    def test_non_contiguous_parameter_rejected(self):
        net = small_model()
        opt = train_steps(net, 1)
        w = net.layers[0].weight
        net.layers[0].set_tensor("weight", np.asfortranarray(w))
        with pytest.raises(ValueError, match=r"\(0, .weight.\) is not C-contiguous"):
            opt.step()

    def test_parameter_off_its_moments_dtype_rejected(self):
        # a parameter replaced at another precision after Adam was built
        net = small_model()
        opt = train_steps(net, 1)
        net.layers[0].set_tensor("weight", net.layers[0].weight.astype(np.complex128))
        with pytest.raises(ValueError, match=r"\(0, .weight.\) is complex128, its moments "
                                             r"complex64"):
            opt.step()


def _layers(layers):
    """Every layer, a residual's branch layers before the residual itself."""
    for layer in layers:
        if isinstance(layer, Residual):
            yield from _layers(layer.layers)
        yield layer


class TestTrainingPrecision:
    """A net under Adam trains at c8/f4, whatever the loss gradient's dtype."""

    @staticmethod
    def net_and_batch(role, variant, np_rng):
        if role == "aapd":
            net = build_aapd(2, 4, 3, variant, conv_channels=(2, 3), dense_units=(5, 4),
                             seed=3).net
            shape, target = (6, 1, 2, 4), (np_rng.random((6, 3)) < 0.5) * 1.0
            return net, shape, target, bce_backward
        net = build_se(2, 4, variant, channels=(2, 3), seed=3).net
        shape = (6, 1, 2, 4)
        return net, shape, crandn(np_rng, *shape), mse_backward

    @pytest.mark.parametrize("role, variant", [("aapd", "complex"), ("aapd", "real"),
                                               ("se", "complex"), ("se", "real")])
    def test_backward_stays_at_checkpoint_precision(self, role, variant, np_rng):
        # the loss gradient arrives at float64 (bce) or complex128 (the SE's
        # residual output, hence mse): no layer computes above its own
        # precision, every layer with tensors returns its 32-bit gradient, and
        # every gradient is at its parameter's dtype
        net, shape, target, loss_backward = self.net_and_batch(role, variant, np_rng)
        Adam(net)
        seen = []
        for layer in _layers(net.layers):
            def forward(x, train=False, layer=layer, f=layer.forward):
                seen.append([layer, np.asarray(x).dtype])
                return f(x, train=train)

            def backward(g, layer=layer, b=layer.backward):
                out = b(g)
                next(r for r in seen if r[0] is layer).append(out.dtype)
                return out
            layer.forward, layer.backward = forward, backward
        out = net.forward(crandn(np_rng, *shape), train=True)
        assert out.dtype == (np.float32 if role == "aapd" else np.complex128)
        net.backward(loss_backward(out, target))
        for layer, x_dtype, g_dtype in seen:
            # a gradient is never wider than the activation it belongs to
            assert np.finfo(g_dtype).bits <= np.finfo(x_dtype).bits, layer.kind
            if layer.tensor_items() and not isinstance(layer, Residual):
                assert g_dtype in (np.complex64, np.float32), layer.kind
        if role == "aapd":
            # every gradient a layer hands on is 32-bit
            assert all(g in (np.complex64, np.float32) for _, _, g in seen)
        for (key, p), (gkey, g) in zip(net.param_items(), net.grad_items()):
            assert key == gkey and p.dtype == g.dtype, key
            assert p.dtype in (np.complex64, np.float32), key

    @pytest.mark.parametrize("variant", ["complex", "real"])
    def test_validation_infers_the_checkpoint_net(self, variant, np_rng, tmp_path):
        # mid-training, running statistics at float64, infer mode gives
        # the outputs of the net a checkpoint of that moment holds
        net, shape, target, loss_backward = self.net_and_batch("aapd", variant, np_rng)
        opt = Adam(net, lr=1e-2)
        for _ in range(4):
            net.backward(loss_backward(net.forward(crandn(np_rng, *shape), train=True),
                                       target))
            opt.step()
        assert {a.dtype for _, a in net.tensor_items()} >= {np.dtype(np.float64)}
        x = crandn(np_rng, 9, *shape[1:])
        net.save(tmp_path / "n.cvnn")
        got = net.forward(x)
        want = Model.load(tmp_path / "n.cvnn").forward(x)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()


def two_branch_adam_step(opt, params, grads, slots):
    """One Adam step in the standard form (bias-corrected moments), as it
    was before the in-place rewrite, on `params` and `slots` (copies), with
    `opt`'s hyperparameters and step count: a complex parameter takes the
    complex branch. `grads` are taken as they come, so pass them at the
    parameters' dtype."""
    b1, b2 = opt.beta1, opt.beta2
    c1 = 1.0 - b1 ** opt.step_count
    c2 = 1.0 - b2 ** opt.step_count
    for slot, p, g in zip(slots, params, grads):
        m, v = slot["m"], slot["v"]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        if np.iscomplexobj(p):
            v += (1 - b2) * (g.real ** 2 + 1j * g.imag ** 2)
            mh = m / c1
            vh = v / c2
            upd = (mh.real / (np.sqrt(vh.real) + opt.eps)
                   + 1j * (mh.imag / (np.sqrt(vh.imag) + opt.eps)))
        else:
            v += (1 - b2) * g ** 2
            upd = (m / c1) / (np.sqrt(v / c2) + opt.eps)
        p -= opt.lr * upd


def short_form_adam_step(opt, params, grads, slots):
    """One Adam step in the short form of Kingma & Ba (ICLR 2015, end of
    section 2), one whole-tensor pass per operation on the real views, in
    float32: `params`, `grads` and `slots` at c8/f4."""
    b1, b2, t = opt.beta1, opt.beta2, opt.step_count
    lr_t = np.float32(opt.lr * np.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t))
    eps_t = np.float32(opt.eps * np.sqrt(1.0 - b2 ** t))
    for slot, p, g in zip(slots, params, grads):
        p, m, v, g = (a.view(np.float32) for a in (p, slot["m"], slot["v"], g))
        m += np.float32(1 - b1) * (g - m)
        v += np.float32(1 - b2) * (g * g - v)
        p -= lr_t * (m / (np.sqrt(v) + eps_t))


def _wide(a):
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)


def wide_aapd(variant):
    # the first dense weight spans more than one of Adam's blocks
    net = build_aapd(2, 4, 3, variant, conv_channels=(2, 3), dense_units=(700, 3),
                     seed=2).net
    assert max(a.view(a.real.dtype).size for _, a in net.param_items()) > _BLOCK
    return net


def random_backward(net, rng):
    x = rng.normal(size=(7, 1, 2, 4)) + 1j * rng.normal(size=(7, 1, 2, 4))
    out = net.forward(x, train=True)
    net.backward(bce_backward(out, (rng.random(out.shape) < 0.5) * 1.0))


def reachable_arrays(root, skip):
    """Every ndarray reachable from `root`'s attributes through dicts,
    lists, tuples and array bases, not going through `skip`."""
    seen, todo, found = set(), [vars(root)], []
    while todo:
        o = todo.pop()
        if id(o) in seen or o is skip:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found.append(o)
            todo.append(o.base)
        elif isinstance(o, dict):
            todo.extend(o.values())
        elif isinstance(o, (list, tuple)):
            todo.extend(o)
    return found


class TestAdam:
    @pytest.mark.parametrize("variant", ["complex", "real"])
    def test_blocked_walk_equals_the_whole_tensor_short_form(self, variant):
        # same gradients into both each step: parameters and moments equal
        # bit for bit, so the walk block by block is one pass per operation
        net = wide_aapd(variant)
        opt = Adam(net, lr=1e-2)
        ref = [p.copy() for _, p in net.param_items()]
        ref_slots = [{k: a.copy() for k, a in s.items()} for s in opt.slots]
        rng = np.random.default_rng(11)
        for _ in range(5):
            random_backward(net, rng)
            opt.step()
            short_form_adam_step(opt, ref, [g for _, g in net.grad_items()], ref_slots)
            for want, (key, got) in zip(ref, net.param_items()):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key
        for mine, theirs in zip(opt.slots, ref_slots):
            for k in ("m", "v"):
                assert mine[k].tobytes() == theirs[k].tobytes()

    @pytest.mark.parametrize("variant", ["complex", "real"])
    def test_matches_two_branch_reference(self, variant):
        # same gradients into the float32 short form and the float64
        # standard form. Bound, per real slot after k steps: k times (one
        # float32 ulp of the slot, for storing p at f4, plus 2^-20 lr, 16
        # float32 roundings of an update of size about lr); measured up to
        # 0.44 of it. Moments: 1e-6 relative, about 17 float32 roundings
        # (measured 2.4e-7)
        net = wide_aapd(variant)
        opt = Adam(net, lr=1e-2)
        ref = [_wide(p) for _, p in net.param_items()]
        ref_slots = [{k: _wide(a) for k, a in s.items()} for s in opt.slots]
        rng = np.random.default_rng(11)
        kinds = set()
        for k in range(1, 6):
            random_backward(net, rng)
            opt.step()
            two_branch_adam_step(opt, ref, [_wide(g) for _, g in net.grad_items()], ref_slots)
            for want, (key, got) in zip(ref, net.param_items()):
                kinds.add(got.dtype.kind)
                want, got = want.view(np.float64), got.view(np.float32).astype(np.float64)
                ulp = np.spacing(np.abs(want).astype(np.float32)).astype(np.float64)
                assert np.all(np.abs(got - want) <= k * (ulp + 2.0 ** -20 * opt.lr)), key
        for mine, theirs in zip(opt.slots, ref_slots):
            for k in ("m", "v"):
                assert rel_err(_wide(mine[k]), theirs[k]) <= 1e-6
        assert kinds == ({"c", "f"} if variant == "complex" else {"f"})

    @pytest.mark.parametrize("variant", ["complex", "real"])
    def test_state_is_one_c8_m_and_v_per_parameter(self, variant):
        # on c16-built nets: the moments are the optimizer's only tensors,
        # each at its parameter's shape and c8/f4 dtype, and no float64 or
        # complex128 array is reachable from it (the net aside)
        for net in (build_aapd(4, 16, 4, variant, seed=3).net,
                    build_se(2, 16, variant, seed=3).net):
            assert {a.dtype for _, a in net.param_items()} <= {np.dtype(np.complex128),
                                                               np.dtype(np.float64)}
            opt = Adam(net)
            params = net.param_items()
            state = opt.state()
            assert set(state) == {"step", "lr", "slots"}
            assert len(state["slots"]) == len(params)
            for slot, (key, p) in zip(state["slots"], params):
                assert set(slot) == {"m", "v"}, key
                assert p.dtype in (np.complex64, np.float32), key
                for a in slot.values():
                    assert (a.shape, a.dtype) == (p.shape, p.dtype), key
            assert (sum(a.nbytes for s in state["slots"] for a in s.values())
                    == 2 * sum(p.nbytes for _, p in params))
            arrays = reachable_arrays(opt, skip=net)
            assert arrays and all(a.dtype in (np.complex64, np.float32) for a in arrays)

    def test_zero_gradient_leaves_params_unchanged(self):
        model = small_model()
        x = np.ones((4, 6), dtype=complex)
        p = model.forward(x, train=True)
        model.backward(np.zeros_like(p))
        opt = Adam(model, lr=0.1)
        before = [a.copy() for _, a in model.param_items()]
        opt.step()
        for prev, (_, now) in zip(before, model.param_items()):
            assert now.dtype == prev.dtype and now.tobytes() == prev.tobytes()

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
        # one step from zero state: each slot moves by lr * sign(grad slot),
        # up to the float32 rounding of the moved weight (an ulp of it) and
        # of the update (2^-20 lr)
        model = Model([ComplexDense(1, 1, rng=Rng(4))])
        x = np.ones((2, 1), dtype=complex)
        model.forward(x, train=True)
        model.backward(np.full((2, 1), 1 - 1j))
        g = model.layers[0].grads["weight"].copy()
        opt = Adam(model, lr=1e-3)
        w0 = model.layers[0].weight.copy()
        opt.step()
        w = model.layers[0].weight
        assert w.dtype == np.complex64
        eps = 1e-8
        for part in (np.real, np.imag):
            got = part(w).astype(np.float64) - part(w0)
            want = -1e-3 * part(g) / (np.abs(part(g)) + eps)
            ulp = np.spacing(np.abs(part(w)))
            assert np.all(np.abs(got - want) <= ulp + 2.0 ** -20 * 1e-3)

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

    def test_resume_the_harness_way_is_bit_identical(self):
        # a run handed over between processes: a fresh build, a fresh Adam
        # (which rounds the fresh net), the net's tensors through
        # load_state_arrays and the pickled state through load_state
        def aapd():
            return build_aapd(2, 4, 3, "complex", conv_channels=(2, 3),
                              dense_units=(6, 4), seed=2).net

        rng = np.random.default_rng(5)
        batches = [(rng.normal(size=(6, 1, 2, 4)) + 1j * rng.normal(size=(6, 1, 2, 4)),
                    (rng.random((6, 3)) < 0.5) * 1.0) for _ in range(8)]

        def steps(net, opt, part):
            for x, g in part:
                net.backward(bce_backward(net.forward(x, train=True), g))
                opt.step()

        whole = aapd()
        opt = Adam(whole, lr=1e-2)
        steps(whole, opt, batches)
        first = aapd()
        opt1 = Adam(first, lr=1e-2)
        steps(first, opt1, batches[:3])
        state = pickle.loads(pickle.dumps({"net": first.state_arrays(),
                                           "adam": opt1.state()}))
        second = aapd()
        opt2 = Adam(second, lr=1e-2)
        second.load_state_arrays(state["net"])
        opt2.load_state(state["adam"])
        steps(second, opt2, batches[3:])
        for (key, a), (_, b) in zip(whole.tensor_items(), second.tensor_items()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key
        for mine, theirs in zip(opt.slots, opt2.slots):
            for k in ("m", "v"):
                assert mine[k].tobytes() == theirs[k].tobytes()
        # load_state takes the moments only: the net keeps its tensors
        third = aapd()
        opt3 = Adam(third)
        held = third.state_arrays()
        opt3.load_state(state["adam"])
        for a, (key, b) in zip(held, third.tensor_items()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key

    @staticmethod
    def misfit(state, case):
        """`state` (a deep copy) made not to fit a small_model's Adam."""
        slots = state["slots"]
        if case == "slot-count":
            slots.pop()
        elif case == "m-shape":
            slots[0]["m"] = np.zeros(1, dtype=slots[0]["m"].dtype)
        elif case == "v-dtype":
            # as the float64 moments before this optimizer kept them
            slots[1]["v"] = _wide(slots[1]["v"])
        elif case == "m-list":
            slots[2]["m"] = slots[2]["m"].tolist()
        elif case.startswith("step"):
            state["step"] = {"step-negative": -5, "step-float": 2.0}[case]
        else:
            state["lr"] = {"lr-nan": np.nan, "lr-inf": np.inf, "lr-zero": 0.0,
                           "lr-negative": -1e-3, "lr-str": "1e-3"}[case]
        return state

    @pytest.mark.parametrize("case", ["slot-count", "m-shape", "v-dtype", "m-list",
                                      "step-negative", "step-float", "lr-nan", "lr-inf",
                                      "lr-zero", "lr-negative", "lr-str"])
    def test_load_state_rejects_state_that_does_not_fit(self, case):
        good = train_steps(small_model(), 2).state()
        bad = self.misfit(pickle.loads(pickle.dumps(good)), case)
        opt = train_steps(small_model(seed=6), 1, lr=0.5)
        held = pickle.dumps(opt.state())
        with pytest.raises(ValueError, match="adam"):
            opt.load_state(bad)
        # nothing was taken
        assert pickle.dumps(opt.state()) == held

    def test_missing_gradients_rejected(self):
        model = small_model()
        with pytest.raises((RuntimeError, KeyError)):
            Adam(model).step()

    def test_step_before_any_backward_is_a_runtime_error(self):
        opt = Adam(build_se(1, 4, channels=(2, 2)).net)
        with pytest.raises(RuntimeError, match="missing gradients; run backward first"):
            opt.step()
        assert opt.step_count == 0

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


class TestDefaultNetTotals:
    # (AAPD params, AAPD FLOPs, SE params, SE FLOPs) at the default widths,
    # as the spec-reading accounting gave them
    @pytest.mark.parametrize("dims, variant, totals", [
        ((4, 1, 4, 16), "complex", (2200128, 18237440, 5184, 331776)),
        ((4, 1, 4, 16), "real", (4400256, 18237440, 10368, 331776)),
        ((8, 2, 8, 16), "complex", (4297280, 36212736, 5184, 663552)),
        ((8, 2, 8, 16), "real", (8594560, 36212736, 10368, 663552)),
    ])
    def test_totals_pinned(self, dims, variant, totals):
        n_t, n_u, n_r, t = dims
        aapd = build_aapd(n_r, t, n_t, variant).net
        se = build_se(n_u, t, variant).net
        assert (count_params(aapd), count_flops(aapd, (1, n_r, t)),
                count_params(se), count_flops(se, (1, n_u, t))) == totals


def trained_like(net, rows, np_rng):
    """`net` after two train-mode passes (batch norms off their initial
    statistics) at checkpoint precision, as a loaded net infers."""
    for _ in range(2):
        net.forward(crandn(np_rng, 4, 1, rows, 16), train=True)
    net.quantize_state()
    return net


def standalone(layers, x):
    """x through `layers`, each leaf called on its own (owning nothing)."""
    for layer in layers:
        x = x + standalone(layer.layers, x) if isinstance(layer, Residual) \
            else layer.forward(x)
    return x


def spy_on_skips(net, seen):
    """Wrap each Residual of `net` to record (skip, its bytes on entry)."""
    for layer in net.layers:
        if isinstance(layer, Residual):
            def forward(x, train=False, _orig=layer.forward):
                seen.append((x, x.tobytes()))
                return _orig(x, train=train)
            layer.forward = forward


# (net, rows of its input): the AAPD of both benchmark systems and the SE at
# n_u 1 and 2, each in both variants
NETS = [(lambda v: build_aapd(8, 16, 8, v).net, 8), (lambda v: build_aapd(4, 16, 4, v).net, 4),
        (lambda v: build_se(2, 16, v).net, 2), (lambda v: build_se(1, 16, v).net, 1)]
NET_IDS = ["aapd-8x2", "aapd-4x1", "se-2", "se-1"]


class TestOwnership:
    """An infer-mode batch norm or ReLU may overwrite an input that its
    chain owns; the caller's array and a Residual's skip are never written,
    and the output bytes do not depend on who owns what."""

    @pytest.mark.parametrize("variant", ["complex", "real"])
    @pytest.mark.parametrize("make, rows", NETS, ids=NET_IDS)
    @pytest.mark.parametrize("train", [False, True])
    def test_keeps_input_and_skip(self, np_rng, make, rows, variant, train):
        net = trained_like(make(variant), rows, np_rng)
        seen = []
        spy_on_skips(net, seen)
        # at the net's own precision too, so that no first cast copies it
        for x in (crandn(np_rng, 5, 1, rows, 16), crandn(np_rng, 5, 1, rows, 16)
                  .astype(np.complex64)):
            before = x.tobytes()
            want = None if train else standalone(net.layers, x)
            seen.clear()
            got = net.forward(x, train=train)
            assert x.tobytes() == before
            assert len(seen) == (net.meta["role"] == "se")
            assert all(skip.tobytes() == b for skip, b in seen)
            if want is not None:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant", ["complex", "real"])
    @pytest.mark.parametrize("make, rows", NETS, ids=NET_IDS)
    def test_rewrapped_leaves(self, np_rng, make, rows, variant):
        net = trained_like(make(variant), rows, np_rng)
        x = crandn(np_rng, 5, 1, rows, 16).astype(np.complex64)
        first = net.forward(x).tobytes()
        leaves = list(_leaf_layers(net.layers))
        for i in range(1, len(leaves) + 1):
            before = x.tobytes()
            got = Model(leaves[:i]).forward(x)
            assert x.tobytes() == before
            assert got.tobytes() == standalone(leaves[:i], x).tobytes()
        # the original container still runs as it did
        assert net.forward(x).tobytes() == first

    @pytest.mark.parametrize("cls, dtype", [
        (ComplexBatchNorm, np.complex64), (ComplexBatchNorm, np.complex128),
        (RealBatchNorm, np.float32), (RealBatchNorm, np.float64), (ComplexReLU, np.complex64),
        (ComplexReLU, np.complex128), (RealReLU, np.float32), (RealReLU, np.float64)])
    @pytest.mark.parametrize("train", [False, True])
    def test_lone_layer_keeps_input(self, np_rng, cls, dtype, train):
        layer = cls(3) if cls in (ComplexBatchNorm, RealBatchNorm) else cls()
        x = crandn(np_rng, 4, 3, 2, 5)
        x = (x if np.dtype(dtype).kind == "c" else x.real).astype(dtype)
        # a net's pass first, in which the layer owned its input
        Model([Flatten(), layer, layer] if layer.kind.endswith("relu")
              else [ComplexConv2d(3, 3) if np.iscomplexobj(x) else RealConv2d(3, 3),
                    layer]).forward(x)
        before = x.tobytes()
        layer.forward(x, train=train)
        assert x.tobytes() == before

    @pytest.mark.parametrize("layers", [
        lambda: [ComplexReLU(), ComplexReLU()],
        lambda: [Flatten(), ComplexReLU()],
        lambda: [ComplexBatchNorm(3), ComplexReLU()],
        lambda: [Residual([ComplexReLU(), ComplexBatchNorm(3)]), ComplexReLU()]],
        ids=["relu-relu", "flatten-relu", "bn-relu", "residual-relu"])
    def test_callers_array_not_owned(self, np_rng, layers):
        x = crandn(np_rng, 4, 3, 2, 5).astype(np.complex64)
        before = x.tobytes()
        model = Model(layers())
        got = model.forward(x)
        assert x.tobytes() == before
        assert got.tobytes() == standalone(model.layers, x).tobytes()


class TestTracerShapedWrapper:
    """perfbench/tracer.py wraps net.forward and each leaf layer's forward
    as an instance attribute taking (x, train=False) only; an inference
    pass must call each once and give the same bytes."""

    @staticmethod
    def wrap(obj, calls, key):
        forward = obj.forward

        def traced_forward(x, train=False):
            calls[key] = calls.get(key, 0) + 1
            return forward(x, train=train)

        obj.forward = traced_forward

    @pytest.mark.parametrize("variant", ["complex", "real"])
    @pytest.mark.parametrize("make, rows", NETS, ids=NET_IDS)
    def test_each_leaf_once_same_bytes(self, np_rng, make, rows, variant):
        net = trained_like(make(variant), rows, np_rng)
        x = crandn(np_rng, 9, 1, rows, 16)
        want = net.forward(x).tobytes()
        calls = {}
        leaves = list(_leaf_layers(net.layers))
        self.wrap(net, calls, "net")
        for i, layer in enumerate(leaves):
            self.wrap(layer, calls, i)
        assert net.forward(x).tobytes() == want
        assert calls == {"net": 1, **{i: 1 for i in range(len(leaves))}}
