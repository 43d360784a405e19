"""Layer forward-pass tests against naive reference implementations."""

import numpy as np
import pytest

from immimo.cvnn.layers import (
    ComplexBatchNorm,
    ComplexConv2d,
    ComplexDense,
    ComplexReLU,
    ComplexSigmoid,
    Flatten,
    MergeReIm,
    RealBatchNorm,
    RealConv2d,
    RealDense,
    RealHeadDense,
    RealReLU,
    RealSigmoid,
    Residual,
    SplitReIm,
    _LAYER_CLASSES,
    _col2im,
    _im2col,
    _sigmoid,
    layer_from_spec,
)
from immimo.linalg import Rng


def naive_complex_conv(x, w, b, padding):
    """Direct complex convolution by explicit loops, stride 1.

    Computed in the split form (Wr*Xr - Wi*Xi) + j(Wi*Xr + Wr*Xi) so the
    test pins the real-arithmetic contract, not just complex multiplication.
    """
    bs, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    if padding == "same":
        p = k // 2
        x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        ho, wo = h, wd
    else:
        ho, wo = h - k + 1, wd - k + 1
    out = np.zeros((bs, cout, ho, wo), dtype=np.complex128)
    for n in range(bs):
        for o in range(cout):
            wr, wi = w[o].real, w[o].imag
            for i in range(ho):
                for j in range(wo):
                    patch = x[n, :, i:i + k, j:j + k]
                    re = np.sum(wr * patch.real) - np.sum(wi * patch.imag)
                    im = np.sum(wi * patch.real) + np.sum(wr * patch.imag)
                    out[n, o, i, j] = re + 1j * im
            out[n, o] += b[o]
    return out


def crandn(np_rng, *shape):
    return np_rng.normal(size=shape) + 1j * np_rng.normal(size=shape)


# Componentwise references for the layers that run on the float64 view of
# complex input; each returns (forward output, input gradient).

def ref_complex_relu(x, grad):
    mr, mi = x.real > 0, x.imag > 0
    return (x.real * mr + 1j * (x.imag * mi),
            grad.real * mr + 1j * (grad.imag * mi))


def ref_complex_sigmoid(x, grad):
    sr, si = _sigmoid(x.real), _sigmoid(x.imag)
    return (sr + 1j * si,
            grad.real * sr * (1 - sr) + 1j * (grad.imag * si * (1 - si)))


def ref_head_dense(weight, bias, x, grad):
    """Interleaving readout: (output, weight grad, bias grad, input grad)."""
    xr = np.empty((x.shape[0], 2 * x.shape[1]))
    xr[:, 0::2] = x.real
    xr[:, 1::2] = x.imag
    gx = grad @ weight
    return (xr @ weight.T + bias, grad.T @ xr, grad.sum(axis=0),
            gx[:, 0::2] + 1j * gx[:, 1::2])


def edge_crandn(np_rng, *shape):
    """Complex normals with zeros, negatives and +-1000 mixed into both parts."""
    x = crandn(np_rng, *shape)
    for part in (x.real, x.imag):
        pick = np_rng.integers(0, 4, size=shape)
        part[pick == 0] = 0.0
        part[pick == 1] = np_rng.choice([-1000.0, 1000.0], size=int((pick == 1).sum()))
    return x


def non_contiguous_views(x):
    """x itself, plus transposed and strided-slice views of the same data."""
    return [x, x.T, x[::2], x[..., 1::3], x[:, ::-1]]


class TestComplexConv:
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_matches_naive_loops(self, np_rng, padding):
        for _ in range(6):
            cin = int(np_rng.integers(1, 4))
            cout = int(np_rng.integers(1, 4))
            k = int(np_rng.choice([1, 3]))
            h = int(np_rng.integers(k, k + 4))
            w = int(np_rng.integers(k, k + 4))
            bs = int(np_rng.integers(1, 4))
            layer = ComplexConv2d(cin, cout, kernel=k, padding=padding, rng=Rng(5))
            layer.weight = crandn(np_rng, cout, cin, k, k)
            layer.bias = crandn(np_rng, cout)
            x = crandn(np_rng, bs, cin, h, w)
            got = layer.forward(x)
            ref = naive_complex_conv(x, layer.weight, layer.bias, padding)
            assert np.abs(got - ref).max() < 1e-12

    def test_1x1_single_product(self):
        # (1+j)(1-j) = 2
        layer = ComplexConv2d(1, 1, kernel=1, padding="same")
        layer.weight = np.array([[[[1.0 + 1.0j]]]])
        x = np.full((1, 1, 1, 1), 1.0 - 1.0j)
        assert layer.forward(x)[0, 0, 0, 0] == pytest.approx(2.0 + 0.0j)

    def test_same_padding_keeps_shape(self, np_rng):
        layer = ComplexConv2d(2, 5, kernel=3, padding="same", rng=Rng(5))
        y = layer.forward(crandn(np_rng, 3, 2, 4, 9))
        assert y.shape == (3, 5, 4, 9)

    def test_valid_padding_shrinks(self, np_rng):
        layer = ComplexConv2d(1, 1, kernel=3, padding="valid", rng=Rng(5))
        y = layer.forward(crandn(np_rng, 1, 1, 5, 7))
        assert y.shape == (1, 1, 3, 5)

    def test_even_kernel_same_rejected(self, np_rng):
        layer = ComplexConv2d(1, 1, kernel=2, padding="same", rng=Rng(5))
        with pytest.raises(ValueError):
            layer.forward(crandn(np_rng, 1, 1, 4, 4))

    def test_kernel_too_large_for_valid(self, np_rng):
        layer = ComplexConv2d(1, 1, kernel=3, padding="valid", rng=Rng(5))
        with pytest.raises(ValueError):
            layer.forward(crandn(np_rng, 1, 1, 2, 2))

    def test_real_conv_matches_naive(self, np_rng):
        layer = RealConv2d(2, 3, kernel=3, padding="same", rng=Rng(6))
        x = np_rng.normal(size=(2, 2, 5, 5))
        ref = naive_complex_conv(x.astype(complex), layer.weight.astype(complex),
                                 layer.bias.astype(complex), "same")
        assert np.abs(layer.forward(x) - ref.real).max() < 1e-12


class TestIm2Col:
    def test_adjoint_identity(self, np_rng):
        # <im2col(x), c> == <x, col2im(c)> pins col2im as the exact adjoint
        x = crandn(np_rng, 2, 3, 5, 6)
        k, pad = 3, 1
        cols = _im2col(x, k, pad)
        c = crandn(np_rng, *cols.shape)
        lhs = np.sum(cols * c.conj()).real
        rhs = np.sum(x * _col2im(c, x.shape, k, pad).conj()).real
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDense:
    def test_matches_matmul(self, np_rng):
        layer = ComplexDense(4, 3, rng=Rng(7))
        x = crandn(np_rng, 5, 4)
        assert np.allclose(layer.forward(x), x @ layer.weight.T + layer.bias)

    def test_shape_validated(self, np_rng):
        layer = ComplexDense(4, 3, rng=Rng(7))
        with pytest.raises(ValueError):
            layer.forward(crandn(np_rng, 5, 6))

    def test_real_dense(self, np_rng):
        layer = RealDense(4, 2, rng=Rng(8))
        x = np_rng.normal(size=(3, 4))
        assert np.allclose(layer.forward(x), x @ layer.weight.T + layer.bias)


class TestActivations:
    def test_complex_relu_componentwise(self):
        relu = ComplexReLU()
        x = np.array([[-1.0 + 2.0j, 3.0 - 4.0j, 0.0 + 0.0j]])
        assert np.array_equal(relu.forward(x), [[2.0j, 3.0, 0.0]])

    def test_complex_sigmoid_at_zero(self):
        sig = ComplexSigmoid()
        assert sig.forward(np.array([[0.0 + 0.0j]]))[0, 0] == 0.5 + 0.5j

    def test_complex_sigmoid_componentwise(self):
        sig = ComplexSigmoid()
        z = np.array([[2.0 - 1.0j]])
        got = sig.forward(z)[0, 0]
        s = lambda v: 1 / (1 + np.exp(-v))
        assert got == pytest.approx(s(2.0) + 1j * s(-1.0))

    def test_real_relu_and_sigmoid(self):
        x = np.array([[-2.0, 0.0, 3.0]])
        assert np.array_equal(RealReLU().forward(x), [[0.0, 0.0, 3.0]])
        assert RealSigmoid().forward(np.zeros((1, 1)))[0, 0] == 0.5

    @pytest.mark.parametrize("layer, ref", [(ComplexReLU, ref_complex_relu),
                                            (ComplexSigmoid, ref_complex_sigmoid)],
                             ids=["relu", "sigmoid"])
    def test_view_matches_componentwise_reference(self, np_rng, layer, ref):
        base = edge_crandn(np_rng, 6, 4, 5, 7)
        for x in non_contiguous_views(base):
            grad = edge_crandn(np_rng, *x.shape)
            for g in (grad, np.asfortranarray(grad)):
                act = layer()
                y = act.forward(x)
                gx = act.backward(g)
                want_y, want_gx = ref(x, g)
                assert y.dtype == gx.dtype == np.complex128
                assert np.array_equal(y, want_y)
                assert np.array_equal(gx, want_gx)

    def test_sigmoid_extreme_inputs_finite(self):
        y = RealSigmoid().forward(np.array([[-1000.0, 1000.0]]))
        assert np.all(np.isfinite(y))
        assert y[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert y[0, 1] == pytest.approx(1.0, abs=1e-12)


class TestReshapes:
    def test_flatten_round_trip(self, np_rng):
        f = Flatten()
        x = crandn(np_rng, 2, 3, 4, 5)
        y = f.forward(x)
        assert y.shape == (2, 60)
        assert np.array_equal(f.backward(y), x)

    def test_split_then_merge_identity(self, np_rng):
        x = crandn(np_rng, 2, 3, 2, 2)
        split, merge = SplitReIm(), MergeReIm()
        y = split.forward(x)
        assert y.shape == (2, 6, 2, 2)
        assert not np.iscomplexobj(y)
        assert np.array_equal(y[:, :3], x.real)
        assert np.array_equal(y[:, 3:], x.imag)
        assert np.array_equal(merge.forward(y), x)


class TestRealHead:
    def test_interleaved_complex_input(self):
        head = RealHeadDense(4, 2)
        # pick out r0 and i0 of the two complex features
        head.weight = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        x = np.array([[1.0 + 2.0j, 3.0 + 4.0j]])
        assert np.array_equal(head.forward(x), [[1.0, 2.0]])

    def test_real_passthrough(self, np_rng):
        head = RealHeadDense(6, 2, rng=Rng(9))
        x = np_rng.normal(size=(4, 6))
        assert np.allclose(head.forward(x), x @ head.weight.T + head.bias)

    def test_view_matches_interleaving_reference(self, np_rng):
        base = edge_crandn(np_rng, 8, 6)
        for x in (base, base[::2], base[:, ::2], edge_crandn(np_rng, 3, 8).T):
            head = RealHeadDense(2 * x.shape[1], 3, rng=Rng(9))
            grad = np_rng.normal(size=(x.shape[0], 3))
            y = head.forward(x)
            gx = head.backward(grad)
            want = ref_head_dense(head.weight, head.bias, x, grad)
            got = (y, head.grads["weight"], head.grads["bias"], gx)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)

    def test_width_mismatch_rejected(self, np_rng):
        head = RealHeadDense(4, 2, rng=Rng(9))
        with pytest.raises(ValueError):
            head.forward(np_rng.normal(size=(1, 4)) * (1 + 0j))  # 4 complex = 8 real


class TestComplexBatchNorm:
    def test_diagonal_hand_example(self):
        # batch {1, -1, 2j, -2j}: mean 0, Vrr=0.5, Vii=2, Vri=0.
        # Whitening is then diag(1/sqrt(0.5), 1/sqrt(2)); with gamma at its
        # default diag(1/sqrt(2)) the outputs are (1/sqrt(2)) * whitened.
        bn = ComplexBatchNorm(1, eps=0.0)
        x = np.array([[1.0], [-1.0], [2.0j], [-2.0j]])
        y = bn.forward(x, train=True)
        w = 1 / np.sqrt(2.0)
        expect = np.array([[np.sqrt(2.0)], [-np.sqrt(2.0)], [np.sqrt(2.0) * 1j],
                           [-np.sqrt(2.0) * 1j]]) * w
        assert np.allclose(y, expect, atol=1e-12)

    def test_constant_batch_maps_to_beta(self):
        bn = ComplexBatchNorm(2)
        bn.beta = np.array([0.3 - 0.7j, 1.0 + 0.0j])
        x = np.full((5, 2), 4.0 + 2.0j)
        y = bn.forward(x, train=True)
        assert np.allclose(y, np.broadcast_to(bn.beta, (5, 2)))

    def test_whitening_moments(self, np_rng):
        # correlated input -> identity gamma -> unit whitened covariance
        bn = ComplexBatchNorm(3)
        bn.gamma = np.tile(np.eye(2), (3, 1, 1))
        b = 4096
        base = np_rng.normal(size=(b, 3))
        x = (2.0 * base + 1.0) + 1j * (0.5 * base + np_rng.normal(size=(b, 3)) + 2.0)
        y = bn.forward(x, train=True)
        assert np.abs(y.mean(axis=0)).max() < 1e-10
        assert np.abs((y.real ** 2).mean(axis=0) - 1).max() < 1e-2
        assert np.abs((y.imag ** 2).mean(axis=0) - 1).max() < 1e-2
        assert np.abs((y.real * y.imag).mean(axis=0)).max() < 1e-2

    def test_running_stats_drive_inference(self, np_rng):
        bn = ComplexBatchNorm(2)
        x = crandn(np_rng, 64, 2) * 3.0 + (1.0 - 2.0j)
        for _ in range(200):
            bn.forward(x, train=True)
        y_train = bn.forward(x, train=True)
        y_infer = bn.forward(x, train=False)
        assert np.abs(y_train - y_infer).max() < 1e-2

    def test_batch_of_one_rejected(self):
        bn = ComplexBatchNorm(1)
        with pytest.raises(ValueError):
            bn.forward(np.ones((1, 1), dtype=complex), train=True)

    def test_conv_map_axes(self, np_rng):
        # (B, C, H, W) statistics pool over batch and spatial axes
        bn = ComplexBatchNorm(2)
        bn.gamma = np.tile(np.eye(2), (2, 1, 1))
        x = crandn(np_rng, 8, 2, 4, 4) * 5.0
        y = bn.forward(x, train=True)
        assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-10
        assert np.abs((y.real ** 2).mean(axis=(0, 2, 3)) - 1).max() < 1e-2

    def test_channel_mismatch_rejected(self, np_rng):
        bn = ComplexBatchNorm(3)
        with pytest.raises(ValueError):
            bn.forward(crandn(np_rng, 4, 2), train=True)


class TestRealBatchNorm:
    def test_normalizes_batch(self, np_rng):
        bn = RealBatchNorm(4)
        x = np_rng.normal(size=(512, 4)) * 7.0 + 3.0
        y = bn.forward(x, train=True)
        assert np.abs(y.mean(axis=0)).max() < 1e-10
        assert np.abs(y.var(axis=0) - 1).max() < 1e-3

    def test_constant_batch_maps_to_beta(self):
        bn = RealBatchNorm(1)
        bn.beta = np.array([2.5])
        y = bn.forward(np.full((8, 1), 9.0), train=True)
        assert np.allclose(y, 2.5)


class TestResidual:
    def test_zero_branch_is_identity(self, np_rng):
        # spec-built layers start at zero parameters, so branch(x) == bias == 0
        branch = [layer_from_spec({"kind": "complex_conv2d", "in_channels": 2,
                                   "out_channels": 2, "kernel": 3, "padding": "same"})]
        res = Residual(branch)
        x = crandn(np_rng, 2, 2, 3, 3)
        assert np.array_equal(res.forward(x), x)

    def test_adds_branch_output(self, np_rng):
        res = Residual([ComplexDense(3, 3, rng=Rng(11))])
        x = crandn(np_rng, 4, 3)
        inner = x @ res.layers[0].weight.T + res.layers[0].bias
        assert np.allclose(res.forward(x), x + inner)

    def test_shape_change_rejected(self, np_rng):
        res = Residual([ComplexDense(3, 2, rng=Rng(11))])
        with pytest.raises(ValueError):
            res.forward(crandn(np_rng, 4, 3))

    def test_param_names_prefixed(self):
        res = Residual([ComplexDense(3, 3), ComplexReLU()])
        names = [n for n, _ in res.param_items()]
        assert names == ["0.weight", "0.bias"]


class TestSpecRoundTrip:
    MAKERS = [
        lambda: ComplexConv2d(2, 3, kernel=3, padding="same", rng=Rng(1)),
        lambda: RealConv2d(1, 2, kernel=1, padding="valid", rng=Rng(1)),
        lambda: ComplexDense(4, 5, rng=Rng(1)),
        lambda: RealDense(4, 5, rng=Rng(1)),
        lambda: RealHeadDense(6, 3, rng=Rng(1)),
        lambda: ComplexBatchNorm(3),
        lambda: RealBatchNorm(3),
        lambda: ComplexReLU(),
        lambda: RealSigmoid(),
        lambda: Flatten(),
        lambda: SplitReIm(),
        lambda: MergeReIm(),
        lambda: Residual([ComplexDense(2, 2), ComplexReLU()]),
        lambda: ComplexSigmoid(),
        lambda: RealReLU(),
    ]

    def test_every_kind_covered(self):
        assert {make().kind for make in self.MAKERS} == set(_LAYER_CLASSES)

    @pytest.mark.parametrize("make", MAKERS)
    def test_spec_rebuild_preserves_structure(self, make):
        layer = make()
        rebuilt = layer_from_spec(layer.spec())
        assert rebuilt.spec() == layer.spec()
        for (n1, a1), (n2, a2) in zip(layer.param_items(), rebuilt.param_items()):
            assert n1 == n2
            assert a1.shape == a2.shape
            assert a1.dtype == a2.dtype

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            layer_from_spec({"kind": "attention"})
        # malformed specs of known kinds, also inside a residual branch
        for bad in ({"kind": "complex_batchnorm", "eps": 1e-5, "momentum": 0.9},
                    {"kind": "real_batchnorm", "channels": 2, "eps": 1e-5},
                    {"kind": "real_dense", "in_features": 2, "out_features": 2,
                     "bias": True},
                    {"kind": "real_dense", "in_features": 2, "out_features": 2,
                     "rng": 1},
                    {"kind": "complex_relu", "channels": 3},
                    {"kind": "residual_add"},
                    {"kind": "residual_add", "layers": [{"kind": "flatten", "x": 1}]}):
            with pytest.raises(ValueError):
                layer_from_spec(bad)
