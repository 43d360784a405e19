"""Layer forward-pass tests against naive reference implementations."""

import numpy as np
import pytest

from immimo.cvnn.layers import (
    ComplexBatchNorm,
    ComplexConv2d,
    ComplexDense,
    ComplexReLU,
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
    _im2col,
    _im2col_cm,
    _lyapunov2,
    _out_hw,
    _pad,
    _sigmoid,
    _windows,
    layer_from_spec,
)
from immimo.cvnn import Adam, Model, layers as layers_module
from immimo.linalg import Rng
from immimo.twostage import build_aapd, build_se

from conftest import rel_err


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


# Componentwise references for the activations, which run on the real view
# of their input; each returns (forward output, input gradient).

def componentwise(ref):
    """ref(x, grad) of real arrays, on each part of complex ones."""
    def split(x, grad):
        if not np.iscomplexobj(x):
            return ref(x, grad)
        (yr, gr), (yi, gi) = ref(x.real, grad.real), ref(x.imag, grad.imag)
        return yr + 1j * yi, gr + 1j * gi
    return split


@componentwise
def ref_relu(x, grad):
    return x * (x > 0), grad * (x > 0)


@componentwise
def ref_sigmoid(x, grad):
    s = _sigmoid(x)
    return s, grad * s * (1 - s)


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

    def test_even_kernel_same_rejected(self):
        with pytest.raises(ValueError, match="odd kernel"):
            ComplexConv2d(1, 1, kernel=2, padding="same", rng=Rng(5))

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


def col2im(cols, shape, k, pad):
    """Adjoint of _im2col: scatter-add batch-major (B, C*k*k, P) patches
    back onto (B, C, H, W), the taps summed in (di, dj) order."""
    b, c, h, w = shape
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    six = cols.reshape(b, c, k, k, ho, wo)
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for di in range(k):
        for dj in range(k):
            xp[:, :, di:di + ho, dj:dj + wo] += six[:, :, di, dj]
    return xp[:, :, pad:pad + h, pad:pad + w] if pad else xp


def forward_cache(layer):
    """(input, batch-major patches, pad) of `layer`'s last forward."""
    x, pad = layer._cache
    return x, _im2col(x, layer.kernel, pad), pad


def rows_conv_backward(layer, grad):
    """The conv backward before the patches were rebuilt channel-major:
    batch-major patches, a conjugated (B*P, C*k*k) copy of them for the
    weight gradient, and B batched GEMMs folded by col2im for the input
    gradient. Returns (weight grad, bias grad, input grad)."""
    x, cols, pad = forward_cache(layer)
    b = grad.shape[0]
    g = grad.reshape(b, layer.out_channels, -1)                 # (B, Cout, P)
    rows = np.empty((b, cols.shape[2], cols.shape[1]), dtype=cols.dtype)
    np.conjugate(cols.transpose(0, 2, 1), out=rows)
    dw = (g.transpose(1, 0, 2).reshape(layer.out_channels, -1)
          @ rows.reshape(-1, cols.shape[1]))
    wmat = layer.weight.reshape(layer.out_channels, -1)
    dcols = wmat.conj().T @ g                                   # (B, CKK, P)
    return (dw.reshape(layer.weight.shape), g.sum(axis=(0, 2)),
            col2im(dcols, x.shape, layer.kernel, pad))


def einsum_conv_backward(layer, grad):
    """The conv backward as two einsums, the form before the GEMMs:
    (weight grad, bias grad, input grad) from `layer`'s forward cache."""
    x, cols, pad = forward_cache(layer)
    g = grad.reshape(grad.shape[0], layer.out_channels, -1)
    dw = np.einsum("bop,bip->oi", g, cols.conj())
    wmat = layer.weight.reshape(layer.out_channels, -1)
    dcols = np.einsum("oi,bop->bip", wmat.conj(), g)
    return (dw.reshape(layer.weight.shape), g.sum(axis=(0, 2)),
            col2im(dcols, x.shape, layer.kernel, pad))


def conv_backward_pair(np_rng, cls, cin, cout, h, w, batch, kernel=3, padding="same",
                       reference=None):
    """(layer's backward, reference backward) on one random input and grad;
    the reference defaults to rows_conv_backward."""
    layer = cls(cin, cout, kernel=kernel, padding=padding, rng=Rng(8))
    draw = crandn if cls is ComplexConv2d else (lambda r, *s: r.normal(size=s))
    x = draw(np_rng, batch, cin, h, w)
    grad = draw(np_rng, *layer.forward(x, train=True).shape)
    want = (reference or rows_conv_backward)(layer, grad)
    dx = layer.backward(grad)
    return (layer.grads["weight"], layer.grads["bias"], dx), want


class TestConvBackward:
    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("cls", [ComplexConv2d, RealConv2d])
    def test_matches_einsum_reference(self, np_rng, cls, padding, kernel, batch):
        got, want = conv_backward_pair(np_rng, cls, 3, 5, 4, 6, batch, kernel, padding,
                                       reference=einsum_conv_backward)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert rel_err(g, w) <= 1e-12

    # the train shapes of the benchmark nets at batch 100: AAPD convs on
    # n_r x t = 8 x 16 and 4 x 16, SE convs on n_u x t = 2 x 16 and 1 x 16.
    # The input gradient is a convolution of the output gradient, and the
    # weight gradient a product with the patches on the left, so both sum
    # in another order than the reference. Measured at complex128: within
    # 7.3e-16 of the largest entry (a few ulps); required: 1e-14. The bias
    # gradient is the same sum, bit for bit.
    @pytest.mark.parametrize("cin, cout, h", [
        (1, 32, 8), (32, 64, 8), (1, 32, 4), (32, 64, 4), (16, 16, 2), (16, 16, 1)])
    def test_tracks_rows_reference_at_train_shapes(self, np_rng, cin, cout, h):
        got, want = conv_backward_pair(np_rng, ComplexConv2d, cin, cout, h, 16, 100)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert rel_err(g, w) <= 1e-14
        assert np.array_equal(got[1], want[1])

    # (h, w, kernel, padding): maps 5 x 6, 1 x 16, 2 x 1 and 1 x 1, each
    # kernel that fits the map under valid padding
    @pytest.mark.parametrize("h, w, kernel, padding", [
        (h, w, k, p) for p in ("same", "valid") for k in (1, 3, 5)
        for h, w in ((5, 6), (1, 16), (2, 1), (1, 1)) if p == "same" or min(h, w) >= k])
    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("cls", [ComplexConv2d, RealConv2d])
    def test_input_gradient_is_the_adjoint(self, np_rng, cls, batch, h, w, kernel, padding):
        # <conv(x), G> == <x, dX(G)> for the bias-free conv at 64 bits: the
        # flipped-kernel convolution that backward runs is the exact adjoint,
        # taps that only read padding included
        layer = cls(3, 4, kernel=kernel, padding=padding, rng=Rng(8))
        assert not layer.bias.any()
        draw = crandn if cls is ComplexConv2d else (lambda r, *s: r.normal(size=s))
        x = draw(np_rng, batch, 3, h, w)
        y = layer.forward(x, train=True)
        g = draw(np_rng, *y.shape)
        dx = layer.backward(g)
        assert dx.shape == x.shape and dx.dtype == x.dtype
        lhs, rhs = np.sum(y * np.conj(g)), np.sum(x * np.conj(dx))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    # one output channel (a gemv in BLAS) and float64 may sum in another
    # order; kernels larger than the input leave taps that only read padding
    @pytest.mark.parametrize("cls, cin, cout, h, w, kernel", [
        (ComplexConv2d, 16, 1, 2, 16, 3), (ComplexConv2d, 2, 1, 1, 16, 3),
        (RealConv2d, 16, 16, 2, 16, 3), (RealConv2d, 4, 1, 8, 16, 3),
        (RealConv2d, 3, 5, 4, 16, 3), (ComplexConv2d, 3, 4, 1, 2, 5),
        (ComplexConv2d, 3, 4, 2, 1, 5), (RealConv2d, 2, 3, 1, 1, 3)])
    def test_matches_rows_reference(self, np_rng, cls, cin, cout, h, w, kernel):
        got, want = conv_backward_pair(np_rng, cls, cin, cout, h, w, 20, kernel)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert rel_err(g, w) <= 1e-12

    @pytest.mark.parametrize("cls", [ComplexConv2d, RealConv2d])
    @pytest.mark.parametrize("train", [True, False])
    def test_forward_keeps_nothing_larger_than_its_input(self, np_rng, cls, train):
        # the patch matrix is k*k times the input; it must not outlive forward
        layer = cls(4, 8, kernel=3, padding="same", rng=Rng(8))
        x = crandn(np_rng, 5, 4, 3, 6)
        if cls is RealConv2d:
            x = x.real.copy()
        layer.forward(x, train=train)
        held = [a for v in vars(layer).values() for a in (v if isinstance(v, tuple) else (v,))
                if isinstance(a, np.ndarray)]
        assert max(a.size for a in held) <= x.size


def slab_frames(layer, h, w):
    """Frames in one forward slab of `layer` on an (h, w) map."""
    ho, wo, _ = _out_hw(h, w, layer.kernel, layer.padding)
    return layers_module._SLAB_BYTES // (layer.in_channels * layer.kernel ** 2 * ho * wo
                                         * layer.weight.itemsize)


class TestConvSlabs:
    """The forward's slabbed product equals the whole-batch one byte for
    byte: numpy runs one GEMM per frame of a stacked matmul."""

    @staticmethod
    def whole_batch(layer, x):
        # the forward before it was slabbed: one product over every frame
        x = np.asarray(x, dtype=layer.weight.dtype)
        b, _, h, w = x.shape
        ho, wo, pad = _out_hw(h, w, layer.kernel, layer.padding)
        out = layer.weight.reshape(layer.out_channels, -1) @ _im2col(x, layer.kernel, pad)
        out += layer.bias[None, :, None]
        return out.reshape(b, layer.out_channels, ho, wo)

    # complex widths on n_r x t = 8 x 16 and 4 x 16 (AAPD convs) and on
    # n_u x t = 2 x 16 and 1 x 16 (SE convs); the real twin doubles them
    @pytest.mark.parametrize("cin, cout, h", [
        (1, 32, 8), (32, 64, 8), (1, 32, 4), (32, 64, 4),
        (1, 16, 2), (16, 16, 2), (16, 1, 2), (1, 16, 1), (16, 16, 1), (16, 1, 1)])
    @pytest.mark.parametrize("batch", [1, 257])
    @pytest.mark.parametrize("cls", [ComplexConv2d, RealConv2d])
    @pytest.mark.parametrize("narrow", [True, False])
    def test_equals_whole_batch(self, np_rng, cls, cin, cout, h, batch, narrow):
        real = cls is RealConv2d
        w = 2 if real else 1
        layer = cls(w * cin, w * cout, rng=Rng(3))
        layer.bias = np_rng.normal(size=w * cout)
        dt = (np.float32 if narrow else np.float64) if real else \
            (np.complex64 if narrow else np.complex128)
        layer.weight, layer.bias = layer.weight.astype(dt), layer.bias.astype(dt)
        x = crandn(np_rng, batch, w * cin, h, 16)
        x = x.real.copy() if real else x
        got = layer.forward(x)
        want = self.whole_batch(layer, x)
        assert got.dtype == want.dtype == layer.weight.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cls", [ComplexConv2d, RealConv2d])
    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("batch", [1, 5, 37])
    def test_valid_and_train(self, np_rng, cls, train, batch, monkeypatch):
        # a small slab budget: 2 frames of (6*9, 4*14) c16 patches per
        # slab, 4 of f8 ones
        monkeypatch.setattr(layers_module, "_SLAB_BYTES", 2 * 54 * 56 * 16)
        layer = cls(6, 5, kernel=3, padding="valid", rng=Rng(4))
        x = crandn(np_rng, batch, 6, 6, 16)
        x = x if cls is ComplexConv2d else x.real.copy()
        assert slab_frames(layer, 6, 16) == (2 if cls is ComplexConv2d else 4)
        got = layer.forward(x, train=train)
        assert got.tobytes() == self.whole_batch(layer, x).tobytes()

    def test_aapd_chunk_spans_slabs(self):
        # the second AAPD conv of 8x2-csi at c8, whose patches the slab
        # bound keeps in cache: 256 frames run as many GEMM slabs
        layer = ComplexConv2d(32, 64)
        layer.weight = layer.weight.astype(np.complex64)
        assert 1 < slab_frames(layer, 8, 16) < 256


class TestIm2Col:
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128, np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_windows_equal_sliding_window_view(self, np_rng, k, padding, batch, dtype):
        pad = k // 2 if padding == "same" else 0
        x = crandn(np_rng, batch, 3, 6, 7)
        x = (x if np.dtype(dtype).kind == "c" else x.real).astype(dtype)
        # unpadded valid windows view the input itself, whatever its strides
        for view in (x, x[:, ::-1, :, ::-1], x.transpose(0, 1, 3, 2)):
            got = _windows(view, k, pad)
            want = np.lib.stride_tricks.sliding_window_view(_pad(view, pad), (k, k),
                                                            axis=(2, 3))
            assert got.dtype == want.dtype
            assert got.shape == want.shape and got.strides == want.strides
            assert np.array_equal(got, want)
            assert not got.flags.writeable

    def test_channel_major_is_batch_major_transposed(self, np_rng):
        x = crandn(np_rng, 2, 3, 5, 6)
        bm = _im2col(x, 3, 1)                                   # (B, CKK, P)
        cm = _im2col_cm(x, 3, 1)                                # (CKK, B*P)
        assert np.array_equal(cm, bm.transpose(1, 0, 2).reshape(bm.shape[1], -1))


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

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128, np.float32, np.float64])
    @pytest.mark.parametrize("batch, n_in, n_out", [(100, 8192, 256), (100, 256, 128),
                                                     (50, 128, 8), (1, 16, 8), (257, 33, 7)])
    def test_weight_gradient_keeps_the_conjugated_product_bytes(self, np_rng, dtype,
                                                                batch, n_in, n_out):
        # backward takes grad.T @ conj(x), conjugating the (B, in) input; the
        # form before, conj(conj(grad).T @ x), conjugated the (out, in)
        # product, and the bytes are the same (the AAPD's first dense layer
        # at both workloads' widths, its next two, a single frame, odd sizes)
        cls = ComplexDense if np.dtype(dtype).kind == "c" else RealDense
        layer = cls(n_in, n_out, rng=Rng(3))
        layer.set_tensor("weight", layer.weight.astype(dtype))
        layer.set_tensor("bias", layer.bias.astype(dtype))
        x, grad = (crandn(np_rng, *shape).astype(dtype) if cls is ComplexDense
                   else np_rng.normal(size=shape).astype(dtype)
                   for shape in ((batch, n_in), (batch, n_out)))
        layer.forward(x, train=True)
        layer.backward(grad)
        want = np.conjugate(np.conjugate(grad).T @ x)
        got = layer.grads["weight"]
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()


class TestActivations:
    def test_complex_relu_componentwise(self):
        relu = ComplexReLU()
        x = np.array([[-1.0 + 2.0j, 3.0 - 4.0j, 0.0 + 0.0j]])
        assert np.array_equal(relu.forward(x), [[2.0j, 3.0, 0.0]])

    def test_real_relu_and_sigmoid(self):
        x = np.array([[-2.0, 0.0, 3.0]])
        assert np.array_equal(RealReLU().forward(x), [[0.0, 0.0, 3.0]])
        assert RealSigmoid().forward(np.zeros((1, 1)))[0, 0] == 0.5

    @pytest.mark.parametrize("layer, ref", [(ComplexReLU, ref_relu),
                                            (RealSigmoid, ref_sigmoid),
                                            (RealReLU, ref_relu)],
                             ids=["relu", "sigmoid", "real_relu"])
    def test_view_matches_componentwise_reference(self, np_rng, layer, ref):
        # an activation returns its input's kind and precision, forward and
        # backward, whatever the memory order of its input and gradient
        def draw(dtype, *shape):
            z = edge_crandn(np_rng, *shape)
            return (z if np.dtype(dtype).kind == "c" else z.real).astype(dtype)
        for dtype in (np.complex64, np.complex128, np.float32, np.float64):
            for x in non_contiguous_views(draw(dtype, 6, 4, 5, 7)):
                grad = draw(dtype, *x.shape)
                for g in (grad, np.asfortranarray(grad)):
                    act = layer()
                    y = act.forward(x, train=True)
                    gx = act.backward(g)
                    want_y, want_gx = ref(x, g)
                    assert y.dtype == gx.dtype == dtype
                    assert np.array_equal(y, want_y)
                    assert np.array_equal(gx, want_gx)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_equals_the_piecewise_mask_form(self, np_rng, dtype):
        # bit for bit against the boolean-mask form it replaced, on random
        # lengths and scales with zeros of both signs, infinities and NaN
        def masked(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 88.7, -88.7, 800.0,
                            -800.0, np.finfo(dtype).max, -np.finfo(dtype).max,
                            np.finfo(dtype).tiny, -np.finfo(dtype).tiny], dtype=dtype)
        for n in (1, 7, 256 * 8, 100003):
            for scale in (0.1, 3.0, 40.0, 800.0):
                x = (np_rng.normal(size=n) * scale).astype(dtype)
                x[np_rng.integers(0, n, size=max(n // 10, 1))] = 0.0
                x = np.concatenate([special, x])
                got, want = _sigmoid(x), masked(x)
                assert got.dtype == want.dtype == dtype
                nan = np.isnan(want)
                assert np.array_equal(nan, np.isnan(got))
                assert got[~nan].tobytes() == want[~nan].tobytes()
        with np.errstate(over="raise"):
            _sigmoid(special[np.isfinite(special)])

    def test_sigmoid_extreme_inputs_finite(self):
        y = RealSigmoid().forward(np.array([[-1000.0, 1000.0]]))
        assert np.all(np.isfinite(y))
        assert y[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert y[0, 1] == pytest.approx(1.0, abs=1e-12)


class TestReshapes:
    def test_flatten_round_trip(self, np_rng):
        f = Flatten()
        x = crandn(np_rng, 2, 3, 4, 5)
        y = f.forward(x, train=True)
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
            y = head.forward(x, train=True)
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


def whiten_then_gamma_batchnorm(bn, x, grad, train):
    """ComplexBatchNorm in its form before the widely-linear map: whiten
    the centred (re, im) pair with V^(-1/2), apply the 2x2 gamma, add beta;
    backward through the whitened pair. Leaves `bn` as it is and returns
    (y, input grad, gamma grad, beta grad, running_mean, running_v)."""
    axes = (0, 2, 3) if x.ndim == 4 else (0,)

    def ex(a):
        return a[None, :, None, None] if x.ndim == 4 else a[None, :]

    running_mean, running_v = bn.running_mean, bn.running_v
    n = int(np.prod([x.shape[a] for a in axes]))
    if train:
        mean = x.mean(axis=axes)
        u = x - ex(mean)
        v11 = (u.real ** 2).mean(axis=axes)
        v12 = (u.real * u.imag).mean(axis=axes)
        v22 = (u.imag ** 2).mean(axis=axes)
        m = bn.momentum
        running_mean = m * running_mean + (1 - m) * mean
        running_v = m * running_v + (1 - m) * np.stack([v11, v12, v22], axis=1)
    else:
        u = x - ex(running_mean)
        v11, v12, v22 = running_v.T
    v11, v22 = v11 + bn.eps, v22 + bn.eps
    # V^(-1/2) = t adj(V + sI) / (s t^2), s = sqrt(det V), t = sqrt(tr V + 2s)
    s = np.sqrt(v11 * v22 - v12 * v12)
    t = np.sqrt(v11 + v22 + 2.0 * s)
    w11, w12, w22 = (v22 + s) / (s * t), -v12 / (s * t), (v11 + s) / (s * t)
    W11, W12, W22 = ex(w11), ex(w12), ex(w22)
    xt_r = W11 * u.real + W12 * u.imag
    xt_i = W12 * u.real + W22 * u.imag
    g = bn.gamma
    y = ((ex(g[:, 0, 0]) * xt_r + ex(g[:, 0, 1]) * xt_i + ex(bn.beta.real))
         + 1j * (ex(g[:, 1, 0]) * xt_r + ex(g[:, 1, 1]) * xt_i + ex(bn.beta.imag)))
    gr, gi = grad.real, grad.imag
    dgamma = np.zeros_like(g)
    dgamma[:, 0, 0] = (gr * xt_r).sum(axis=axes)
    dgamma[:, 0, 1] = (gr * xt_i).sum(axis=axes)
    dgamma[:, 1, 0] = (gi * xt_r).sum(axis=axes)
    dgamma[:, 1, 1] = (gi * xt_i).sum(axis=axes)
    dbeta = gr.sum(axis=axes) + 1j * gi.sum(axis=axes)
    gt_r = ex(g[:, 0, 0]) * gr + ex(g[:, 1, 0]) * gi
    gt_i = ex(g[:, 0, 1]) * gr + ex(g[:, 1, 1]) * gi
    du_r = W11 * gt_r + W12 * gt_i
    du_i = W12 * gt_r + W22 * gt_i
    if train:
        lw11 = (gt_r * u.real).sum(axis=axes)
        lw12 = (gt_r * u.imag + gt_i * u.real).sum(axis=axes)
        lw22 = (gt_i * u.imag).sum(axis=axes)
        zero, one = np.zeros_like(s), np.ones_like(s)
        ds = np.stack([v22 / (2 * s), -v12 / s, v11 / (2 * s)])
        dt = (np.array([1.0, 0.0, 1.0])[:, None] + 2 * ds) / (2 * t)
        dden, den = t * ds + s * dt, s * t
        dw11 = ((np.stack([zero, zero, one]) + ds) * den - (v22 + s) * dden) / den ** 2
        dw22 = ((np.stack([one, zero, zero]) + ds) * den - (v11 + s) * dden) / den ** 2
        dw12 = (-np.stack([zero, one, zero]) * den + v12 * dden) / den ** 2
        lv11, lv12, lv22 = (ex(a) for a in lw11 * dw11 + lw12 * dw12 + lw22 * dw22)
        du_r = du_r + (2 * lv11 * u.real + lv12 * u.imag) / n
        du_i = du_i + (lv12 * u.real + 2 * lv22 * u.imag) / n
        du_r = du_r - du_r.mean(axis=axes, keepdims=True)
        du_i = du_i - du_i.mean(axis=axes, keepdims=True)
    return y, du_r + 1j * du_i, dgamma, dbeta, running_mean, running_v


class TestComplexBatchNorm:
    @pytest.mark.parametrize("train", [True, False], ids=["train", "infer"])
    @pytest.mark.parametrize("shape", [(9, 3), (6, 3, 4, 5)], ids=["dense", "conv"])
    def test_matches_whiten_then_gamma_reference(self, np_rng, shape, train):
        bn = ComplexBatchNorm(3)
        bn.gamma = np_rng.normal(size=(3, 2, 2))
        bn.beta = crandn(np_rng, 3)
        bn.running_mean = crandn(np_rng, 3)
        root = np_rng.normal(size=(3, 2, 2))
        v = root @ root.transpose(0, 2, 1) + 0.1 * np.eye(2)   # positive definite
        bn.running_v = np.stack([v[:, 0, 0], v[:, 0, 1], v[:, 1, 1]], axis=1)
        x = crandn(np_rng, *shape) * 2.0 + (1.0 - 0.5j)
        grad = crandn(np_rng, *shape)
        y_ref, dx_ref, dgamma_ref, dbeta_ref, mean_ref, v_ref = \
            whiten_then_gamma_batchnorm(bn, x, grad, train)
        y = bn.forward(x, train=train)
        checks = [(y, y_ref)]
        if train:   # infer mode keeps nothing for a backward
            dx = bn.backward(grad)
            checks += [(dx, dx_ref), (bn.grads["gamma"], dgamma_ref),
                       (bn.grads["beta"], dbeta_ref)]
        for got, want in checks:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert rel_err(got, want) <= 1e-12
        assert np.array_equal(bn.running_mean, mean_ref)
        assert np.array_equal(bn.running_v, v_ref)

    def test_diagonal_hand_example(self):
        # batch {1, -1, 2j, -2j}: mean 0, Vrr=0.5, Vii=2, Vri=0.
        # Whitening is then diag(1/sqrt(0.5), 1/sqrt(2)); with gamma at its
        # default diag(1/sqrt(2)) the outputs are (1/sqrt(2)) * whitened.
        bn = ComplexBatchNorm(1, eps=1e-300)   # eps must be > 0; this one vanishes
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

    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e6])
    def test_lyapunov2_solves_the_2x2_equation(self, np_rng, cond):
        """Random symmetric positive definite a of condition number `cond`,
        at scales 1e-3 to 1e3, and random symmetric q: the residual
        a X + X a - q is at most 1e-13 of 2 |a| |X|, the backward error of
        a Sylvester solve (Higham, Accuracy and Stability of Numerical
        Algorithms, 2002, section 16.2); measured at most 2.1e-15. The
        residual's own rounding is about 1e-16 |a| |X|, up to cond * 1e-16
        of |q|, so |q| cannot be the scale."""
        c = 500
        angle = np_rng.uniform(0, np.pi, c)
        rot = np.stack([np.stack([np.cos(angle), -np.sin(angle)], -1),
                        np.stack([np.sin(angle), np.cos(angle)], -1)], -2)
        lam = np.stack([np.ones(c), np.full(c, 1 / cond)], -1) * 10 ** np_rng.uniform(-3, 3, (c, 1))
        a = rot * lam[:, None, :] @ rot.transpose(0, 2, 1)
        a = (a + a.transpose(0, 2, 1)) / 2
        q = np_rng.normal(size=(c, 2, 2))
        q += q.transpose(0, 2, 1)
        x = _lyapunov2(a, q)
        r, ax = a @ x + x @ a - q, (1, 2)
        ratio = np.linalg.norm(r, axis=ax) / (2 * np.linalg.norm(a, axis=ax)
                                              * np.linalg.norm(x, axis=ax))
        assert ratio.max() <= 1e-13


class TestComplexBatchNormMemo:
    """Infer mode memoizes its map on the exact bytes of its tensors, so
    every way a tensor changes reaches the next inference call."""

    shape = (3, 4, 2, 5)

    @staticmethod
    def random_tensors(bn, np_rng):
        c = bn.channels
        root = np_rng.normal(size=(c, 2, 2))
        v = root @ root.transpose(0, 2, 1) + 0.1 * np.eye(2)    # positive definite
        return [("gamma", np_rng.normal(size=(c, 2, 2))), ("beta", crandn(np_rng, c)),
                ("running_mean", crandn(np_rng, c)),
                ("running_v", np.stack([v[:, 0, 0], v[:, 0, 1], v[:, 1, 1]], axis=1))]

    @staticmethod
    def counted_whitening(monkeypatch):
        calls = []
        whiten = ComplexBatchNorm._whiten_coeffs

        def counting(*v):
            calls.append(1)
            return whiten(*v)
        monkeypatch.setattr(ComplexBatchNorm, "_whiten_coeffs", staticmethod(counting))
        return calls

    def check_against_fresh(self, bn, np_rng, calls):
        """Infer output equals a new layer's that holds copies of bn's
        tensors; a repeat call does not recompute."""
        x = (crandn(np_rng, *self.shape) * 2.0 + (1.0 - 0.5j)).astype(bn.beta.dtype)
        fresh = ComplexBatchNorm(bn.channels, eps=bn.eps, momentum=bn.momentum)
        for name, a in bn.tensor_items():
            fresh.set_tensor(name, a.copy())
        got, want = bn.forward(x), fresh.forward(x)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        before = len(calls)
        assert np.array_equal(bn.forward(x), got)
        assert len(calls) == before

    @pytest.mark.parametrize("quantized", [False, True], ids=["c16", "c8"])
    def test_memo_follows_its_tensors(self, np_rng, monkeypatch, quantized):
        calls = self.counted_whitening(monkeypatch)
        bn = ComplexBatchNorm(4)
        net = Model([bn])
        net.set_tensors([((0, n), a) for n, a in self.random_tensors(bn, np_rng)])
        if quantized:
            net.quantize_state()
        dt = bn.beta.dtype

        def train_forward():
            net.forward((crandn(np_rng, *self.shape) + (2.0 - 1.0j)).astype(dt), train=True)

        def adam_step():
            # Adam rounds gamma and beta to c8/f4 (replaced tensors), then
            # writes its step into them; a train-mode pass sets the grads
            # and moves the running statistics too
            opt = Adam(net, lr=0.1)
            net.forward((crandn(np_rng, *self.shape) + (2.0 - 1.0j)).astype(dt), train=True)
            net.backward(crandn(np_rng, *self.shape))
            held = [bn.gamma, bn.beta]
            opt.step()
            assert bn.gamma is held[0] and bn.beta is held[1]

        def set_tensor():
            bn.set_tensor("running_mean", (crandn(np_rng, 4) * 0.5).astype(dt))

        def load_in_place():
            held = [a for _, a in net.tensor_items()]
            new = [a for _, a in self.random_tensors(bn, np_rng)]
            net.load_state_arrays(new)
            assert all(a is b for a, (_, b) in zip(held, net.tensor_items()))

        for event in (train_forward, adam_step, set_tensor, load_in_place,
                      net.quantize_state):
            self.check_against_fresh(bn, np_rng, calls)
            event()
            self.check_against_fresh(bn, np_rng, calls)
        assert bn.beta.dtype == np.complex64

    def test_memo_holds_per_channel_arrays_only(self, np_rng):
        bn = ComplexBatchNorm(4)
        bn.forward(crandn(np_rng, 64, 4, 8, 8))

        def arrays(v):
            return [v] if isinstance(v, np.ndarray) else [a for e in v for a in arrays(e)]
        held = arrays(bn._memo[1])
        assert len(held) == 3 and all(a.shape == (4,) for a in held)


# by layer kind: a maker, an input shape, and whether the input is real
BACKWARD_CASES = {
    "complex_conv2d": (lambda: ComplexConv2d(2, 3, rng=Rng(1)), (4, 2, 3, 5), False),
    "real_conv2d": (lambda: RealConv2d(2, 3, rng=Rng(1)), (4, 2, 3, 5), True),
    "complex_dense": (lambda: ComplexDense(4, 5, rng=Rng(1)), (4, 4), False),
    "real_dense": (lambda: RealDense(4, 5, rng=Rng(1)), (4, 4), True),
    "real_head_dense": (lambda: RealHeadDense(8, 3, rng=Rng(1)), (4, 4), False),
    "complex_relu": (lambda: ComplexReLU(), (4, 3), False),
    "real_relu": (lambda: RealReLU(), (4, 3), True),
    "real_sigmoid": (lambda: RealSigmoid(), (4, 3), True),
    "flatten": (lambda: Flatten(), (4, 2, 3, 5), False),
    "complex_batchnorm": (lambda: ComplexBatchNorm(3), (4, 3, 2, 2), False),
    "real_batchnorm": (lambda: RealBatchNorm(3), (4, 3, 2, 2), True),
}


# the ReLUs and Flatten hold no tensors: their backward keeps the gradient's precision
@pytest.mark.parametrize("kind", [k for k in BACKWARD_CASES
                                  if k not in ("complex_relu", "real_relu", "flatten")])
@pytest.mark.parametrize("train", [True, False], ids=["train", "infer"])
def test_backward_computes_at_the_layers_precision(kind, train, np_rng):
    # a layer at c8/f4 infers at 32 bits, and handed a 64-bit output
    # gradient after a train-mode forward returns its input gradient and
    # its parameter gradients at 32 bits
    make, shape, real = BACKWARD_CASES[kind]
    layer = make()
    Model([layer]).quantize_state()
    x = np_rng.normal(size=shape) if real else crandn(np_rng, *shape)
    y = layer.forward(x.astype(np.float32 if real else np.complex64), train=train)
    assert y.dtype in (np.float32, np.complex64)
    if not train:
        return
    grad = np_rng.normal(size=y.shape) if np.isrealobj(y) else crandn(np_rng, *y.shape)
    assert grad.dtype in (np.float64, np.complex128)
    gx = layer.backward(grad)
    assert gx.dtype == (np.float32 if real else np.complex64)
    for (name, p), (_, g) in zip(layer.param_items(), layer.grad_items()):
        assert g.dtype == p.dtype and p.dtype in (np.float32, np.complex64), name


@pytest.mark.parametrize("kind", BACKWARD_CASES)
def test_backward_needs_a_train_mode_forward(kind, np_rng):
    # an infer forward keeps nothing and drops what a train-mode forward
    # kept, and a backward drops what the train-mode forward before it kept
    make, shape, real = BACKWARD_CASES[kind]
    layer = make()
    assert layer.kind == kind
    x = np_rng.normal(size=shape) if real else crandn(np_rng, *shape)
    layer.forward(x, train=True)
    y = layer.forward(x)
    grad = np.ones_like(y)
    assert layer._cache is None
    with pytest.raises(RuntimeError, match="needs a train-mode forward"):
        layer.backward(grad)
    layer.forward(x, train=True)
    layer.backward(grad)
    assert layer._cache is None
    with pytest.raises(RuntimeError, match="needs a train-mode forward"):
        layer.backward(grad)


@pytest.mark.parametrize("cls", [ComplexBatchNorm, RealBatchNorm])
@pytest.mark.parametrize("kwargs", [
    {"eps": None}, {"eps": -1.0}, {"eps": 0.0}, {"eps": float("nan")},
    {"eps": float("inf")}, {"eps": True}, {"eps": "1e-5"},
    {"momentum": 1.5}, {"momentum": 0.0}, {"momentum": 1}, {"momentum": False},
    {"momentum": None},
], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
def test_batchnorm_rejects_bad_eps_and_momentum(cls, kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        cls(4, **kwargs)


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
    # by layer kind; a suffix tells two makers of one kind apart
    MAKERS = {
        "complex_conv2d": lambda: ComplexConv2d(2, 3, kernel=3, padding="same", rng=Rng(1)),
        "real_conv2d": lambda: RealConv2d(1, 2, kernel=1, padding="valid", rng=Rng(1)),
        "complex_dense": lambda: ComplexDense(4, 5, rng=Rng(1)),
        "real_dense": lambda: RealDense(4, 5, rng=Rng(1)),
        "real_head_dense": lambda: RealHeadDense(6, 3, rng=Rng(1)),
        "complex_batchnorm": lambda: ComplexBatchNorm(3),
        "real_batchnorm": lambda: RealBatchNorm(3),
        "complex_relu": lambda: ComplexReLU(),
        "real_sigmoid": lambda: RealSigmoid(),
        "flatten": lambda: Flatten(),
        "split_reim": lambda: SplitReIm(),
        "merge_reim": lambda: MergeReIm(),
        "residual_add": lambda: Residual([ComplexDense(2, 2), ComplexReLU()]),
        "real_relu": lambda: RealReLU(),
        # float arguments at other than their defaults, inside a nested list
        "residual_add-bn-args": lambda: Residual([ComplexBatchNorm(2, eps=1e-3, momentum=0.5)]),
    }

    def test_every_kind_covered(self):
        assert {make().kind for make in self.MAKERS.values()} == set(_LAYER_CLASSES)
        assert all(make().kind == key.split("-")[0] for key, make in self.MAKERS.items())

    def test_every_kind_is_built(self):
        # a registered kind that no builder makes is code that no net runs
        def kinds(layers):
            return set().union(*({layer.kind} | kinds(getattr(layer, "layers", []))
                                 for layer in layers))
        built = set()
        for variant in ("complex", "real"):
            built |= kinds(build_aapd(2, 4, 4, variant).net.layers)
            built |= kinds(build_se(1, 4, variant).net.layers)
        assert built == set(_LAYER_CLASSES)

    @pytest.mark.parametrize("kind", MAKERS)
    def test_spec_rebuild_preserves_structure(self, kind):
        layer = self.MAKERS[kind]()
        rebuilt = layer_from_spec(layer.spec())
        assert rebuilt.spec() == layer.spec()
        for (n1, a1), (n2, a2) in zip(layer.param_items(), rebuilt.param_items()):
            assert n1 == n2
            assert a1.shape == a2.shape
            assert a1.dtype == a2.dtype

    def test_spec_holds_the_constructor_arguments(self):
        layer = self.MAKERS["residual_add-bn-args"]()
        assert layer.spec() == {"kind": "residual_add", "layers": [
            {"kind": "complex_batchnorm", "channels": 2, "eps": 1e-3, "momentum": 0.5}]}

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
