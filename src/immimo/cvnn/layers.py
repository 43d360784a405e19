"""Layers for fixed-sequence complex networks, with real-valued twins.

Gradient convention: for a real-valued loss L over complex activations z,
the array passed around in backward() packs dL/dRe(z) + j*dL/dIm(z). That
equals the complex gradient 2*dL/dz_bar, so backprop on the (real, imag)
split and Wirtinger-gradient descent coincide; each layer implements its
backward rule directly in this packed form. Real layers carry plain real
gradients.

One implementation per operation. A twin pair shares one class body and
differs only in `kind` and a class-level `dtype` (complex128 or float64):
conv and dense run the same matmuls in that dtype, conjugating in backward
(a no-op for reals). Elementwise layers use the float64 view: a
C-contiguous complex128 array viewed as float64 holds its real and
imaginary parts interleaved, so running the real activation on that view
and viewing the result back is the split activation of Trabelsi et al.
(Deep Complex Networks, ICLR 2018). The real readout reads complex
features through the same view. Code that does not fit the rule stays
separate: ComplexBatchNorm whitens the (re, im) pair jointly, which is not
two real batch norms; SplitReIm/MergeReIm order the parts by channel
block, not interleaved; and Adam (optim.py) keeps its complex branch
because numpy divides a complex array by a real scalar as x * (1/c), which
is not bit-identical to dividing the parts.

Forward caches live on the layer, so one layer instance serves one
forward/backward pair at a time.
"""

from __future__ import annotations

import inspect

import numpy as np

from immimo.linalg import Rng


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # piecewise form avoids overflow in exp for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _glorot_limit(fan_in: int, fan_out: int) -> float:
    return np.sqrt(6.0 / (fan_in + fan_out))


def _init_complex(rng: Rng, shape, fan_in: int, fan_out: int) -> np.ndarray:
    lim = _glorot_limit(fan_in, fan_out) / np.sqrt(2.0)
    re = rng.symmetric_uniform(shape) * lim
    im = rng.symmetric_uniform(shape) * lim
    return re + 1j * im


def _init_real(rng: Rng, shape, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.symmetric_uniform(shape) * _glorot_limit(fan_in, fan_out)


def _init_weight(rng: Rng | None, shape, fan_in: int, fan_out: int,
                 dtype: type) -> np.ndarray:
    """Glorot draw in `dtype`, or zeros without an rng (spec rebuilds)."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    init = _init_complex if dtype is np.complex128 else _init_real
    return init(rng, shape, fan_in, fan_out)


def _conj(a: np.ndarray) -> np.ndarray:
    return a.conj() if np.iscomplexobj(a) else a


def _float64_view(a: np.ndarray, dtype: type) -> np.ndarray:
    """`a` as C-contiguous `dtype`, viewed as float64: complex128 (..., F)
    becomes (..., 2F) = [re0, im0, re1, im1, ...]."""
    return np.ascontiguousarray(a, dtype=dtype).view(np.float64)


def _walk_items(layers, items: str, key) -> list:
    """(key(i, name), array) for each layer i's `items`() list, in order."""
    return [(key(i, n), a) for i, layer in enumerate(layers)
            for n, a in getattr(layer, items)()]


def _out_hw(h: int, w: int, k: int, padding: str) -> tuple[int, int, int]:
    if padding == "same":
        if k % 2 == 0:
            raise ValueError("same padding needs an odd kernel")
        p = k // 2
        return h, w, p
    if padding == "valid":
        if h < k or w < k:
            raise ValueError("kernel larger than input")
        return h - k + 1, w - k + 1, 0
    raise ValueError(f"unknown padding {padding!r}")


def _im2col(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    """(B, C, H, W) -> (B, C*k*k, P) patch matrix, stride 1."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    b, c, ho, wo = win.shape[:4]
    # (B, C, Ho, Wo, k, k) -> (B, C, k, k, Ho*Wo)
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * k * k, ho * wo)
    return np.ascontiguousarray(cols)


def _col2im(cols: np.ndarray, shape, k: int, pad: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add patches back onto (B, C, H, W)."""
    b, c, h, w = shape
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    six = cols.reshape(b, c, k, k, ho, wo)
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for di in range(k):
        for dj in range(k):
            xp[:, :, di:di + ho, dj:dj + wo] += six[:, :, di, dj]
    return xp[:, :, pad:pad + h, pad:pad + w] if pad else xp


class Layer:
    """Base: forward/backward pair plus (de)serialization hooks."""

    kind = "layer"
    # attribute names of learnable parameters and of running-state buffers,
    # in checkpoint order
    param_names: tuple = ()
    buffer_names: tuple = ()

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def spec(self) -> dict:
        return {"kind": self.kind}

    # (name, array) lists; params are learnable, buffers are running state
    def param_items(self) -> list:
        return [(n, getattr(self, n)) for n in self.param_names]

    def grad_items(self) -> list:
        return [(n, self.grads[n]) for n in self.param_names]

    def buffer_items(self) -> list:
        return [(n, getattr(self, n)) for n in self.buffer_names]

    def tensor_items(self) -> list:
        return self.param_items() + self.buffer_items()


class _ConvBase(Layer):
    """2-D convolution, stride 1, as one patch-matrix product in `dtype`."""

    dtype: type
    param_names = ("weight", "bias")

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 3,
                 padding: str = "same", rng: Rng | None = None):
        if in_channels < 1 or out_channels < 1 or kernel < 1:
            raise ValueError("conv dims must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.padding = padding
        self.weight = _init_weight(rng, (out_channels, in_channels, kernel, kernel),
                                   in_channels * kernel * kernel,
                                   out_channels * kernel * kernel, self.dtype)
        self.bias = np.zeros(out_channels, dtype=self.dtype)
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def spec(self) -> dict:
        return {"kind": self.kind, "in_channels": self.in_channels,
                "out_channels": self.out_channels, "kernel": self.kernel,
                "padding": self.padding}

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=self.dtype)
        b, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        ho, wo, pad = _out_hw(h, w, self.kernel, self.padding)
        cols = _im2col(x, self.kernel, pad)                       # (B, CKK, P)
        wmat = self.weight.reshape(self.out_channels, -1)
        out = wmat @ cols + self.bias[None, :, None]
        self._cache = (cols, x.shape, pad)
        return out.reshape(b, self.out_channels, ho, wo)

    def backward(self, grad):
        cols, xshape, pad = self._cache
        b = grad.shape[0]
        g = grad.reshape(b, self.out_channels, -1)                # (B, Cout, P)
        dw = np.einsum("bop,bip->oi", g, _conj(cols))
        self.grads = {
            "weight": dw.reshape(self.weight.shape),
            "bias": g.sum(axis=(0, 2)),
        }
        wmat = self.weight.reshape(self.out_channels, -1)
        dcols = np.einsum("oi,bop->bip", _conj(wmat), g)
        return _col2im(dcols, xshape, self.kernel, pad)


class ComplexConv2d(_ConvBase):
    """2-D complex convolution, stride 1.

    Output = (W_r*X_r - W_i*X_i) + j(W_i*X_r + W_r*X_i), realized as one
    complex patch-matrix product (identical arithmetic, one code path).
    """

    kind = "complex_conv2d"
    dtype = np.complex128


class RealConv2d(_ConvBase):
    """Real twin of ComplexConv2d."""

    kind = "real_conv2d"
    dtype = np.float64


class _DenseBase(Layer):
    """Fully-connected layer in `dtype`, y = x W^T + b."""

    dtype: type
    param_names = ("weight", "bias")

    def __init__(self, in_features: int, out_features: int, rng: Rng | None = None):
        if in_features < 1 or out_features < 1:
            raise ValueError("dense dims must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = _init_weight(rng, (out_features, in_features), in_features,
                                   out_features, self.dtype)
        self.bias = np.zeros(out_features, dtype=self.dtype)
        self.grads: dict[str, np.ndarray] = {}
        self._x = None

    def spec(self) -> dict:
        return {"kind": self.kind, "in_features": self.in_features,
                "out_features": self.out_features}

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"expected (B, {self.in_features}), got {x.shape}")
        self._x = x
        return x @ self.weight.T + self.bias

    def backward(self, grad):
        self.grads = {"weight": grad.T @ _conj(self._x), "bias": grad.sum(axis=0)}
        return grad @ _conj(self.weight)


class ComplexDense(_DenseBase):
    """Complex fully-connected layer, y = x W^T + b."""

    kind = "complex_dense"
    dtype = np.complex128


class RealDense(_DenseBase):
    """Real twin of ComplexDense."""

    kind = "real_dense"
    dtype = np.float64


class RealHeadDense(RealDense):
    """Real dense readout over interleaved (re, im) features.

    Complex input (B, F) is read through its float64 view (B, 2F) =
    [r0, i0, r1, i1, ...]; real input goes to the matmul as it is.
    `in_features` is the real width either way.
    """

    kind = "real_head_dense"

    def forward(self, x, train=False):
        self._in_dtype = np.complex128 if np.iscomplexobj(x) else np.float64
        return super().forward(_float64_view(x, self._in_dtype))

    def backward(self, grad):
        return super().backward(grad).view(self._in_dtype)


class RealReLU(Layer):
    kind = "real_relu"
    dtype = np.float64

    def forward(self, x, train=False):
        v = _float64_view(x, self.dtype)
        self._m = v > 0
        return (v * self._m).view(self.dtype)

    def backward(self, grad):
        return (_float64_view(grad, self.dtype) * self._m).view(self.dtype)


class ComplexReLU(RealReLU):
    """ReLU on real and imaginary parts independently."""

    kind = "complex_relu"
    dtype = np.complex128


class RealSigmoid(Layer):
    kind = "real_sigmoid"
    dtype = np.float64

    def forward(self, x, train=False):
        self._s = _sigmoid(_float64_view(x, self.dtype))
        return self._s.view(self.dtype)

    def backward(self, grad):
        g = _float64_view(grad, self.dtype)
        return (g * self._s * (1 - self._s)).view(self.dtype)


class ComplexSigmoid(RealSigmoid):
    """Logistic sigmoid on real and imaginary parts independently."""

    kind = "complex_sigmoid"
    dtype = np.complex128


class Flatten(Layer):
    """(B, C, H, W) -> (B, C*H*W); dtype (and complexness) preserved."""

    kind = "flatten"

    def forward(self, x, train=False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class SplitReIm(Layer):
    """Complex (B, C, H, W) -> real (B, 2C, H, W): real channels then imag."""

    kind = "split_reim"

    def forward(self, x, train=False):
        return np.concatenate([x.real, x.imag], axis=1)

    def backward(self, grad):
        c = grad.shape[1] // 2
        return grad[:, :c] + 1j * grad[:, c:]


class MergeReIm(Layer):
    """Inverse of SplitReIm: real (B, 2C, H, W) -> complex (B, C, H, W)."""

    kind = "merge_reim"

    def forward(self, x, train=False):
        c = x.shape[1] // 2
        return x[:, :c] + 1j * x[:, c:]

    def backward(self, grad):
        return np.concatenate([grad.real, grad.imag], axis=1)


def _moments_axes(x: np.ndarray) -> tuple:
    # channel axis is 1 for conv maps, the feature axis for (B, F) inputs
    return (0, 2, 3) if x.ndim == 4 else (0,)


def _expand(per_channel: np.ndarray, ndim: int) -> np.ndarray:
    # broadcast a per-channel vector against (B, C, H, W) or (B, C)
    return per_channel[None, :, None, None] if ndim == 4 else per_channel[None, :]


class ComplexBatchNorm(Layer):
    """Per-channel whitening of the (re, im) pair, then learnable 2x2 gamma
    and complex beta.

    Train mode uses batch statistics and updates running stats with
    momentum; infer mode uses the running stats. The inverse square root of
    the 2x2 covariance (+ eps on the diagonal) is closed-form via its trace
    and determinant.
    """

    kind = "complex_batchnorm"
    param_names = ("gamma", "beta")
    buffer_names = ("running_mean", "running_v")

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.9):
        if channels < 1:
            raise ValueError("channels must be >= 1")
        if not (0 < momentum < 1):
            raise ValueError("momentum must be in (0, 1)")
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        # gamma[c] = [[g_rr, g_ri], [g_ir, g_ii]]
        self.gamma = np.zeros((channels, 2, 2))
        self.gamma[:, 0, 0] = 1.0 / np.sqrt(2.0)
        self.gamma[:, 1, 1] = 1.0 / np.sqrt(2.0)
        self.beta = np.zeros(channels, dtype=np.complex128)
        self.running_mean = np.zeros(channels, dtype=np.complex128)
        # identity covariance start, stored as symmetric (v_rr, v_ri, v_ii)
        self.running_v = np.tile(np.array([1.0, 0.0, 1.0]), (channels, 1))
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def spec(self):
        return {"kind": self.kind, "channels": self.channels, "eps": self.eps,
                "momentum": self.momentum}

    @staticmethod
    def _whiten_coeffs(v11, v12, v22):
        """Entries of (V)^{-1/2} for symmetric 2x2 V (already eps-loaded).

        With s = sqrt(det V) and t = sqrt(tr V + 2 s):
        V^{1/2} = (V + s I)/t, hence V^{-1/2} = (V^{1/2})^{-1} / 1, computed
        directly: inv of (V + sI)/t is t * adj(V + sI) / det(V + sI), and
        det(V + sI) = det V + s tr V + s^2 = s (t^2).
        """
        s = np.sqrt(v11 * v22 - v12 * v12)
        t = np.sqrt(v11 + v22 + 2.0 * s)
        denom = s * t
        w11 = (v22 + s) / denom
        w22 = (v11 + s) / denom
        w12 = -v12 / denom
        return w11, w12, w22, s, t

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim not in (2, 4):
            raise ValueError("batchnorm expects (B, C, H, W) or (B, C)")
        ch = x.shape[1]
        if ch != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {ch}")
        axes = _moments_axes(x)
        if train:
            n = int(np.prod([x.shape[a] for a in axes]))
            if x.shape[0] < 2:
                raise ValueError("train-mode batchnorm needs batch >= 2")
            mean = x.mean(axis=axes)
            u = x - _expand(mean, x.ndim)
            v11 = (u.real ** 2).mean(axis=axes)
            v12 = (u.real * u.imag).mean(axis=axes)
            v22 = (u.imag ** 2).mean(axis=axes)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            batch_v = np.stack([v11, v12, v22], axis=1)
            self.running_v = self.momentum * self.running_v + (1 - self.momentum) * batch_v
        else:
            mean = self.running_mean
            u = x - _expand(mean, x.ndim)
            v11, v12, v22 = self.running_v.T
            n = 0
        w11, w12, w22, s, t = self._whiten_coeffs(v11 + self.eps, v12, v22 + self.eps)
        W11 = _expand(w11, x.ndim)
        W12 = _expand(w12, x.ndim)
        W22 = _expand(w22, x.ndim)
        xt_r = W11 * u.real + W12 * u.imag
        xt_i = W12 * u.real + W22 * u.imag
        g = self.gamma
        y_r = _expand(g[:, 0, 0], x.ndim) * xt_r + _expand(g[:, 0, 1], x.ndim) * xt_i
        y_i = _expand(g[:, 1, 0], x.ndim) * xt_r + _expand(g[:, 1, 1], x.ndim) * xt_i
        beta = _expand(self.beta, x.ndim)
        self._cache = (u, xt_r, xt_i, (w11, w12, w22, s, t),
                       (v11 + self.eps, v12, v22 + self.eps), axes, n, train)
        return (y_r + beta.real) + 1j * (y_i + beta.imag)

    def backward(self, grad):
        u, xt_r, xt_i, (w11, w12, w22, s, t), (v11, v12, v22), axes, n, train = self._cache
        gr, gi = grad.real, grad.imag
        nd = grad.ndim
        # gamma / beta grads
        dgamma = np.zeros_like(self.gamma)
        dgamma[:, 0, 0] = (gr * xt_r).sum(axis=axes)
        dgamma[:, 0, 1] = (gr * xt_i).sum(axis=axes)
        dgamma[:, 1, 0] = (gi * xt_r).sum(axis=axes)
        dgamma[:, 1, 1] = (gi * xt_i).sum(axis=axes)
        dbeta = gr.sum(axis=axes) + 1j * gi.sum(axis=axes)
        self.grads = {"gamma": dgamma, "beta": dbeta}
        # through the affine: grad wrt whitened pair
        g = self.gamma
        gt_r = _expand(g[:, 0, 0], nd) * gr + _expand(g[:, 1, 0], nd) * gi
        gt_i = _expand(g[:, 0, 1], nd) * gr + _expand(g[:, 1, 1], nd) * gi
        if not train:
            W11, W12, W22 = (_expand(a, nd) for a in (w11, w12, w22))
            dx_r = W11 * gt_r + W12 * gt_i
            dx_i = W12 * gt_r + W22 * gt_i
            return dx_r + 1j * dx_i
        # train mode: W depends on batch covariance, mean subtraction on batch mean
        lw11 = (gt_r * u.real).sum(axis=axes)
        lw12 = (gt_r * u.imag + gt_i * u.real).sum(axis=axes)
        lw22 = (gt_i * u.imag).sum(axis=axes)
        # partials of (w11, w12, w22) wrt (v11, v12, v22); eps-loaded V
        ds = np.stack([v22 / (2 * s), -v12 / s, v11 / (2 * s)], axis=0)   # d s / d v*
        dtau = np.array([1.0, 0.0, 1.0])[:, None]
        dt = (dtau + 2 * ds) / (2 * t)
        dden = t * ds + s * dt                                            # d (s t) / d v*
        denom = s * t
        dnum11 = np.stack([np.zeros_like(s), np.zeros_like(s), np.ones_like(s)], axis=0) + ds
        dnum22 = np.stack([np.ones_like(s), np.zeros_like(s), np.zeros_like(s)], axis=0) + ds
        dnum12 = -np.stack([np.zeros_like(s), np.ones_like(s), np.zeros_like(s)], axis=0)
        dw11 = (dnum11 * denom - (v22 + s) * dden) / denom ** 2
        dw22 = (dnum22 * denom - (v11 + s) * dden) / denom ** 2
        dw12 = (dnum12 * denom + v12 * dden) / denom ** 2
        lv = lw11 * dw11 + lw12 * dw12 + lw22 * dw22                      # (3, C)
        lv11, lv12, lv22 = lv
        W11, W12, W22 = (_expand(a, nd) for a in (w11, w12, w22))
        Lv11, Lv12, Lv22 = (_expand(a, nd) for a in (lv11, lv12, lv22))
        du_r = W11 * gt_r + W12 * gt_i + (2 * Lv11 * u.real + Lv12 * u.imag) / n
        du_i = W12 * gt_r + W22 * gt_i + (Lv12 * u.real + 2 * Lv22 * u.imag) / n
        dx_r = du_r - du_r.mean(axis=axes, keepdims=True)
        dx_i = du_i - du_i.mean(axis=axes, keepdims=True)
        return dx_r + 1j * dx_i


class RealBatchNorm(Layer):
    """Standard per-channel batch normalization (real twin)."""

    kind = "real_batchnorm"
    param_names = ("gamma", "beta")
    buffer_names = ("running_mean", "running_var")

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.9):
        if channels < 1:
            raise ValueError("channels must be >= 1")
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def spec(self):
        return {"kind": self.kind, "channels": self.channels, "eps": self.eps,
                "momentum": self.momentum}

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[1]}")
        axes = _moments_axes(x)
        if train:
            if x.shape[0] < 2:
                raise ValueError("train-mode batchnorm needs batch >= 2")
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - _expand(mean, x.ndim)) * _expand(inv, x.ndim)
        n = int(np.prod([x.shape[a] for a in axes]))
        self._cache = (xhat, inv, axes, n, train)
        return _expand(self.gamma, x.ndim) * xhat + _expand(self.beta, x.ndim)

    def backward(self, grad):
        xhat, inv, axes, n, train = self._cache
        nd = grad.ndim
        self.grads = {"gamma": (grad * xhat).sum(axis=axes), "beta": grad.sum(axis=axes)}
        gsc = grad * _expand(self.gamma * inv, nd)
        if not train:
            return gsc
        return gsc - gsc.mean(axis=axes, keepdims=True) \
            - xhat * _expand((grad * xhat).mean(axis=axes)
                             * self.gamma * inv, nd)


class Residual(Layer):
    """y = x + branch(x); the branch is a layer sequence of matching shape."""

    kind = "residual_add"

    def __init__(self, layers: list):
        self.layers = list(layers)

    def spec(self):
        return {"kind": self.kind, "layers": [l.spec() for l in self.layers]}

    def param_items(self):
        return _walk_items(self.layers, "param_items", "{}.{}".format)

    def grad_items(self):
        return _walk_items(self.layers, "grad_items", "{}.{}".format)

    def buffer_items(self):
        return _walk_items(self.layers, "buffer_items", "{}.{}".format)

    def forward(self, x, train=False):
        out = x
        for l in self.layers:
            out = l.forward(out, train=train)
        if out.shape != x.shape:
            raise ValueError(f"residual branch changed shape {x.shape} -> {out.shape}")
        return x + out

    def backward(self, grad):
        g = grad
        for l in reversed(self.layers):
            g = l.backward(g)
        return grad + g


_LAYER_CLASSES = {cls.kind: cls for cls in (
    ComplexConv2d, RealConv2d, ComplexDense, RealDense, ComplexReLU, RealReLU,
    ComplexSigmoid, RealSigmoid, Flatten, SplitReIm, MergeReIm, RealHeadDense,
    ComplexBatchNorm, RealBatchNorm, Residual)}


def layer_from_spec(spec: dict) -> Layer:
    """Rebuild a layer from its spec dict; parameters start at zero.

    Spec keys must be exactly the constructor's arguments other than
    `rng`, else ValueError. A spec that is not a dict, and a value that
    makes the constructor raise TypeError, are ValueErrors too.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"layer spec must be an object, got {spec!r}")
    args = dict(spec)
    kind = args.pop("kind", None)
    cls = _LAYER_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown layer kind {kind!r}")
    expected = set(inspect.signature(cls).parameters) - {"rng"}
    if set(args) != expected:
        raise ValueError(f"bad {kind} layer spec: keys {sorted(args)}, "
                         f"expected {sorted(expected)}")
    try:
        if cls is Residual:
            args["layers"] = [layer_from_spec(s) for s in args["layers"]]
        return cls(**args)
    except TypeError as e:
        raise ValueError(f"bad {kind} layer spec {spec!r}: {e}") from e
