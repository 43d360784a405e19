"""Layers for fixed-sequence complex networks, with real-valued twins.

Gradient convention: for a real-valued loss L over complex activations z,
the array passed around in backward() packs dL/dRe(z) + j*dL/dIm(z). That
equals the complex gradient 2*dL/dz_bar, so backprop on the (real, imag)
split and Wirtinger-gradient descent coincide; each layer implements its
backward rule directly in this packed form. Real layers carry plain real
gradients.

Precision, one rule: a layer with tensors computes in their dtype, and
an activation returns its input's kind and precision. Conv, dense and
both batch norms cast their input in forward, and their output gradient
in backward, to their tensors' dtype, so a net holding complex128 and
float64 tensors runs at 64-bit parts (how nets are built) and one holding
complex64 and float32 at 32-bit parts, the checkpoint precision at which
nets train (Adam rounds a built net to it and updates it in place,
optim.py) and loaded and trained nets infer (Model.quantize_state). The
sigmoid's backward keeps its forward's precision, so a c16 loss gradient
does not pull the backward up to 64-bit parts. In infer mode the batch
norms read their running statistics at their own precision too: training
accumulates them at float64, and a checkpoint holds them rounded. A conv
or dense class's `dtype` only sets the precision of its initial weight
draw.

One implementation per operation. Conv and dense twins share one class
body and differ only in `kind` and `dtype`: they run the same matmuls,
conjugating in backward (a no-op for reals). The two ReLUs differ only in
`kind`. Activations and the real readout run on the real view
(_real_view): a C-contiguous complex array viewed as its real dtype holds
its real and imaginary parts interleaved, at its own precision, so the
real activation on that view, viewed back, is the split activation of
Trabelsi et al. (Deep Complex Networks, ICLR 2018). Adam (optim.py)
updates every parameter through the same view, so a complex parameter is
two real slots. Code that does not fit the rule stays separate:
ComplexBatchNorm whitens the (re, im) pair jointly, which is not two real
batch norms, and computes it as one widely-linear map per channel,
y = a*z + b*conj(z) + c, with a, b and c from the batch statistics
(train) or the running ones (infer), applied by _apply_widely_linear as
in its backward; SplitReIm and MergeReIm order the parts by channel
block, not interleaved. A layer's spec is its constructor's arguments
(_spec_keys, for Layer.spec and layer_from_spec alike).

Forward state lives from a train-mode forward to the backward that reads
it: `forward(x, train=True)` stores a cache on the layer, an infer-mode
forward stores none and drops any left over, and `backward` takes the
cache and drops it (Layer._take_cache). So one layer instance serves one
forward/backward pair at a time, a backward is defined only right after
a train-mode forward, and an inference pass leaves no activation behind.
A cache holds what backward cannot get back cheaply and nothing larger
than the layer's input: a conv layer keeps its input and rebuilds its
patch matrix (k*k times the input) in backward. One thing outlives a
call: ComplexBatchNorm memoizes its infer-mode map, three per-channel
arrays, under the dtype, shape and exact bytes of the tensors it is
computed from (and eps). A call whose tensors differ in any byte
recomputes, so in-place writes (Adam, load_state_arrays) and replaced
tensors (set_tensor, quantize_state, a train-mode forward) need no
invalidation step.

An inference pass keeps no activation, so each of its arrays is dead once
the next layer has read it; the ownership rule says when a layer may
overwrite its input. Model and Residual run their layers through
_forward_chain: in infer mode a layer owns its input unless that input
shares memory with the chain's input, which is the caller's array (for a
Residual's branch, the skip) or a view of it (after a leading Flatten).
Any other input is an array that the layer before made and nothing else
references. The chain decides this per call, so the rule holds for leaf
layers re-wrapped in another Model, and a layer called on its own, or in
train mode, never owns its input. The infer-mode batch norms and ReLUs
run one arithmetic sequence into an owned input or into a new array, so
the bytes do not depend on ownership.

Backward runs through _backward_chain, the twin of _forward_chain. No
caller reads a net's input gradient, so Model.backward's chain clears
Layer._input_grad on its first layer with parameters for that one call:
the layer computes only its parameter gradients and returns None (a
Residual passes the flag to its branch), and the layers before it are
not called.
"""

from __future__ import annotations

import inspect
import numbers

import numpy as np

from immimo.linalg import Rng


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e) for x >= 0 and e/(1+e) below, e = exp(-|x|): exp never
    # overflows, and each side rounds as the piecewise form does
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _init_weight(rng: Rng | None, shape, fan_in: int, fan_out: int,
                 dtype: type) -> np.ndarray:
    """Glorot-uniform draw in `dtype` (complex: the real part, then the
    imaginary part, each at the limit over sqrt(2)), or zeros without an rng."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    if dtype is not np.complex128:
        return rng.symmetric_uniform(shape) * lim
    lim = lim / np.sqrt(2.0)
    return rng.symmetric_uniform(shape) * lim + 1j * (rng.symmetric_uniform(shape) * lim)


def _real_view(a: np.ndarray) -> np.ndarray:
    """C-contiguous `a` viewed as its real parts, at `a`'s own precision:
    complex (..., F) becomes (..., 2F) = [re0, im0, re1, im1, ...],
    complex128 as float64 and complex64 as float32; a real array keeps its
    dtype and shape."""
    a = np.ascontiguousarray(a)
    return a.view(a.real.dtype)


def _from_real_view(v: np.ndarray, complex_: bool) -> np.ndarray:
    """Inverse of _real_view: the real parts `v` viewed as complex at `v`'s
    own precision when `complex_`, else `v` itself."""
    return v.view(np.promote_types(v.dtype, np.complex64)) if complex_ else v


def _walk_items(layers, items: str, key) -> list:
    """(key(i, name), array) for each layer i's `items`() list, in order."""
    return [(key(i, n), a) for i, layer in enumerate(layers)
            for n, a in getattr(layer, items)()]


def _forward_chain(layers, x: np.ndarray, train: bool) -> np.ndarray:
    """x through `layers` in order, each called as layer.forward(x,
    train=train); in infer mode a layer owns an input that shares no memory
    with x (see the module docstring)."""
    x0 = x
    for layer in layers:
        layer._owns_input = not train and not np.may_share_memory(x, x0)
        try:
            x = layer.forward(x, train=train)
        finally:
            layer._owns_input = False
    return x


def _backward_chain(layers, grad: np.ndarray, input_grad: bool) -> np.ndarray | None:
    """grad back through `layers`, each called as layer.backward(grad); without
    `input_grad`, the first layer with parameters ends it in None (module docstring)."""
    first = 0 if input_grad else next(
        (i for i, layer in enumerate(layers) if layer.param_items()), len(layers))
    for i in range(len(layers) - 1, first - 1, -1):
        layer = layers[i]
        layer._input_grad = input_grad or i > first
        try:
            grad = layer.backward(grad)
        finally:
            layer._input_grad = True
    return grad if input_grad else None


def _out_hw(h: int, w: int, k: int, padding: str) -> tuple[int, int, int]:
    # padding and kernel were checked by _ConvBase.__init__
    if padding == "same":
        return h, w, k // 2
    if h < k or w < k:
        raise ValueError("kernel larger than input")
    return h - k + 1, w - k + 1, 0


def _pad(x: np.ndarray, pad: int) -> np.ndarray:
    """(B, C, H, W) -> (B, C, H+2p, W+2p), x written into a zeroed buffer."""
    if not pad:
        return x
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    return xp


def _windows(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    """Read-only (B, C, Ho, Wo, k, k) view of every k x k window of padded
    x: the view sliding_window_view gives, without its per-call checks."""
    xp = _pad(x, pad)
    b, c, h, w = xp.shape
    sb, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(xp, (b, c, h - k + 1, w - k + 1, k, k),
                                           (sb, sc, sh, sw, sh, sw), writeable=False)


# bytes of batch-major patches that one conv forward GEMM slab holds: about
# one core's L2 cache
_SLAB_BYTES = 2 << 20


def _im2col(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    """(B, C, H, W) -> batch-major (B, C*k*k, P) patch matrix, stride 1."""
    win = _windows(x, k, pad)
    b, c, ho, wo = win.shape[:4]
    # (B, C, Ho, Wo, k, k) -> (B, C, k, k, Ho*Wo), one strided copy
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * k * k, ho * wo)


def _conv(x: np.ndarray, wmat: np.ndarray, k: int, pad: int) -> np.ndarray:
    """(B, C, H, W) convolved with wmat (Cout, C*k*k), stride 1 and zero
    padding `pad`: (B, Cout, P), wmat @ _im2col(x) one slab at a time."""
    b, _, h, w = x.shape
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    out = np.empty((b, wmat.shape[0], ho * wo), dtype=wmat.dtype)
    # frames whose (s, C*k*k, P) patches fit in _SLAB_BYTES
    s = max(1, _SLAB_BYTES // (wmat.shape[1] * ho * wo * wmat.itemsize))
    for i in range(0, b, s):
        np.matmul(wmat, _im2col(x[i:i + s], k, pad), out=out[i:i + s])
    return out


def _im2col_cm(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    """(B, C, H, W) -> channel-major (C*k*k, B*P) patch matrix, stride 1."""
    win = _windows(x, k, pad)
    b, c, ho, wo = win.shape[:4]
    # (B, C, Ho, Wo, k, k) -> (C, k, k, B, Ho, Wo), one strided copy
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, b * ho * wo)


def _spec_keys(cls) -> list[str]:
    """A layer class's spec keys besides "kind": its constructor's arguments but rng."""
    return [p for p in inspect.signature(cls).parameters if p != "rng"]


class Layer:
    """Base: forward/backward pair plus (de)serialization hooks."""

    kind = "layer"
    # attribute names of learnable parameters and of running-state buffers,
    # in checkpoint order
    param_names: tuple = ()
    buffer_names: tuple = ()
    # parameter name -> gradient; each backward assigns a new dict
    grads: dict = {}
    # what a train-mode forward keeps for the backward that follows it
    _cache = None
    # set by _forward_chain for the length of one infer-mode call: the
    # input is an array that nothing else references (the ownership rule)
    _owns_input = False
    # cleared by _backward_chain for one call: backward returns None
    _input_grad = True

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take_cache(self):
        """The cache of the train-mode forward that this backward follows,
        dropped from the layer; RuntimeError when there is none."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(f"{self.kind} backward needs a train-mode forward first")
        return cache

    def spec(self) -> dict:
        """The kind, and each _spec_keys argument as the attribute of its
        name (`layers` as its layers' specs): what layer_from_spec rebuilds."""
        spec = {"kind": self.kind}
        for key in _spec_keys(type(self)):
            value = getattr(self, key)
            spec[key] = [layer.spec() for layer in value] if key == "layers" else value
        return spec

    # (name, array) lists; params are learnable, buffers are running state
    def param_items(self) -> list:
        return [(n, getattr(self, n)) for n in self.param_names]

    def grad_items(self) -> list:
        """(name, gradient) per parameter, from the last backward;
        RuntimeError when no backward has run."""
        try:
            return [(n, self.grads[n]) for n in self.param_names]
        except KeyError:
            raise RuntimeError(f"{self.kind} has missing gradients; "
                               f"run backward first") from None

    def buffer_items(self) -> list:
        return [(n, getattr(self, n)) for n in self.buffer_names]

    def tensor_items(self) -> list:
        return self.param_items() + self.buffer_items()

    def set_tensor(self, name: str, a: np.ndarray) -> None:
        """Replace the tensor that tensor_items() lists as `name` with `a`."""
        setattr(self, name, a)

    def tensor_fault(self, name: str, a: np.ndarray) -> str | None:
        """Why `a` cannot stand as the tensor `name` (as in set_tensor),
        or None: any tensor must be finite."""
        return None if np.isfinite(a).all() else "is not finite"


class _ConvBase(Layer):
    """2-D convolution, stride 1, as patch-matrix products in the weight's
    dtype.

    Forward (_conv) is W (Cout, C*k*k) @ cols (s, C*k*k, P) over P = Ho*Wo
    output positions, one slab of s frames at a time: each slab's
    batch-major patches fit in _SLAB_BYTES, so the GEMMs read them from
    cache, and each slab's product is written into its rows of the
    preallocated output. numpy runs a stacked matmul as one
    (Cout, C*k*k) @ (C*k*k, P) GEMM per frame whatever the stack's length,
    so the output is the same bit for bit at any slab size.

    The layer keeps only its input. Backward rebuilds the patches from it
    channel-major, cols (C*k*k, B*P), and takes the weight gradient as
    conj(cols @ conj(G)) with the output gradient G as (B*P, Cout), the
    (C*k*k, Cout) result conjugated into W's layout. The input gradient is
    itself a convolution (Dumoulin & Visin, A guide to convolution
    arithmetic, 2016, section 4): _conv of G with conj(W), spatially
    flipped and with its in and out channels swapped, at padding k-1-pad.
    """

    dtype: type
    param_names = ("weight", "bias")

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 3,
                 padding: str = "same", rng: Rng | None = None):
        if in_channels < 1 or out_channels < 1 or kernel < 1:
            raise ValueError("conv dims must be >= 1")
        if padding not in ("same", "valid"):
            raise ValueError(f"conv padding must be 'same' or 'valid', got {padding!r}")
        if padding == "same" and kernel % 2 == 0:
            raise ValueError("same padding needs an odd kernel")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.padding = padding
        self.weight = _init_weight(rng, (out_channels, in_channels, kernel, kernel),
                                   in_channels * kernel * kernel,
                                   out_channels * kernel * kernel, self.dtype)
        self.bias = np.zeros(out_channels, dtype=self.dtype)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=self.weight.dtype)
        b, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        ho, wo, pad = _out_hw(h, w, self.kernel, self.padding)
        out = _conv(x, self.weight.reshape(self.out_channels, -1), self.kernel, pad)
        out += self.bias[None, :, None]
        self._cache = (x, pad) if train else None
        return out.reshape(b, self.out_channels, ho, wo)

    def backward(self, grad):
        x, pad = self._take_cache()
        grad = np.asarray(grad, dtype=self.weight.dtype)
        b, cout, k = grad.shape[0], self.out_channels, self.kernel
        g = grad.reshape(b, cout, -1)                               # (B, Cout, P)
        # conj(G) with the batch and position axes merged: (B*P, Cout)
        gc = np.empty((b, g.shape[2], cout), dtype=g.dtype)
        np.conjugate(g.transpose(0, 2, 1), out=gc)
        dwt = _im2col_cm(x, k, pad) @ gc.reshape(-1, cout)          # (C*k*k, Cout)
        self.grads = {"weight": np.conjugate(dwt.T, order="C").reshape(self.weight.shape),
                      "bias": g.sum(axis=(0, 2))}
        if not self._input_grad:
            return None
        wflip = np.conjugate(self.weight.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
        return _conv(grad, wflip.reshape(self.in_channels, -1), k, k - 1 - pad).reshape(x.shape)


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
    """Fully-connected layer in the weight's dtype, y = x W^T + b.

    The product's bytes depend on the batch size: BLAS rounds the GEMM
    differently at other row counts (a GEMV at one row). So a frame's
    output can differ in the last bits, at f4 by 1-2 ulps, between a batch
    of 1 and a larger batch; the code path is the same.
    """

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

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=self.weight.dtype)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"expected (B, {self.in_features}), got {x.shape}")
        self._cache = x if train else None
        return x @ self.weight.T + self.bias

    def backward(self, grad):
        x = self._take_cache()
        grad = np.asarray(grad, dtype=self.weight.dtype)
        # conjugate the (B, in) input, not the (out, in) product
        self.grads = {"weight": grad.T @ x.conj(), "bias": grad.sum(axis=0)}
        if not self._input_grad:
            return None
        # grad @ conj(W) as conj(conj(grad) @ W): no conjugated copy of W
        dx = grad.conj() @ self.weight
        return np.conjugate(dx, out=dx)


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

    Complex input (B, F) is read through its real view (B, 2F) =
    [r0, i0, r1, i1, ...]; real input goes to the matmul as it is.
    `in_features` is the real width either way.
    """

    kind = "real_head_dense"

    def forward(self, x, train=False):
        self._complex_in = np.iscomplexobj(x)
        return super().forward(_real_view(x), train)

    def backward(self, grad):
        dx = super().backward(grad)
        return None if dx is None else _from_real_view(dx, self._complex_in)


class RealReLU(Layer):
    """ReLU on the real view, so on each part of a complex input."""

    kind = "real_relu"

    def forward(self, x, train=False):
        v = _real_view(x)
        m = v > 0
        self._cache = m if train else None
        # v * m, not maximum(v, 0): a negative entry becomes -0.0
        return _from_real_view(np.multiply(v, m, out=v if self._owns_input else None),
                               np.iscomplexobj(x))

    def backward(self, grad):
        return _from_real_view(_real_view(grad) * self._take_cache(), np.iscomplexobj(grad))


class ComplexReLU(RealReLU):
    kind = "complex_relu"


class RealSigmoid(Layer):
    """Logistic sigmoid on the real view; backward keeps forward's precision."""

    kind = "real_sigmoid"

    def forward(self, x, train=False):
        s = _sigmoid(_real_view(x))
        self._cache = s if train else None
        return _from_real_view(s, np.iscomplexobj(x))

    def backward(self, grad):
        s = self._take_cache()
        g = _real_view(grad).astype(s.dtype, copy=False)
        return _from_real_view(g * s * (1 - s), np.iscomplexobj(grad))


class Flatten(Layer):
    """(B, C, H, W) -> (B, C*H*W); dtype (and complexness) preserved."""

    kind = "flatten"

    def forward(self, x, train=False):
        self._cache = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._take_cache())


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


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _set_norm_args(layer: Layer, channels, eps, momentum) -> None:
    """Store a batch norm's constructor arguments on it; ValueError unless
    channels >= 1, eps is a finite real > 0 and momentum is a real in
    (0, 1) (a bool is not a number here)."""
    if channels < 1:
        raise ValueError("channels must be >= 1")
    if not (_is_real(eps) and np.isfinite(eps) and eps > 0):
        raise ValueError(f"batchnorm eps must be a finite real > 0, got {eps!r}")
    if not (_is_real(momentum) and 0 < momentum < 1):
        raise ValueError(f"batchnorm momentum must be in (0, 1), got {momentum!r}")
    layer.channels, layer.eps, layer.momentum = channels, eps, momentum


def _moments_axes(x: np.ndarray) -> tuple:
    # channel axis is 1 for conv maps, the feature axis for (B, F) inputs
    return (0, 2, 3) if x.ndim == 4 else (0,)


def _expand(per_channel: np.ndarray, ndim: int) -> np.ndarray:
    # broadcast a per-channel vector against (B, C, H, W) or (B, C)
    return per_channel[None, :, None, None] if ndim == 4 else per_channel[None, :]


def _widely_linear(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with a*z + b*conj(z) equal to the real 2x2 maps m (C, 2, 2)
    applied to the (re, im) pair of z (Picinbono & Chevalier, IEEE TSP
    1995): any real-linear map of a complex value has this form."""
    a = 0.5 * ((m[:, 0, 0] + m[:, 1, 1]) + 1j * (m[:, 1, 0] - m[:, 0, 1]))
    b = 0.5 * ((m[:, 0, 0] - m[:, 1, 1]) + 1j * (m[:, 1, 0] + m[:, 0, 1]))
    return a, b


def _apply_widely_linear(z: np.ndarray, a: np.ndarray, b: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """a*z + b*conj(z) per channel, in z's dtype; a and b are (C,). The
    result goes to `out` (a new array when None), which may be z: conj(z)*b
    is taken before z*a is written."""
    dt = z.dtype
    t = z.conj()
    t *= _expand(b.astype(dt, copy=False), z.ndim)
    y = np.multiply(z, _expand(a.astype(dt, copy=False), z.ndim), out=out)
    y += t
    return y


def _sym2(v11: np.ndarray, v12: np.ndarray, v22: np.ndarray) -> np.ndarray:
    # per-channel symmetric 2x2 matrices (C, 2, 2)
    return np.stack([np.stack([v11, v12], -1), np.stack([v12, v22], -1)], -2)


def _lyapunov2(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """X with a X + X a = q per channel, for (C, 2, 2) q and symmetric
    positive definite a. Cayley-Hamilton (a^2 = tau a - delta I, tau = tr a,
    delta = det a) gives X = ((tau^2 + delta) q - tau (aq + qa) + aqa) /
    (2 delta tau); its numerator, as adj(a) q adj(a) + delta q with
    adj(a) = tau I - a, does not cancel when a is ill-conditioned."""
    tau = (a[:, 0, 0] + a[:, 1, 1])[:, None, None]
    delta = (a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0])[:, None, None]
    adj = tau * np.eye(2) - a
    return (adj @ q @ adj + delta * q) / (2 * delta * tau)


class ComplexBatchNorm(Layer):
    """Complex batch norm of Trabelsi et al.: per channel, gamma (a real
    2x2 matrix) times the whitened (re, im) pair V^(-1/2) (z - mean), plus
    complex beta.

    That is one real-linear map per channel, so it is computed as the
    widely-linear y = a*z + b*conj(z) + c: A = gamma V^(-1/2) gives a and b
    (`_widely_linear`) and c = beta - (a*mean + b*conj(mean)), applied in
    the layer's dtype. Train mode takes mean and V from the batch, updates
    the running stats with momentum and caches the centred input u and
    W = V^(-1/2) for backward; infer mode takes the running stats and caches
    nothing. The inverse square root of the 2x2 covariance (+ eps on the
    diagonal) is closed-form via its trace and determinant.

    Backward: dW = -W dS W with S = W^-1 = V^(1/2), and S dS + dS S = dV
    (Higham, Functions of Matrices, SIAM 2008, section 6.1), so the loss
    reaches V as -z, where S z + z S = W sym(gamma^T sums) W (`_lyapunov2`).

    Infer mode memoizes the map: a, b and c per channel, cast to the
    layer's dtype. The memo key is eps and the dtype, shape and bytes of
    gamma, beta, running_mean and running_v; a call whose key differs
    recomputes, with the same arithmetic as before, so the output is the
    same bit for bit whether the memo hits or not. Train mode never reads
    the memo.
    """

    kind = "complex_batchnorm"
    param_names = ("gamma", "beta")
    buffer_names = ("running_mean", "running_v")

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.9):
        _set_norm_args(self, channels, eps, momentum)
        # gamma[c] = [[g_rr, g_ri], [g_ir, g_ii]]
        self.gamma = np.zeros((channels, 2, 2))
        self.gamma[:, 0, 0] = 1.0 / np.sqrt(2.0)
        self.gamma[:, 1, 1] = 1.0 / np.sqrt(2.0)
        self.beta = np.zeros(channels, dtype=np.complex128)
        self.running_mean = np.zeros(channels, dtype=np.complex128)
        # identity covariance start, stored as symmetric (v_rr, v_ri, v_ii)
        self.running_v = np.tile(np.array([1.0, 0.0, 1.0]), (channels, 1))
        self._memo = None

    def tensor_fault(self, name, a):
        fault = super().tensor_fault(name, a)
        if fault is None and name == "running_v":
            # the covariance forward whitens with, at forward's float64
            v11, v12, v22 = np.asarray(a, dtype=np.float64).T
            v11, v22 = v11 + self.eps, v22 + self.eps
            if not ((v11 > 0) & (v22 > 0) & (v11 * v22 - v12 * v12 > 0)).all():
                return f"plus eps={self.eps} on the diagonal is not positive definite"
        return fault

    @staticmethod
    def _whiten_coeffs(v11, v12, v22):
        """V^{-1/2} (C, 2, 2) for symmetric 2x2 V (already eps-loaded).

        With s = sqrt(det V) and t = sqrt(tr V + 2 s):
        V^{1/2} = (V + s I)/t, hence V^{-1/2} = (V^{1/2})^{-1} / 1, computed
        directly: inv of (V + sI)/t is t * adj(V + sI) / det(V + sI), and
        det(V + sI) = det V + s tr V + s^2 = s (t^2).
        """
        s = np.sqrt(v11 * v22 - v12 * v12)
        t = np.sqrt(v11 + v22 + 2.0 * s)
        denom = s * t
        return _sym2((v22 + s) / denom, -v12 / denom, (v11 + s) / denom)

    def _infer_key(self) -> tuple:
        # dtype, shape and exact bytes of every tensor the infer map reads
        return (self.eps, *((a.dtype, a.shape, a.tobytes()) for a in (
            self.gamma, self.beta, self.running_mean, self.running_v)))

    def _coeffs(self, mean, v11, v12, v22) -> tuple:
        """(w, a, b, c) of the map from mean and V, per channel at float64
        (complex128), whatever the layer's dtype."""
        v11, v12, v22 = (np.asarray(v, dtype=np.float64) for v in (v11, v12, v22))
        w = self._whiten_coeffs(v11 + self.eps, v12, v22 + self.eps)
        a, b = _widely_linear(np.asarray(self.gamma, dtype=np.float64) @ w)
        mean = np.asarray(mean, dtype=np.complex128)
        c = self.beta.astype(np.complex128) - (a * mean + b * mean.conj())
        return w, a, b, c

    def _infer_map(self) -> tuple:
        """(a, b, c) of the running statistics' _coeffs, cast to the layer's
        dtype; memoized while _infer_key holds."""
        key = self._infer_key()
        if self._memo is None or self._memo[0] != key:
            # copies of the running statistics rounded to the layer's
            # precision, as its checkpoint holds them: the memo shares no
            # memory with the tensors
            dt = self.beta.dtype
            v = self.running_v.astype(self.gamma.dtype)
            _, a, b, c = self._coeffs(self.running_mean.astype(dt), *v.T)
            self._memo = (key, (a.astype(dt), b.astype(dt), c.astype(dt)))
        return self._memo[1]

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=self.beta.dtype)
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
            w, a, b, c = self._coeffs(mean, v11, v12, v22)
            self._cache = (u, w, axes, n)
        else:
            a, b, c = self._infer_map()
            self._cache = None
        y = _apply_widely_linear(x, a, b, out=x if self._owns_input else None)
        y += _expand(c.astype(x.dtype, copy=False), x.ndim)
        return y

    def backward(self, grad):
        u, w, axes, n = self._take_cache()
        grad = np.asarray(grad, dtype=self.beta.dtype)
        nd = grad.ndim
        gr, gi, ur, ui = grad.real, grad.imag, u.real, u.imag
        # sums[c] = [[<gr, ur>, <gr, ui>], [<gi, ur>, <gi, ui>]] over the moment axes
        sums = np.stack([np.stack([(gr * ur).sum(axis=axes), (gr * ui).sum(axis=axes)], -1),
                         np.stack([(gi * ur).sum(axis=axes), (gi * ui).sum(axis=axes)], -1)],
                        -2)
        # y = gamma xt + beta with the whitened pair xt = W u
        dbeta = grad.sum(axis=axes)
        self.grads = {"gamma": (sums @ w).astype(self.gamma.dtype, copy=False),
                      "beta": dbeta}
        if not self._input_grad:
            return None
        # at fixed W the input grad is (gamma W)^T applied to the output grad
        ag, bg = _widely_linear(np.swapaxes(self.gamma @ w, -1, -2))
        dx = _apply_widely_linear(grad, ag, bg)
        # W depends on the batch covariance, the mean subtraction on the batch
        # mean. Through V = u u^T / n + eps I: -2 z u / n, with z the
        # Lyapunov solve of the class docstring; through the batch mean: minus
        # the mean over the moment axes, where mean(u) = 0 leaves
        # -(gamma W)^T mean(grad)
        m = np.swapaxes(self.gamma, -1, -2) @ sums
        z = _lyapunov2(np.linalg.inv(w), w @ (m + np.swapaxes(m, -1, -2)) @ w / 2)
        dx -= _apply_widely_linear(u, *_widely_linear(2 * z / n))
        gbar = dbeta / n
        dx -= _expand((ag * gbar + bg * gbar.conj()).astype(dx.dtype), nd)
        return dx


class RealBatchNorm(Layer):
    """Standard per-channel batch normalization (real twin)."""

    kind = "real_batchnorm"
    param_names = ("gamma", "beta")
    buffer_names = ("running_mean", "running_var")

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.9):
        _set_norm_args(self, channels, eps, momentum)
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def tensor_fault(self, name, a):
        fault = super().tensor_fault(name, a)
        if fault is None and name == "running_var" and not (a + self.eps > 0).all():
            return f"plus eps={self.eps} is not positive"
        return fault

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=self.gamma.dtype)
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
            # the running statistics at the layer's precision, as its
            # checkpoint holds them
            mean, var = (a.astype(x.dtype, copy=False)
                         for a in (self.running_mean, self.running_var))
        inv = 1.0 / np.sqrt(var + self.eps)
        nd = x.ndim
        xhat = np.subtract(x, _expand(mean, nd), out=x if self._owns_input else None)
        xhat *= _expand(inv, nd)
        self._cache = (xhat, inv, axes) if train else None
        # backward reads xhat: train mode scales a new array
        y = np.multiply(xhat, _expand(self.gamma, nd), out=None if train else xhat)
        y += _expand(self.beta, nd)
        return y

    def backward(self, grad):
        xhat, inv, axes = self._take_cache()
        grad = np.asarray(grad, dtype=self.gamma.dtype)
        nd = grad.ndim
        self.grads = {"gamma": (grad * xhat).sum(axis=axes), "beta": grad.sum(axis=axes)}
        if not self._input_grad:
            return None
        gsc = grad * _expand(self.gamma * inv, nd)
        return gsc - gsc.mean(axis=axes, keepdims=True) \
            - xhat * _expand((grad * xhat).mean(axis=axes)
                             * self.gamma * inv, nd)


class Residual(Layer):
    """y = x + branch(x); the branch is a layer sequence of matching shape."""

    kind = "residual_add"

    def __init__(self, layers: list):
        self.layers = list(layers)

    def param_items(self):
        return _walk_items(self.layers, "param_items", "{}.{}".format)

    def grad_items(self):
        return _walk_items(self.layers, "grad_items", "{}.{}".format)

    def buffer_items(self):
        return _walk_items(self.layers, "buffer_items", "{}.{}".format)

    def set_tensor(self, name, a):
        i, _, rest = name.partition(".")
        self.layers[int(i)].set_tensor(rest, a)

    def tensor_fault(self, name, a):
        i, _, rest = name.partition(".")
        return self.layers[int(i)].tensor_fault(rest, a)

    def forward(self, x, train=False):
        out = _forward_chain(self.layers, x, train)
        if out.shape != x.shape:
            raise ValueError(f"residual branch changed shape {x.shape} -> {out.shape}")
        return x + out

    def backward(self, grad):
        g = _backward_chain(self.layers, grad, self._input_grad)
        return grad + g if self._input_grad else None


_LAYER_CLASSES = {cls.kind: cls for cls in (
    ComplexConv2d, RealConv2d, ComplexDense, RealDense, ComplexReLU, RealReLU,
    RealSigmoid, Flatten, SplitReIm, MergeReIm, RealHeadDense,
    ComplexBatchNorm, RealBatchNorm, Residual)}


def layer_from_spec(spec: dict) -> Layer:
    """Rebuild a layer from its spec dict; parameters start at zero.

    Spec keys besides "kind" must be exactly _spec_keys(kind's class),
    else ValueError. A spec that is not a dict, and a value that
    makes the constructor raise TypeError, are ValueErrors too.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"layer spec must be an object, got {spec!r}")
    args = dict(spec)
    kind = args.pop("kind", None)
    cls = _LAYER_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown layer kind {kind!r}")
    expected = sorted(_spec_keys(cls))
    if sorted(args) != expected:
        raise ValueError(f"bad {kind} layer spec: keys {sorted(args)}, "
                         f"expected {expected}")
    try:
        if "layers" in args:
            args["layers"] = [layer_from_spec(s) for s in args["layers"]]
        return cls(**args)
    except TypeError as e:
        raise ValueError(f"bad {kind} layer spec {spec!r}: {e}") from e
