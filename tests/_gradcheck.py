"""Finite-difference gradient checking harness shared by the test files.

Builds a small model around one layer-under-test, computes analytic
parameter and input gradients under a chosen loss, and compares every slot
against central finite differences. Complex parameters are perturbed on the
real and imaginary axes independently and packed as d/dRe + j d/dIm, the
same convention the layers use.
"""

import numpy as np

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
)
from immimo.cvnn.losses import bce, bce_backward, mse, mse_backward
from immimo.cvnn.model import Model
from immimo.linalg import Rng

LAYER_KINDS = (
    "complex_conv2d",
    "complex_dense",
    "complex_relu",
    "complex_batchnorm",
    "real_head_dense",
    "real_conv2d",
    "real_dense",
    "real_relu",
    "real_sigmoid",
    "real_batchnorm",
    "residual_add",
    "split_merge",
)


def _crand(r, *shape):
    return 0.5 * (r.normal(size=shape) + 1j * r.normal(size=shape))


def _head(real_width, k, rng):
    return [RealHeadDense(real_width, k, rng=rng), RealSigmoid()]


def make_case(kind: str, loss_name: str, seed: int):
    """Random small config for one layer kind; returns (model, x, target)."""
    r = np.random.default_rng(seed)
    rng = Rng(seed)
    b = int(r.integers(2, 5))
    k_out = int(r.integers(1, 4))

    if kind in ("complex_conv2d", "real_conv2d"):
        cin, cout = int(r.integers(1, 3)), int(r.integers(1, 3))
        kern = int(r.choice([1, 3]))
        h, w = int(r.integers(kern, kern + 3)), int(r.integers(kern, kern + 3))
        pad = str(r.choice(["same", "valid"]))
        if kind == "complex_conv2d":
            conv = ComplexConv2d(cin, cout, kernel=kern, padding=pad, rng=rng)
            x = _crand(r, b, cin, h, w)
        else:
            conv = RealConv2d(cin, cout, kernel=kern, padding=pad, rng=rng)
            x = 0.5 * r.normal(size=(b, cin, h, w))
        ho, wo = (h, w) if pad == "same" else (h - kern + 1, w - kern + 1)
        feat = cout * ho * wo
        layers = [conv, Flatten()]
        real_width = 2 * feat if kind == "complex_conv2d" else feat
    elif kind in ("complex_dense", "real_dense"):
        fin, fout = int(r.integers(1, 6)), int(r.integers(1, 6))
        if kind == "complex_dense":
            layers = [ComplexDense(fin, fout, rng=rng)]
            x = _crand(r, b, fin)
            real_width = 2 * fout
        else:
            layers = [RealDense(fin, fout, rng=rng)]
            x = 0.5 * r.normal(size=(b, fin))
            real_width = fout
    elif kind == "complex_relu":
        fin, fout = int(r.integers(1, 6)), int(r.integers(1, 6))
        layers = [ComplexDense(fin, fout, rng=rng), ComplexReLU()]
        x = _crand(r, b, fin)
        real_width = 2 * fout
    elif kind in ("real_relu", "real_sigmoid"):
        fin, fout = int(r.integers(1, 6)), int(r.integers(1, 6))
        act = RealReLU() if kind == "real_relu" else RealSigmoid()
        layers = [RealDense(fin, fout, rng=rng), act]
        x = 0.5 * r.normal(size=(b, fin))
        real_width = fout
    elif kind == "complex_batchnorm":
        # batch >= 6 and unit-scale inputs keep the batch-variance terms well
        # conditioned for finite differences
        b = int(r.integers(6, 10))
        if r.integers(0, 2):
            c = int(r.integers(1, 3))
            h = w = int(r.integers(2, 4))
            layers = [ComplexConv2d(c, c, kernel=1, padding="same", rng=rng),
                      ComplexBatchNorm(c), Flatten()]
            x = 2.0 * _crand(r, b, c, h, w)
            real_width = 2 * c * h * w
        else:
            f = int(r.integers(2, 6))
            layers = [ComplexDense(f, f, rng=rng), ComplexBatchNorm(f)]
            x = 2.0 * _crand(r, b, f)
            real_width = 2 * f
    elif kind == "real_batchnorm":
        b = int(r.integers(6, 10))
        f = int(r.integers(2, 6))
        layers = [RealDense(f, f, rng=rng), RealBatchNorm(f)]
        x = r.normal(size=(b, f))
        real_width = f
    elif kind == "real_head_dense":
        fin = int(r.integers(1, 5))
        if r.integers(0, 2):
            layers = [ComplexDense(fin, fin, rng=rng)]
            x = _crand(r, b, fin)
            real_width = 2 * fin
        else:
            layers = [RealDense(fin, fin, rng=rng)]
            x = 0.5 * r.normal(size=(b, fin))
            real_width = fin
    elif kind == "residual_add":
        c = int(r.integers(1, 3))
        h = w = int(r.integers(2, 4))
        branch = [ComplexConv2d(c, c, kernel=1, padding="same", rng=rng),
                  ComplexReLU(),
                  ComplexConv2d(c, c, kernel=1, padding="same", rng=rng)]
        layers = [Residual(branch), Flatten()]
        x = _crand(r, b, c, h, w)
        real_width = 2 * c * h * w
    elif kind == "split_merge":
        c = int(r.integers(1, 3))
        h = w = int(r.integers(2, 4))
        layers = [SplitReIm(),
                  RealConv2d(2 * c, 2 * c, kernel=1, padding="same", rng=rng),
                  MergeReIm(), Flatten()]
        x = _crand(r, b, c, h, w)
        real_width = 2 * c * h * w
    else:
        raise ValueError(f"unknown kind {kind!r}")

    if loss_name == "bce":
        layers = layers + _head(real_width, k_out, rng)
        target = r.integers(0, 2, size=(x.shape[0], k_out)).astype(float)
    else:
        probe = Model(layers).forward(x.copy(), train=True)
        if np.iscomplexobj(probe):
            target = _crand(r, *probe.shape)
        else:
            target = 0.5 * r.normal(size=probe.shape)
    model = Model(layers)
    return model, x, target


def full_backward(layers, grad):
    """The loss gradient back through `layers` to their input, each layer's
    own backward called in turn. Model.backward leaves the same parameter
    gradients but computes no input gradient."""
    for layer in reversed(layers):
        grad = layer.backward(grad)
    return grad


def run_case(model: Model, x, target, loss_name: str, step: float = 1e-4):
    """Analytic vs finite-difference gradients; returns worst relative error."""
    loss_fn = bce if loss_name == "bce" else mse
    loss_bwd = bce_backward if loss_name == "bce" else mse_backward

    def value():
        return loss_fn(model.forward(x, train=True), target)

    pred = model.forward(x, train=True)
    gx = full_backward(model.layers, loss_bwd(pred, target))
    analytic = [(key, g.copy()) for key, g in model.grad_items()]

    worst = 0.0
    params = dict(model.param_items())
    for key, g in analytic:
        fd = _finite_diff(value, params[key], step)
        worst = max(worst, _rel_err(g, fd))
    fd_x = _finite_diff(value, x, step)
    worst = max(worst, _rel_err(gx, fd_x))
    return worst


def _finite_diff(value, arr, step):
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = value()
        flat[i] = orig - step
        fm = value()
        d = (fp - fm) / (2 * step)
        if np.iscomplexobj(arr):
            flat[i] = orig + 1j * step
            fp = value()
            flat[i] = orig - 1j * step
            fm = value()
            d = d + 1j * (fp - fm) / (2 * step)
        gflat[i] = d
        flat[i] = orig
    return grad


def _rel_err(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max())
    if scale < 1e-6:
        # both zero to finite-difference precision (e.g. a bias feeding a
        # mean-subtracting batchnorm has an exactly-zero gradient)
        return 0.0
    return float(np.abs(a - b).max() / scale)
