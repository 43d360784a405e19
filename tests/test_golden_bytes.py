"""Output bytes and eval metrics pinned across code changes.

`TestDeterminism` compares two runs of the same code; these digests pin the
`.imds` and `.cvnn` bytes themselves, so a refactor that shifts a random
draw, a layer order or an f32 rounding fails here. The eval pins hold the
BER and TAC accuracy that `immimo eval` reports for ML, SOMP (with illegal
supports to legalize) and the trained complex two-stage detector. Any intended change to
an output format must update the digests in the same change and say why.
The trained digests depend on floating-point summation order and were taken
with BLAS pinned to one thread (see conftest.py).

`TRAINED` was re-pinned five times. First, when training got cheaper: the
conv backward became two GEMMs instead of two einsums (other summation
order), the
dense backward stopped copying conj(W), and Adam became one in-place real
update over the float64 view of every tensor (a complex parameter's parts
are now divided as reals, where numpy's complex-by-real division rounded
differently). Both AAPD digests moved;
the SE digests did not. Only training changed: `DATASETS`, `SEED_BUILT`
and `EVAL_METRICS` were not edited, and the old forms stay in the tests
as references (`einsum_conv_backward` in test_cvnn_layers.py,
`two_branch_adam_step` in test_cvnn_model.py) that the new ones must
match to 1e-12 relative, bit for bit on real Adam updates.

Second, when ComplexBatchNorm became one widely-linear map per channel,
y = a*x + b*conj(x) + c with a, b and c from the statistics, in place of
whitening the centred (re, im) pair and then applying gamma and beta; its
backward became widely-linear maps of the output gradient and the centred
input, with coefficients from four per-channel sums.
The result is algebraically the same but rounds differently, so only the
complex AAPD digest moved (the real nets have no complex batch norm, and
the SE net has no batch norm at all). The running statistics are computed
as before, bit for bit, and `whiten_then_gamma_batchnorm` in
test_cvnn_layers.py keeps the old forward and backward as a reference
that the new ones match to 1e-12 relative. `DATASETS`, `SEED_BUILT`,
`EVAL_METRICS` and the other digests were not edited.

Third, when the conv layers stopped keeping their patch matrix: backward
rebuilds the patches channel-major from the cached input, (C*k*k, B*P),
and takes the weight gradient as conj(conj(G) @ cols.T), where it used a
conjugated (B*P, C*k*k) copy. For float64 the product with the
transposed patches goes through another small-matrix dgemm kernel of
OpenBLAS than the one with the contiguous copy, and no form with the
channel-major patches sums in the old order, so only the real AAPD digest
moved (1a137523... -> ba74f19c...). At complex128 the new backward equals
the old one bit for bit at the benchmark train shapes, and the complex
digests, the real SE digest, `DATASETS`, `SEED_BUILT` and `EVAL_METRICS`
were not edited. `rows_conv_backward` in test_cvnn_layers.py keeps the old
backward as a reference: bit for bit on complex128 with more than one
output channel, within 1e-12 relative elsewhere.

Fourth, when training moved to checkpoint precision: Adam keeps float64
master weights and hands the net their float32/complex64 roundings, so
forward and backward run at c8/f4, and every digest moved:
  complex AAPD e2d64496... -> 5be447fd...,  complex SE 162e0a08... -> d6c04957...
  real AAPD    ba74f19c... -> aef55706...,  real SE    83de4174... -> 30f752bc...
Re-runs are byte-identical. `C16Adam` below is the previous optimizer,
updating a c16/f64 net in place; with it in `train_full`'s place the
previous digests (`C16_TRAINED`) come back byte for byte, since every
other change is the identity on a c16 net. Over the golden configuration's
8 steps the c8 trajectory stays within the tolerance that
`test_c8_training_tracks_the_c16_reference` states. `DATASETS`,
`SEED_BUILT` and `EVAL_METRICS` were not edited.

Fifth, when Adam dropped its float64 copies: it updates the net's own
c8/f4 parameters in place, with c8/f4 moments, in the short form of
Kingma & Ba (step size and eps bias-corrected, m += (1-b1)(g-m),
v += (1-b2)(g^2-v)), every operation in float32. The net already
computed at c8/f4, so only the update's rounding changed, and every
digest moved:
  complex AAPD 5be447fd... -> 6059e91e...,  complex SE d6c04957... -> 7a60c88e...
  real AAPD    aef55706... -> f85fa988...,  real SE    30f752bc... -> eea34684...
Re-runs are byte-identical. `F64MasterAdam` below is the previous
optimizer, moved here verbatim; with it in `train_full`'s place the
previous digests (`F64_MASTER_TRAINED`) come back byte for byte.
`test_c8_training_tracks_the_c16_reference` holds at its bounds, and
`two_branch_adam_step` in test_cvnn_model.py is the float64 standard form
the new update must track within a float32 bound. `DATASETS`,
`SEED_BUILT`, `EVAL_METRICS` and `C16_TRAINED` were not edited.

Sixth, when the conv backward became convolutions: the input gradient is
the output gradient convolved with the flipped, conjugated kernel, run by
the forward's patch-matrix routine, in place of a patch gradient folded by
col2im, and the weight gradient takes the patches on the left,
conj(cols @ conj(G)). Both sum in another order, and every digest moved:
  complex AAPD 6059e91e... -> b06e59fd...,  complex SE 7a60c88e... -> e8a26b1d...
  real AAPD    f85fa988... -> 5e5dbee0...,  real SE    eea34684... -> f088d791...
Model.backward also stops at the first layer with parameters, which
computes no input gradient; that moves no parameter gradient. Re-runs are
byte-identical. `col2im_conv_backward` below is the previous conv
backward, moved here verbatim; with it in `_ConvBase.backward`'s place
the previous digests (`COL2IM_TRAINED`) come back byte for byte, and so
do `C16_TRAINED` and `F64_MASTER_TRAINED` under their optimizers.
`rows_conv_backward` in test_cvnn_layers.py is the reference the new
backward tracks within 1e-14 relative at complex128.
`test_c8_training_tracks_the_c16_reference` holds at its bounds, and
`DATASETS`, `SEED_BUILT` and `EVAL_METRICS` were not edited.

Then ComplexBatchNorm's backward took the covariance gradient as one 2x2
Lyapunov solve (S Z + Z S = W sym(gamma^T sums) W, S = V^(1/2)) in place
of a quotient rule over the entries of W, and no digest moved.
`quotient_rule_batchnorm_backward` below is the previous backward, moved
here; with it in place `TRAINED` holds as well, so the two forms agree bit
for bit at c8. At c16 they differ by at most about 2.5e-16 relative, which
moves the complex `C16_TRAINED` digest, so the col2im, C16 and
float64-master references install it next to `col2im_conv_backward`.
"""

import hashlib
import json

import numpy as np
import pytest

from immimo import twostage
from immimo.cli import main
from immimo.config import ExperimentConfig
from immimo.cvnn import Adam, bce, bce_backward, mse, mse_backward
from immimo.cvnn.layers import (ComplexBatchNorm, _apply_widely_linear, _ConvBase, _expand,
                                _im2col_cm, _real_view, _sym2, _widely_linear)
from immimo.cvnn.model import Model, _at_disk_precision
from immimo.dataset import generate_arrays, table_for, write_dataset
from immimo.detectors import tacs_from_probabilities, zf_estimate
from immimo.twostage import TrainConfig, _as_input, build_aapd, build_se, train_full


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


DATASETS = {
    "4x1-static": (
        ExperimentConfig(n_t=4, n_u=1, n_r=4, t=16, m=4, seed=3),
        "49ff3697b7d2789c670ed293aeeb787664a3cda87bc1bac0e8eba80d4c3e414b",
    ),
    "8x2-csi-rho": (
        ExperimentConfig(n_t=8, n_u=2, n_r=8, t=16, m=4, seed=3,
                         csi_error_var=0.01, rho=0.5),
        "1aab6938dc66e18ede333e0e3cf46c0895e5f7a32eb95fba375025962877dbea",
    ),
}

SEED_BUILT = {
    "complex": (
        "6e6831714359cdf8cfd91490b0f2919fee37fe2305747cf845116af5d8f62fdc",
        "55e0ebafa173d0261d2edbf5208f3e1b3a4f3f3e4510a9d2a87914f0ea17b633",
    ),
    "real": (
        "fac5f741074d1486a03df36beeb96acf0f90d024e5ca45607737b244888c56f3",
        "195eb15a58bbc155e2a444196e7a985cf066b0d1b8a0c1686df49d97364b10a6",
    ),
}

TRAINED = {
    "complex": (
        "b06e59fdd20482d2671c09790730c415c3e3d934f5caa49fe8c93b62f6cfafb8",
        "e8a26b1de99339ce2a575b21502e53e465f0c4d07e6cf8d615adb07e6872cfc0",
    ),
    "real": (
        "5e5dbee09d8879de2cda518bb7651dbe124e1f073af8c0a49363f7372d1ab3e2",
        "f088d7910022c489789f93b61ff7e297b83b51e114a9bb20e36109ed8fdc12c7",
    ),
}

# TRAINED while the conv backward folded its patch gradient with col2im;
# col2im_conv_backward gives it
COL2IM_TRAINED = {
    "complex": (
        "6059e91e00c3132b79dcb1e94117a5bc703768144c72ab2f3f913bc08dcae768",
        "7a60c88e2192bf65824f7d15d9156585e256065fba1889aba887f41ef98b1b5c",
    ),
    "real": (
        "f85fa9888a34c15087051ddb0290a7b9155c36dbf6655d5ac56a21d7af3ed589",
        "eea34684db58c5de5b3dc2169cab29f0c54c10ee2d73d289481480caa1c403bf",
    ),
}

# TRAINED while Adam kept float64 masters and moments; F64MasterAdam with
# col2im_conv_backward gives it
F64_MASTER_TRAINED = {
    "complex": (
        "5be447fd05f24a7a702c896d75693dcaaea38c918160ac648997c1645bfb1ede",
        "d6c04957790d3f45cd6b54be5d83da0c94370204acf53ec08bf65d412504cce0",
    ),
    "real": (
        "aef557060bdec200b9203f8b2388103a092f03b6b741eabdc9384d3cbd6874c3",
        "30f752bc11b3945feb8f83cfa4507d4d9ea65346f6de3d1470bb03eeec2e1b6a",
    ),
}

# TRAINED before training moved to checkpoint precision; C16Adam with
# col2im_conv_backward gives it
C16_TRAINED = {
    "complex": (
        "e2d6449655519332730b31d531a4cc4945e5e48db9099871224a14c568668ea2",
        "162e0a08d432cf35762a1e86af59f1c5eac0621f9e6e12a3950cfd35cea630db",
    ),
    "real": (
        "ba74f19c329bea84d0133bcea8633c23b4ff48e3be90fafaf2988745d8a32915",
        "83de4174c2e6f3b40e7b7f9d394a8fe9e5126044e9a48bc7cc23cbf2e22f2699",
    ),
}

TRAINED_CFG = ExperimentConfig(n_t=4, n_u=2, n_r=4, t=8, m=4,
                               tac_preset="preset-4x2", seed=3)


# _tap_spans, _col2im_cm and col2im_conv_backward: the conv backward before
# its input gradient became a convolution, moved here verbatim (but for the
# method's name)
def _tap_spans(h: int, w: int, k: int, pad: int) -> tuple[slice, slice]:
    """Rows and columns of a k x k kernel whose taps land on the (h, w)
    input from some output position; the other taps only read padding."""
    def span(n):
        no = n + 2 * pad - k + 1
        taps = [d for d in range(k) if max(pad - d, 0) < min(n + pad - d, no)]
        return slice(taps[0], taps[-1] + 1)
    return span(h), span(w)


def _col2im_cm(cols: np.ndarray, shape, k: int, pad: int) -> np.ndarray:
    """Adjoint of _im2col_cm, over the taps of _tap_spans: scatter-add the
    (C*kh*kw, B*P) patches of those kh x kw taps back onto a C-contiguous
    (B, C, H, W), the taps summed in (di, dj) order. A tap adds only the
    outputs that land inside the input, so nothing is summed into padding."""
    b, c, h, w = shape
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    ti, tj = _tap_spans(h, w, k, pad)
    six = cols.reshape(c, ti.stop - ti.start, tj.stop - tj.start, b, ho, wo)
    xt = np.zeros((c, b, h, w), dtype=cols.dtype)
    for di in range(ti.start, ti.stop):
        i0, i1 = max(pad - di, 0), min(h + pad - di, ho)
        for dj in range(tj.start, tj.stop):
            j0, j1 = max(pad - dj, 0), min(w + pad - dj, wo)
            xt[:, :, i0 + di - pad:i1 + di - pad, j0 + dj - pad:j1 + dj - pad] += \
                six[:, di - ti.start, dj - tj.start, :, i0:i1, j0:j1]
    return np.ascontiguousarray(xt.transpose(1, 0, 2, 3))


def col2im_conv_backward(self, grad):
    x, pad = self._take_cache()
    grad = np.asarray(grad, dtype=self.weight.dtype)
    b, cout = grad.shape[0], self.out_channels
    g = grad.reshape(b, cout, -1)                               # (B, Cout, P)
    # conj(G) with the batch and position axes merged: (Cout, B*P)
    gc = np.empty((cout, b, g.shape[2]), dtype=g.dtype)
    np.conjugate(g.transpose(1, 0, 2), out=gc)
    gc = gc.reshape(cout, -1)
    dw = gc @ _im2col_cm(x, self.kernel, pad).T
    self.grads = {
        "weight": np.conjugate(dw, out=dw).reshape(self.weight.shape),
        "bias": g.sum(axis=(0, 2)),
    }
    # conj(W).T @ G as conj(W.T @ conj(G)), conjugated once folded, over
    # the taps that reach the input
    ti, tj = _tap_spans(*x.shape[2:], self.kernel, pad)
    wmat = self.weight[:, :, ti, tj].reshape(cout, -1)
    dx = _col2im_cm(wmat.T @ gc, x.shape, self.kernel, pad)
    return np.conjugate(dx, out=dx)


# quotient_rule_batchnorm_backward: ComplexBatchNorm's backward before its
# covariance gradient became a Lyapunov solve, moved here verbatim but for
# its first lines: the cache no longer holds s, t and the eps-loaded V, so
# they are recomputed from the centred input the way forward computes them
def quotient_rule_batchnorm_backward(self, grad):
    u, w, axes, n = self._take_cache()
    v11, v12, v22 = (np.asarray(v, dtype=np.float64) for v in (
        (u.real ** 2).mean(axis=axes), (u.real * u.imag).mean(axis=axes),
        (u.imag ** 2).mean(axis=axes)))
    v11, v22 = v11 + self.eps, v22 + self.eps
    s = np.sqrt(v11 * v22 - v12 * v12)
    t = np.sqrt(v11 + v22 + 2.0 * s)
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
    # mean. lw = grad wrt (w11, w12, w22) = the entries of gamma^T sums
    gs = np.swapaxes(self.gamma, -1, -2) @ sums
    lw11, lw12, lw22 = gs[:, 0, 0], gs[:, 0, 1] + gs[:, 1, 0], gs[:, 1, 1]
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
    lv11, lv12, lv22 = lw11 * dw11 + lw12 * dw12 + lw22 * dw22        # (3, C)
    # through the batch covariance: the symmetric map [[2 lv11, lv12],
    # [lv12, 2 lv22]] / n of u; through the batch mean: minus the mean
    # over the moment axes, where mean(u) = 0 leaves -(gamma W)^T mean(grad)
    dx += _apply_widely_linear(u, *_widely_linear(_sym2(2 * lv11, lv12, 2 * lv22) / n))
    gbar = dbeta / n
    dx -= _expand((ag * gbar + bg * gbar.conj()).astype(dx.dtype), nd)
    return dx


class C16Adam:
    """The optimizer before master weights: Adam run in place on the net's
    own float64/complex128 tensors, through their float64 views, so the
    net trains at c16/f64."""

    def __init__(self, model, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.model, self.lr, self.beta1, self.beta2, self.eps = model, lr, beta1, beta2, eps
        self.step_count = 0
        self.slots = [{"m": np.zeros_like(a), "v": np.zeros_like(a)}
                      for _, a in model.param_items()]

    def step(self):
        b1, b2 = self.beta1, self.beta2
        self.step_count += 1
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for slot, (_, p), (_, g) in zip(self.slots, self.model.param_items(),
                                        self.model.grad_items()):
            assert p.dtype in (np.float64, np.complex128)
            g = _real_view(g).reshape(-1)
            p, m, v = (a.view(np.float64).reshape(-1) for a in (p, slot["m"], slot["v"]))
            m *= b1
            m += g * (1 - b1)
            v *= b2
            v += g * g * (1 - b2)
            s = np.sqrt(v / c2)
            s += self.eps
            u = m / c1
            u /= s
            u *= self.lr
            p -= u


# F64MasterAdam, _master and _BLOCK: the optimizer before it dropped its
# float64 copies, moved here verbatim (but for the class name)
# Adam walks each tensor in blocks of this many real slots: its scratch
# stays small, and a block's operands (about 1.8 MB) stay in cache
_BLOCK = 1 << 15


def _master(a: np.ndarray) -> np.ndarray:
    """A C-contiguous float64 (complex128) copy of `a`, exact from f32/c8."""
    return np.array(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64,
                    order="C")


class F64MasterAdam:
    """Standard Adam with bias correction on float64 master weights; the
    net it trains computes at checkpoint precision (mixed-precision
    training, Micikevicius et al., ICLR 2018).

    Built over a net, Adam keeps a float64/complex128 master copy of each
    parameter (`masters`, exact for a loaded float32/complex64 net) and
    replaces the net's parameters with their float32/complex64 roundings,
    the precision a checkpoint holds, so forward and backward run at that
    precision. Batch-norm running statistics are buffers, not parameters:
    they keep the precision they have, float64 for a built net, until
    Model.quantize_state.

    Every master, gradient and moment is updated through its flat real
    view, so a complex parameter is exactly two real parameters (its real
    and imaginary slots) and real and complex tensors share one code path.
    The moments `m` and `v` keep the master's dtype, so a complex `v`
    holds the real slot's second moment in v.real and the imaginary slot's
    in v.imag. step() upcasts each block of gradient slots to float64
    (exactly), updates the masters and moments in place, and writes the
    block's rounded masters into the net's parameter in the same pass. The
    update is elementwise, so walking a tensor block by block gives the
    same bits as one pass over the whole tensor.
    """

    # the defaults of Kingma & Ba (ICLR 2015)
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, model: Model, lr: float = 1e-3):
        self.model = model
        self.lr = lr
        self.step_count = 0
        params = model.param_items()
        self.masters = [_master(a) for _, a in params]
        self.slots = [{"m": np.zeros_like(a), "v": np.zeros_like(a)}
                      for a in self.masters]
        model.set_tensors([(key, _at_disk_precision(a))
                           for (key, _), a in zip(params, self.masters)])
        self._scratch = np.empty((3, _BLOCK))

    def step(self) -> None:
        """Apply one update from the gradients currently held by the layers."""
        params = self.model.param_items()
        grads = self.model.grad_items()
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for master, slot, (key, p), (_, g) in zip(self.masters, self.slots, params, grads):
            # the flat view must alias p: reshape copies otherwise
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {key} is not C-contiguous")
            wide = [a.view(np.float64).reshape(-1) for a in (master, slot["m"], slot["v"])]
            low, g = (_real_view(a).reshape(-1) for a in (p, g))
            for lo in range(0, wide[0].size, _BLOCK):
                hi = lo + _BLOCK
                self._update(*(a[lo:hi] for a in wide), g[lo:hi], c1, c2)
                low[lo:hi] = wide[0][lo:hi]

    def _update(self, p, m, v, g, c1: float, c2: float) -> None:
        """One Adam update of a block of float64 slots p, m and v, in place,
        from the gradient slots g at any precision."""
        b1, b2 = self.beta1, self.beta2
        s, u, gw = self._scratch[:, :p.size]
        gw[...] = g
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        m *= b1
        m += np.multiply(gw, 1 - b1, out=s)
        v *= b2
        np.multiply(gw, gw, out=s)
        s *= 1 - b2
        v += s
        # p -= lr (m / c1) / (sqrt(v / c2) + eps)
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        s += self.eps
        np.divide(m, c1, out=u)
        u /= s
        u *= self.lr
        p -= u

    def state(self) -> dict:
        return {"step": self.step_count, "lr": self.lr, "slots": self.slots,
                "masters": self.masters}

    def load_state(self, state: dict) -> None:
        """Take over `state` (from state()) and write its masters, rounded,
        into the net's parameters."""
        if (len(state["slots"]) != len(self.slots)
                or len(state["masters"]) != len(self.masters)):
            raise ValueError("adam state mismatch")
        self.step_count = int(state["step"])
        self.lr = float(state["lr"])
        for mine, theirs in zip(self.slots, state["slots"]):
            mine["m"][...] = theirs["m"]
            mine["v"][...] = theirs["v"]
        for mine, theirs, (_, p) in zip(self.masters, state["masters"],
                                        self.model.param_items()):
            mine[...] = theirs
            p[...] = mine


def _train_trained_cfg(variant, tmp_path):
    train = generate_arrays(TRAINED_CFG, 15.0, 200, 0)
    val = generate_arrays(TRAINED_CFG, 15.0, 100, 200)
    aapd, se, _ = train_full(train, val, TrainConfig(batch=50, max_epochs=2, seed=3),
                             table_for(TRAINED_CFG), variant=variant,
                             conv_channels=(4, 4), dense_units=(8, 8),
                             se_channels=(2, 2))
    aapd.net.save(tmp_path / "a.cvnn")
    se.net.save(tmp_path / "s.cvnn")
    return _sha256(tmp_path / "a.cvnn"), _sha256(tmp_path / "s.cvnn")


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_bytes(name, tmp_path):
    cfg, want = DATASETS[name]
    path = tmp_path / "d.imds"
    write_dataset(path, cfg, 15.0, 64, 0)
    assert _sha256(path) == want


@pytest.mark.parametrize("variant", ["complex", "real"])
def test_seed_built_checkpoint_bytes(variant, tmp_path):
    aapd = build_aapd(4, 16, 4, variant, seed=3)
    se = build_se(2, 16, variant, seed=3)
    aapd.net.save(tmp_path / "a.cvnn")
    se.net.save(tmp_path / "s.cvnn")
    got = (_sha256(tmp_path / "a.cvnn"), _sha256(tmp_path / "s.cvnn"))
    assert got == SEED_BUILT[variant]


@pytest.mark.parametrize("variant", ["complex", "real"])
def test_trained_checkpoint_bytes(variant, tmp_path):
    assert _train_trained_cfg(variant, tmp_path) == TRAINED[variant]


def test_quotient_rule_reference_gives_the_same_digests(tmp_path, monkeypatch):
    # the real nets have no complex batch norm
    monkeypatch.setattr(ComplexBatchNorm, "backward", quotient_rule_batchnorm_backward)
    assert _train_trained_cfg("complex", tmp_path) == TRAINED["complex"]


@pytest.mark.parametrize("variant", ["complex", "real"])
def test_col2im_reference_gives_the_previous_digests(variant, tmp_path, monkeypatch):
    monkeypatch.setattr(_ConvBase, "backward", col2im_conv_backward)
    monkeypatch.setattr(ComplexBatchNorm, "backward", quotient_rule_batchnorm_backward)
    assert _train_trained_cfg(variant, tmp_path) == COL2IM_TRAINED[variant]


@pytest.mark.parametrize("variant", ["complex", "real"])
def test_c16_reference_gives_the_previous_digests(variant, tmp_path, monkeypatch):
    monkeypatch.setattr(twostage, "Adam", C16Adam)
    monkeypatch.setattr(_ConvBase, "backward", col2im_conv_backward)
    monkeypatch.setattr(ComplexBatchNorm, "backward", quotient_rule_batchnorm_backward)
    assert _train_trained_cfg(variant, tmp_path) == C16_TRAINED[variant]


@pytest.mark.parametrize("variant", ["complex", "real"])
def test_f64_master_reference_gives_the_previous_digests(variant, tmp_path, monkeypatch):
    monkeypatch.setattr(twostage, "Adam", F64MasterAdam)
    monkeypatch.setattr(_ConvBase, "backward", col2im_conv_backward)
    monkeypatch.setattr(ComplexBatchNorm, "backward", quotient_rule_batchnorm_backward)
    assert _train_trained_cfg(variant, tmp_path) == F64_MASTER_TRAINED[variant]


@pytest.mark.parametrize("variant", ["complex", "real"])
def test_c8_training_tracks_the_c16_reference(variant):
    """The golden configuration's 8 steps (2 epochs of 4 batches of 50),
    from the same seed-built weights on the same batches, under Adam (c8
    net and moments, float32 update) and C16Adam (c16 net), for the AAPD and the SE
    (fed ZF on the true TACs).

    Tolerance: each c8/f4 operation rounds to 2^-24 (6e-8) relative, so
    the gradients differ by about 1e-7 relative and Adam's normalized
    steps by about as much. Measured over these 8 steps: losses within
    9.5e-8 relative, every parameter within 4.2e-7 of its tensor's
    largest entry. Required: 1e-6 and 1e-5, a 10x and 20x margin. The exception is a
    conv bias that feeds a batch norm: the norm subtracts it again, so its
    true gradient is zero and it moves on rounding noise alone. At c16
    that noise (about 1e-17) is far below Adam's eps (1e-8) and the bias
    stays near its initial zero; at c8 it is not, and the bias takes steps
    of up to about lr. So it is held to Adam's step bound: at most 2 lr
    per step apart (measured 2.4e-3 after 8 steps against 1.6e-2).
    """
    table = table_for(TRAINED_CFG)
    data = generate_arrays(TRAINED_CFG, 15.0, 200, 0)
    tacs = tacs_from_probabilities(data["g"].astype(np.float64), table)
    zf = zf_estimate(data["y"], data["h_est"], table.cols[tacs])
    lr, steps = 1e-3, 8
    for role in ("aapd", "se"):
        if role == "aapd":
            def build():
                return build_aapd(4, 8, 4, variant, conv_channels=(4, 4),
                                  dense_units=(8, 8), seed=3).net
            x, target = _as_input(data["y"]), data["g"].astype(np.float64)
            loss, loss_backward = bce, bce_backward
        else:
            def build():
                return build_se(2, 8, variant, channels=(2, 2), seed=3).net
            x, target = _as_input(zf), _as_input(data["s"])
            loss, loss_backward = mse, mse_backward
        ref, net = build(), build()
        ref_opt, opt = C16Adam(ref, lr=lr), Adam(net, lr=lr)
        for k in range(steps):
            sel = slice(50 * (k % 4), 50 * (k % 4 + 1))
            losses = []
            for n, o in ((ref, ref_opt), (net, opt)):
                out = n.forward(x[sel], train=True)
                losses.append(loss(out, target[sel]))
                n.backward(loss_backward(out, target[sel]))
                o.step()
            assert abs(losses[1] - losses[0]) <= 1e-6 * abs(losses[0]), (role, k)
        norm_fed = {(i, "bias") for i, layer in enumerate(ref.layers[:-1])
                    if "conv2d" in layer.kind and "batchnorm" in ref.layers[i + 1].kind}
        for ((key, want), (_, got)) in zip(ref.param_items(), net.param_items()):
            diff = np.abs(got - want).max()
            if key in norm_fed:
                assert diff <= 2 * lr * steps, (role, key)
            else:
                assert diff <= 1e-5 * np.abs(want).max(), (role, key)


EVAL_CFG = """
n_t = 4
n_u = 2
n_r = 4
t = 8
m = 4
snr_db = 6
csi_error_var = 0.05
frames_train = 200
frames_val = 100
frames_test = 300
seed = 5
max_epochs = 2
batch = 50
conv_channels = 4, 4
dense_units = 8, 8
se_channels = 2, 2
"""

# (ber, aap_accuracy) per detector; 16 of the 300 SOMP supports are illegal
EVAL_METRICS = {
    "ml": (0.08735294117647059, 0.8933333333333333),
    "nn-complex": (0.23401960784313725, 0.27),
    "somp": (0.165, 0.61),
}


def test_eval_metrics(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EVAL_CFG)
    data, ckpt, out = tmp_path / "data", tmp_path / "ckpt", tmp_path / "eval.csv"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(ckpt)]) == 0
    assert main(["eval", "--config", str(cfg), "--data", str(data), "--ckpt", str(ckpt),
                 "--detectors", "ml,somp,nn-complex", "--out", str(out)]) == 0
    rows = json.loads((tmp_path / "eval.json").read_text())["rows"]
    got = {r["detector"]: (r["ber"], r["aap_accuracy"]) for r in rows}
    assert got == EVAL_METRICS
