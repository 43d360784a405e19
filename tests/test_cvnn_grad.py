"""Backpropagation correctness: analytic gradients vs finite differences.

The full 20-config sweep per layer kind runs in the acceptance suite; this
file spot-checks every kind under both losses and exercises the trickier
train-mode batchnorm path in isolation.
"""

import numpy as np
import pytest

from immimo.cvnn.layers import ComplexBatchNorm, ComplexDense
from immimo.cvnn.losses import mse, mse_backward
from immimo.cvnn.model import Model

from _gradcheck import LAYER_KINDS, full_backward, make_case, run_case

TOL = 1e-4


@pytest.mark.parametrize("kind", LAYER_KINDS)
@pytest.mark.parametrize("loss_name", ["bce", "mse"])
def test_layer_gradients(kind, loss_name):
    for seed in (101, 202, 303):
        model, x, target = make_case(kind, loss_name, seed)
        worst = run_case(model, x, target, loss_name)
        assert worst < TOL, f"{kind}/{loss_name} seed {seed}: rel err {worst:.2e}"


def test_batchnorm_train_mode_full_chain():
    # gradient THROUGH the batch statistics: a loose check would pass with
    # the inference-mode shortcut, so drive a case where they differ a lot
    r = np.random.default_rng(7)
    bn = ComplexBatchNorm(3)
    x = (r.normal(size=(16, 3)) * 3.0 + 1.0) + 1j * (r.normal(size=(16, 3)) - 2.0)
    target = 0.5 * (r.normal(size=(16, 3)) + 1j * r.normal(size=(16, 3)))
    model = Model([bn])

    pred = model.forward(x, train=True)
    gx = full_backward(model.layers, mse_backward(pred, target))

    # inference-mode backward (W fixed) would miss the stat terms entirely
    step = 1e-5
    fd = np.zeros_like(x)
    flat, gflat = x.reshape(-1), fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        vals = []
        for delta in (step, -step, 1j * step, -1j * step):
            flat[i] = orig + delta
            vals.append(mse(model.forward(x, train=True), target))
        flat[i] = orig
        gflat[i] = (vals[0] - vals[1]) / (2 * step) + 1j * (vals[2] - vals[3]) / (2 * step)
    denom = max(np.abs(fd).max(), np.abs(gx).max())
    assert np.abs(gx - fd).max() / denom < 1e-4


def test_gradients_accumulate_per_call_not_across_calls():
    # two backward passes must not sum into the same grad buffers
    r = np.random.default_rng(8)
    model = Model([ComplexDense(3, 2)])
    model.layers[0].weight = 0.5 * (r.normal(size=(2, 3)) + 1j * r.normal(size=(2, 3)))
    x = 0.5 * (r.normal(size=(4, 3)) + 1j * r.normal(size=(4, 3)))
    target = np.zeros((4, 2), dtype=complex)

    pred = model.forward(x, train=True)
    model.backward(mse_backward(pred, target))
    g1 = [g.copy() for _, g in model.grad_items()]
    pred = model.forward(x, train=True)
    model.backward(mse_backward(pred, target))
    g2 = [g.copy() for _, g in model.grad_items()]
    for a, b in zip(g1, g2):
        assert np.allclose(a, b)
