"""Adam optimizer treating (real, imag) slots as independent reals."""

from __future__ import annotations

import numpy as np

from immimo.cvnn.layers import _real_view
from immimo.cvnn.model import Model


# Adam walks each tensor in blocks of this many float64 slots: its scratch
# stays small, and a block's six operands (about 1.5 MB) stay in cache
_BLOCK = 1 << 15


class Adam:
    """Standard Adam with bias correction, run in place on real slots.

    Every parameter, gradient and moment is updated through its flat
    float64 view, so a complex parameter is exactly two real parameters
    (its real and imaginary slots) and real and complex tensors share one
    code path. The moments `m` and `v` keep the parameter's dtype, so a
    complex `v` holds the real slot's second moment in v.real and the
    imaginary slot's in v.imag. The update is elementwise, so walking a
    tensor block by block through two preallocated scratch buffers gives
    the same bits as one pass over the whole tensor.

    Parameters must be float64 or complex128, the precision nets train at;
    a loaded or trained net holds float32/complex64 tensors for inference
    and step() refuses it with ValueError, since its float64 view would pair
    two f32 values into one slot.
    """

    def __init__(self, model: Model, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.model = model
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.slots = [{"m": np.zeros_like(a), "v": np.zeros_like(a)}
                      for _, a in model.param_items()]
        self._scratch = np.empty((2, _BLOCK))

    def step(self) -> None:
        """Apply one update from the gradients currently held by the layers."""
        params = self.model.param_items()
        low = [f"layer {i} {n} ({p.dtype})" for (i, n), p in params
               if p.dtype not in (np.float64, np.complex128)]
        if low:
            raise ValueError("Adam updates float64/complex128 parameters only, not "
                             + ", ".join(low) + "; a loaded or trained net holds "
                             "its inference precision")
        grads = self.model.grad_items()
        if len(grads) != len(params):
            raise RuntimeError("missing gradients; run backward first")
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for slot, (key, p), (_, g) in zip(self.slots, params, grads):
            # the flat views must alias p, m and v: reshape copies otherwise
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {key} is not C-contiguous")
            flat = [a.view(np.float64).reshape(-1) for a in (p, slot["m"], slot["v"])]
            flat.append(_real_view(g, p.dtype).reshape(-1))
            for lo in range(0, flat[0].size, _BLOCK):
                self._update(*(a[lo:lo + _BLOCK] for a in flat), c1, c2)

    def _update(self, p, m, v, g, c1: float, c2: float) -> None:
        """One Adam update of a block of real slots, in place."""
        b1, b2 = self.beta1, self.beta2
        s, u = self._scratch[:, :p.size]
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        m *= b1
        m += np.multiply(g, 1 - b1, out=s)
        v *= b2
        np.multiply(g, g, out=s)
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
        return {"step": self.step_count, "lr": self.lr, "slots": self.slots}

    def load_state(self, state: dict) -> None:
        if len(state["slots"]) != len(self.slots):
            raise ValueError("adam state mismatch")
        self.step_count = int(state["step"])
        self.lr = float(state["lr"])
        for mine, theirs in zip(self.slots, state["slots"]):
            mine["m"][...] = theirs["m"]
            mine["v"][...] = theirs["v"]
