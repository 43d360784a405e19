"""Adam with float64 master weights, treating (real, imag) slots as independent reals."""

from __future__ import annotations

import numpy as np

from immimo.cvnn.layers import _real_view
from immimo.cvnn.model import Model, _at_disk_precision


# Adam walks each tensor in blocks of this many real slots: its scratch
# stays small, and a block's operands (about 1.8 MB) stay in cache
_BLOCK = 1 << 15


def _master(a: np.ndarray) -> np.ndarray:
    """A C-contiguous float64 (complex128) copy of `a`, exact from f32/c8."""
    return np.array(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64,
                    order="C")


class Adam:
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
            low, g = (_real_view(a, master.dtype).reshape(-1) for a in (p, g))
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
