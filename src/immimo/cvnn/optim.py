"""Adam in place on float32/complex64 parameters, (real, imag) slots as independent reals."""

from __future__ import annotations

import math
import numbers

import numpy as np

from immimo.cvnn.model import Model, _at_disk_precision


# Adam walks each tensor in blocks of this many real slots: its scratch
# stays small, and a block's operands (about 0.6 MB) stay in cache
_BLOCK = 1 << 15


class Adam:
    """Adam with bias correction in the short form of Kingma & Ba (ICLR
    2015, end of section 2), run in place on the net's own parameters.

    Built over a net, Adam replaces its parameters with their
    float32/complex64 roundings (a loaded net keeps its bytes), the
    precision a checkpoint holds, so forward, backward and update all run
    at that precision; as the net computes in float32, a wider master copy
    would buy nothing (mixed-precision training, Micikevicius et al., ICLR
    2018, keeps one for nets that compute below float32). Batch-norm
    running statistics are buffers, not parameters: they keep their
    precision, float64 for a built net, until Model.quantize_state.

    Every parameter, gradient and moment is updated through its flat
    float32 real view, so a complex parameter is exactly two real
    parameters (its real and imaginary slots) and real and complex tensors
    share one code path. `m` and `v` take the parameter's dtype, so a
    complex `v` holds the real slot's second moment in v.real and the
    imaginary slot's in v.imag. At step t, with a_t = lr sqrt(1 - b2^t) /
    (1 - b1^t) and e_t = eps sqrt(1 - b2^t), both rounded to float32:
        m += (1 - b1)(g - m);  v += (1 - b2)(g^2 - v)
        p -= a_t (m / (sqrt(v) + e_t))
    The update is elementwise, so walking a tensor block by block gives
    the same bits as one pass over the whole tensor.
    """

    # the defaults of Kingma & Ba (ICLR 2015)
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, model: Model, lr: float = 1e-3):
        self.model = model
        self.lr = lr
        self.step_count = 0
        model.set_tensors([(key, _at_disk_precision(a)) for key, a in model.param_items()])
        self.slots = [{"m": np.zeros_like(a), "v": np.zeros_like(a)}
                      for _, a in model.param_items()]
        self._scratch = np.empty(_BLOCK, dtype=np.float32)

    def step(self) -> None:
        """Apply one update from the gradients currently held by the layers."""
        params = self.model.param_items()
        grads = self.model.grad_items()
        self.step_count += 1
        root_c2 = math.sqrt(1.0 - self.beta2 ** self.step_count)
        lr_t = np.float32(self.lr * root_c2 / (1.0 - self.beta1 ** self.step_count))
        eps_t = np.float32(self.eps * root_c2)
        for slot, (key, p), (_, g) in zip(self.slots, params, grads):
            # the flat view must alias p: reshape copies otherwise
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {key} is not C-contiguous")
            if p.dtype != slot["m"].dtype:
                raise ValueError(f"parameter {key} is {p.dtype}, its moments {slot['m'].dtype}")
            flat = [np.ascontiguousarray(a, dtype=p.dtype).view(p.real.dtype).reshape(-1)
                    for a in (p, slot["m"], slot["v"], g)]
            for lo in range(0, flat[0].size, _BLOCK):
                self._update(*(a[lo:lo + _BLOCK] for a in flat), lr_t, eps_t)

    def _update(self, p, m, v, g, lr_t: np.float32, eps_t: np.float32) -> None:
        """One Adam update of a block of float32 slots p, m and v, in place,
        from the gradient slots g."""
        s = self._scratch[:p.size]
        # m += (1 - b1)(g - m)
        np.subtract(g, m, out=s)
        s *= np.float32(1 - self.beta1)
        m += s
        # v += (1 - b2)(g^2 - v)
        np.multiply(g, g, out=s)
        s -= v
        s *= np.float32(1 - self.beta2)
        v += s
        # p -= lr_t (m / (sqrt(v) + eps_t))
        np.sqrt(v, out=s)
        s += eps_t
        np.divide(m, s, out=s)
        s *= lr_t
        p -= s

    def state(self) -> dict:
        return {"step": self.step_count, "lr": self.lr, "slots": self.slots}

    def load_state(self, state: dict) -> None:
        """Take over the step count, learning rate and moments of `state`
        (from state()); ValueError, with nothing taken, when they do not
        fit this optimizer's parameters."""
        step, lr, slots = state["step"], state["lr"], state["slots"]
        if not (isinstance(step, numbers.Integral) and step >= 0):
            raise ValueError(f"adam step must be an int >= 0, got {step!r}")
        if not (isinstance(lr, numbers.Real) and math.isfinite(lr) and lr > 0):
            raise ValueError(f"adam lr must be finite and > 0, got {lr!r}")
        if len(slots) != len(self.slots):
            raise ValueError(f"adam state has {len(slots)} slots, the net {len(self.slots)}")
        for i, (mine, theirs) in enumerate(zip(self.slots, slots)):
            for k, want in mine.items():
                got = np.asarray(theirs[k])
                if (got.shape, got.dtype) != (want.shape, want.dtype):
                    raise ValueError(f"adam slot {i} {k} is {got.dtype} {got.shape}, "
                                     f"not {want.dtype} {want.shape}")
        self.step_count = int(step)
        self.lr = float(lr)
        for mine, theirs in zip(self.slots, slots):
            mine["m"][...] = theirs["m"]
            mine["v"][...] = theirs["v"]
