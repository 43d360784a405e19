"""Two-stage neural frame detector and its training pipelines.

Stage 1 (AAPD) maps the raw receive matrix Y to per-antenna activation
probabilities without any CSI. Stage 2 takes the legalized TAC, zero-forces
the symbols with the receiver's channel estimate, and passes them through a
residual enhancement net (SE) before nearest-symbol demapping.

Training is step-by-step: AAPD first, then its frozen predictions generate
the ZF dataset that trains SE. Both stages keep the best-validation
checkpoint and stop early once the validation loss target is met.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from immimo.config import CONV_CHANNELS, DENSE_UNITS, SE_CHANNELS, TrainConfig
from immimo.cvnn import (
    Adam,
    ComplexBatchNorm,
    ComplexConv2d,
    ComplexDense,
    ComplexReLU,
    Flatten,
    MergeReIm,
    Model,
    RealBatchNorm,
    RealConv2d,
    RealDense,
    RealHeadDense,
    RealReLU,
    RealSigmoid,
    Residual,
    SplitReIm,
    bce,
    bce_backward,
    mse,
    mse_backward,
)
from immimo.detectors import tacs_from_probabilities, zf_estimate
from immimo.linalg import Rng
from immimo.modulation import QamConstellation
from immimo.phy import TacTable, demap_frame, tac_accuracy


def _as_input(batch: np.ndarray) -> np.ndarray:
    """(B, rows, t) -> single-channel (B, 1, rows, t) view, the nets' layout
    (no copy: the net's first layer casts it to the net's dtype)."""
    batch = np.asarray(batch)
    if batch.ndim != 3 or len(batch) == 0:
        raise ValueError(f"expected a non-empty (B, rows, t) batch, got {batch.shape}")
    return batch[:, None, :, :]


def _joined(parts: list) -> np.ndarray:
    """The parts concatenated along axis 0; a lone part as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# frames per inference forward: bounds the activations held at once
_INFER_CHUNK = 256


def _forward_in_chunks(net: Model, x: np.ndarray) -> np.ndarray:
    return _joined([net.forward(x[i:i + _INFER_CHUNK], train=False)
                    for i in range(0, len(x), _INFER_CHUNK)])


@dataclass
class AapdModel:
    net: Model

    def probabilities(self, y: np.ndarray) -> np.ndarray:
        """Receive matrices (B, n_r, t) -> activation probabilities (B, n_t)."""
        return _forward_in_chunks(self.net, _as_input(y))


@dataclass
class SeModel:
    net: Model

    def enhance(self, s_zf: np.ndarray) -> np.ndarray:
        """ZF estimates (B, n_u, t) -> enhanced estimates (B, n_u, t)."""
        return _forward_in_chunks(self.net, _as_input(s_zf))[:, 0]


# variant -> (width factor, conv, batch norm, ReLU, dense). The real variant
# is the complex net at doubled widths, the equal-slot convention of Trabelsi
# et al., Deep Complex Networks (ICLR 2018), so both spend the same number of
# real value slots per layer; SplitReIm/MergeReIm keep its input and output
# complex.
_KITS = {
    "complex": (1, ComplexConv2d, ComplexBatchNorm, ComplexReLU, ComplexDense),
    "real": (2, RealConv2d, RealBatchNorm, RealReLU, RealDense),
}


def _kit(variant: str) -> tuple:
    if variant not in _KITS:
        raise ValueError(f"variant must be 'complex' or 'real', got {variant!r}")
    return _KITS[variant]


def build_aapd(n_r: int, t: int, n_t: int, variant: str = "complex",
               conv_channels: tuple[int, int] = CONV_CHANNELS,
               dense_units: tuple[int, int] = DENSE_UNITS,
               seed: int = 0) -> AapdModel:
    """Activation-pattern detector: two conv blocks, two dense blocks, real
    sigmoid readout of length n_t.

    Widths are given in complex units; the real variant doubles them so both
    variants spend the same number of real value slots per layer.
    """
    if min(n_r, t, n_t) < 1:
        raise ValueError("dims must be >= 1")
    w, conv, norm, relu, dense = _kit(variant)
    c1, c2 = conv_channels
    d1, d2 = dense_units
    rng = Rng(seed).derive(101)
    layers = [
        conv(w, w * c1, 3, "same", rng=rng.derive(0)),
        norm(w * c1),
        relu(),
        conv(w * c1, w * c2, 3, "same", rng=rng.derive(1)),
        norm(w * c2),
        relu(),
        Flatten(),
        dense(w * c2 * n_r * t, w * d1, rng=rng.derive(2)),
        relu(),
        dense(w * d1, w * d2, rng=rng.derive(3)),
        relu(),
        RealHeadDense(2 * d2, n_t, rng=rng.derive(4)),
        RealSigmoid(),
    ]
    if variant == "real":
        layers.insert(0, SplitReIm())
    meta = {"role": "aapd", "variant": variant, "n_r": n_r, "t": t, "n_t": n_t,
            "conv_channels": list(conv_channels), "dense_units": list(dense_units)}
    return AapdModel(net=Model(layers, meta=meta))


def build_se(n_u: int, t: int, variant: str = "complex",
             channels: tuple[int, int] = SE_CHANNELS, seed: int = 0) -> SeModel:
    """Signal-enhancement net: residual conv stack on the (n_u, t) estimate."""
    if min(n_u, t) < 1:
        raise ValueError("dims must be >= 1")
    w, conv, _, relu, _ = _kit(variant)
    c1, c2 = channels
    rng = Rng(seed).derive(202)
    layers = [Residual([
        conv(w, w * c1, 3, "same", rng=rng.derive(0)),
        relu(),
        conv(w * c1, w * c2, 3, "same", rng=rng.derive(1)),
        relu(),
        conv(w * c2, w, 3, "same", rng=rng.derive(2)),
    ])]
    if variant == "real":
        layers = [SplitReIm(), *layers, MergeReIm()]
    meta = {"role": "se", "variant": variant, "n_u": n_u, "t": t,
            "channels": list(channels)}
    return SeModel(net=Model(layers, meta=meta))


def _epoch_batches(n: int, batch: int, rng: Rng) -> list[np.ndarray]:
    """One epoch's shuffled minibatches of `batch` indices, covering range(n)
    once; a last batch of one frame joins the batch before it, as train-mode
    batch norm needs two frames."""
    cuts = list(range(batch, n, batch))
    if cuts and n - cuts[-1] == 1:
        cuts.pop()
    return np.split(rng.permutation(n), cuts)


def _finite(loss: float, what: str) -> float:
    if not np.isfinite(loss):
        raise FloatingPointError(f"{what} is {loss}")
    return loss


def _fit(net: Model, stage: str, train: tuple, val: tuple, loss, loss_backward,
         cfg: TrainConfig, stream: int, done, extra) -> list[dict]:
    """Adam mini-batch loop shared by both stages.

    `train`/`val` are (net input, target) pairs. Training and its
    validation passes run at checkpoint precision (float32/complex64):
    Adam rounds `net`'s parameters to it and updates them in place, and
    validation reads the batch-norm running statistics (accumulated at
    float64) rounded as a checkpoint holds them, so each validation loss,
    and so the best-epoch pick, judges exactly the net a checkpoint of that
    epoch holds. Runs until done(val loss) or the epoch cap and leaves
    `net` holding the best-validation tensors at checkpoint precision
    (Model.quantize_state), the net a reader of its checkpoint loads.
    Returns one record per epoch (plus `extra` of the validation output)
    and a closing "done" record whose `stop_reason` is "target" when the
    best validation loss met done() and "epoch_cap" otherwise. The first
    non-finite training or validation loss raises FloatingPointError, so
    poisoned weights are never kept.
    """
    (x_tr, t_tr), (x_va, t_va) = train, val
    opt = Adam(net, lr=cfg.lr)
    rng = Rng(cfg.seed).derive(stream)
    history = []
    best = (np.inf, None, -1)
    for epoch in range(cfg.max_epochs):
        t0 = time.monotonic()
        tr_loss = 0.0
        nb = 0
        for sel in _epoch_batches(len(x_tr), cfg.batch, rng.derive(epoch)):
            out = net.forward(x_tr[sel], train=True)
            tb = t_tr[sel]
            tr_loss += _finite(loss(out, tb), f"{stage} training loss, epoch {epoch}")
            nb += 1
            net.backward(loss_backward(out, tb))
            opt.step()
        out_va = _forward_in_chunks(net, x_va)
        va_loss = _finite(loss(out_va, t_va), f"{stage} validation loss, epoch {epoch}")
        history.append({"stage": stage, "epoch": epoch, "train_loss": tr_loss / max(nb, 1),
                        "val_loss": va_loss, "seconds": time.monotonic() - t0,
                        **extra(out_va)})
        if va_loss < best[0]:
            best = (va_loss, net.state_arrays(), epoch)
        if done(va_loss):
            break
    if best[1] is not None:
        net.load_state_arrays(best[1])
    # become exactly the net a checkpoint reader loads
    net.quantize_state()
    converged = bool(done(best[0]))
    history.append({"stage": stage, "event": "done", "best_epoch": best[2],
                    "best_val_loss": best[0], "converged": converged,
                    "stop_reason": "target" if converged else "epoch_cap"})
    return history


def train_aapd(aapd: AapdModel, train: tuple, val: tuple, cfg: TrainConfig,
               table: TacTable) -> list[dict]:
    """Train the AAPD net on (Y, g) pairs until validation BCE < cfg.gamma1
    or the epoch cap (see _fit). Each epoch record also holds the validation
    TAC accuracy after legalization by `table` (phy.tac_accuracy)."""
    g_va = np.asarray(val[1], dtype=np.float64)

    def val_tac_accuracy(p_va):
        return {"val_tac_accuracy": tac_accuracy(tacs_from_probabilities(p_va, table),
                                                 g_va, table)}

    return _fit(aapd.net, "aapd",
                (_as_input(train[0]), np.asarray(train[1], dtype=np.float64)),
                (_as_input(val[0]), g_va), bce, bce_backward, cfg, 11,
                lambda loss: loss < cfg.gamma1, val_tac_accuracy)


def build_zf_dataset(aapd: AapdModel, y: np.ndarray, h_est: np.ndarray,
                     table: TacTable) -> tuple[np.ndarray, np.ndarray]:
    """ZF symbol estimates from the frozen AAPD's TAC decisions.

    Returns (s_zf, tac_indices); s_zf rows follow ascending antenna order
    within each predicted TAC.
    """
    tacs = tacs_from_probabilities(aapd.probabilities(y), table)
    return zf_estimate(y, h_est, table.cols[tacs]), tacs


def train_se(se: SeModel, train: tuple, val: tuple, cfg: TrainConfig) -> list[dict]:
    """Train the SE net on (s_zf, s_true) pairs (see _fit).

    The stop target is the ZF floor, the validation MSE of the raw ZF
    input, or gamma2 when that is lower: the net trains until it is at
    least as good as doing nothing.
    """
    z_va, s_va = val
    x_tr, x_va = _as_input(train[0]), _as_input(z_va)
    floor = mse(z_va, s_va)
    target = floor if cfg.gamma2 is None else min(cfg.gamma2, floor)
    history = _fit(se.net, "se", (x_tr, _as_input(train[1])),
                   (x_va, _as_input(s_va)), mse, mse_backward, cfg, 22,
                   lambda loss: loss <= target, lambda out_va: {"zf_floor": floor})
    history[-1]["zf_floor"] = floor
    return history


def train_full(train: dict, val: dict, cfg: TrainConfig, table: TacTable,
               variant: str = "complex",
               conv_channels: tuple[int, int] = CONV_CHANNELS,
               dense_units: tuple[int, int] = DENSE_UNITS,
               se_channels: tuple[int, int] = SE_CHANNELS):
    """Step-by-step training of both stages.

    `train`/`val` are dicts with keys y (B, n_r, t), g (B, n_t), s (B, n_u, t),
    h_est (B, n_r, n_t). Stage 1 trains AAPD on (y, g); stage 2 builds the ZF
    dataset with the frozen AAPD and trains SE on (s_zf, s).
    Returns (aapd, se, history).
    """
    y_tr = np.asarray(train["y"])
    n_r, t = y_tr.shape[1], y_tr.shape[2]
    aapd = build_aapd(n_r, t, table.n_t, variant=variant,
                      conv_channels=conv_channels, dense_units=dense_units,
                      seed=cfg.seed)
    history = [{"stage": "aapd", "event": "start", "time": time.time()}]
    history += train_aapd(aapd, (train["y"], train["g"]), (val["y"], val["g"]),
                          cfg, table)
    history.append({"stage": "aapd", "event": "frozen", "time": time.time()})
    z_tr, _ = build_zf_dataset(aapd, np.asarray(train["y"]),
                               np.asarray(train["h_est"]), table)
    z_va, _ = build_zf_dataset(aapd, np.asarray(val["y"]),
                               np.asarray(val["h_est"]), table)
    se = build_se(table.n_u, t, variant=variant, channels=se_channels, seed=cfg.seed)
    history.append({"stage": "se", "event": "start", "time": time.time()})
    history += train_se(se, (z_tr, train["s"]), (z_va, val["s"]), cfg)
    history.append({"stage": "se", "event": "done_all", "time": time.time()})
    return aapd, se, history


def detect_frames(y: np.ndarray, h_est: np.ndarray, aapd: AapdModel, se: SeModel,
                  table: TacTable, constellation: QamConstellation):
    """Two-stage detection of a (B, n_r, t) batch back to payload bits.

    AAPD, legalization and ZF (build_zf_dataset), then SE and demapping,
    each over the whole batch; the nets run _INFER_CHUNK frames at a time.
    A single frame is a batch of 1: the same code path, but not always the
    same bytes, since the dense layers' GEMMs round differently at other
    row counts (_DenseBase). A frame's AAPD probabilities can differ by 1-2
    f4 ulps between a batch of 1 and a larger batch, so only a near-tie
    top-N_u decision can flip.
    Returns (bits (B, b), tac_indices (B,)).
    """
    s_zf, tacs = build_zf_dataset(aapd, y, h_est, table)
    return demap_frame(tacs, se.enhance(s_zf), table, constellation), tacs
