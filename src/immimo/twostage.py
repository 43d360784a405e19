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
from immimo.phy import TacTable, demap_frame


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch: int = 100
    max_epochs: int = 200
    gamma1: float = 0.05          # AAPD validation BCE target
    gamma2: float | None = None   # SE validation MSE target; None -> 1.05x ZF floor
    seed: int = 0

    def __post_init__(self):
        if self.batch < 2:
            raise ValueError("batch must be >= 2")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.gamma1 <= 0:
            raise ValueError("gamma1 must be > 0")
        if self.gamma2 is not None and self.gamma2 <= 0:
            raise ValueError("gamma2 must be > 0")


def _as_input(batch: np.ndarray) -> np.ndarray:
    """(B, rows, t) -> single-channel (B, 1, rows, t), the nets' layout."""
    batch = np.asarray(batch)
    if batch.ndim != 3 or len(batch) == 0:
        raise ValueError(f"expected a non-empty (B, rows, t) batch, got {batch.shape}")
    return batch[:, None, :, :].astype(np.complex128)


def _forward_in_chunks(net: Model, x: np.ndarray, chunk: int = 256) -> np.ndarray:
    outs = [net.forward(x[i:i + chunk], train=False) for i in range(0, len(x), chunk)]
    return np.concatenate(outs, axis=0)


@dataclass
class AapdModel:
    net: Model
    variant: str
    n_r: int
    t: int
    n_t: int

    def probabilities(self, y: np.ndarray) -> np.ndarray:
        """Receive matrices (B, n_r, t) -> activation probabilities (B, n_t)."""
        return _forward_in_chunks(self.net, _as_input(y))


@dataclass
class SeModel:
    net: Model
    variant: str
    n_u: int
    t: int

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
               conv_channels: tuple[int, int] = (32, 64),
               dense_units: tuple[int, int] = (256, 128),
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
    return AapdModel(net=Model(layers, meta=meta), variant=variant,
                     n_r=n_r, t=t, n_t=n_t)


def build_se(n_u: int, t: int, variant: str = "complex",
             channels: tuple[int, int] = (16, 16), seed: int = 0) -> SeModel:
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
    return SeModel(net=Model(layers, meta=meta), variant=variant, n_u=n_u, t=t)


def _epoch_batches(n: int, batch: int, rng: Rng):
    perm = rng.permutation(n)
    for start in range(0, n, batch):
        yield perm[start:start + batch]


def _finite(loss: float, what: str) -> float:
    if not np.isfinite(loss):
        raise FloatingPointError(f"{what} is {loss}")
    return loss


def _fit(net: Model, stage: str, train: tuple, val: tuple, loss, loss_backward,
         cfg: TrainConfig, stream: int, done, extra) -> list[dict]:
    """Adam mini-batch loop shared by both stages.

    `train`/`val` are (net input, target) pairs. Runs until done(val loss)
    or the epoch cap and leaves `net` holding the best-validation parameters
    after f32 quantization, so in-memory inference matches a saved
    checkpoint exactly. Returns one record per epoch (plus `extra` of the
    validation output) and a closing "done" record. The first non-finite
    training or validation loss raises FloatingPointError, so poisoned
    weights are never kept.
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
    # land exactly on the values a checkpoint reader will see
    net.quantize_state()
    history.append({"stage": stage, "event": "done", "best_epoch": best[2],
                    "best_val_loss": best[0], "converged": bool(done(best[0]))})
    return history


def train_aapd(aapd: AapdModel, train: tuple, val: tuple, cfg: TrainConfig,
               table: TacTable | None = None) -> list[dict]:
    """Train the AAPD net on (Y, g) pairs until validation BCE < cfg.gamma1
    or the epoch cap (see _fit). With `table`, each epoch record also holds
    the validation TAC accuracy after legalization."""
    g_va = np.asarray(val[1], dtype=np.float64)
    truth = None if table is None else tacs_from_probabilities(g_va, table)

    def tac_accuracy(p_va):
        if table is None:
            return {}
        est = tacs_from_probabilities(p_va, table)
        return {"val_tac_accuracy": float(np.mean(est == truth))}

    return _fit(aapd.net, "aapd",
                (_as_input(train[0]), np.asarray(train[1], dtype=np.float64)),
                (_as_input(val[0]), g_va), bce, bce_backward, cfg, 11,
                lambda loss: loss < cfg.gamma1, tac_accuracy)


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

    The stop target is min(gamma2, ZF floor): with gamma2 defaulting to
    1.05x the validation MSE of the raw ZF input, the floor term keeps the
    net training until it is at least as good as doing nothing.
    """
    z_va, s_va = val
    x_tr, x_va = _as_input(train[0]), _as_input(z_va)
    floor = mse(z_va, s_va)
    target = min(cfg.gamma2 if cfg.gamma2 is not None else 1.05 * floor, floor)
    history = _fit(se.net, "se", (x_tr, _as_input(train[1])),
                   (x_va, _as_input(s_va)), mse, mse_backward, cfg, 22,
                   lambda loss: loss <= target, lambda out_va: {"zf_floor": floor})
    history[-1]["zf_floor"] = floor
    return history


def train_full(train: dict, val: dict, cfg: TrainConfig, table: TacTable,
               variant: str = "complex",
               conv_channels: tuple[int, int] = (32, 64),
               dense_units: tuple[int, int] = (256, 128),
               se_channels: tuple[int, int] = (16, 16)):
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
                          cfg, table=table)
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
                  table: TacTable, constellation: QamConstellation,
                  chunk: int = 256):
    """Two-stage detection of a (B, n_r, t) batch back to payload bits.

    Runs `chunk` frames at a time through AAPD, legalization and ZF
    (build_zf_dataset, whose net passes hold at most 256 frames), then SE
    and demapping. A single frame is a batch of 1.
    Returns (bits (B, b), tac_indices (B,)).
    """
    y = np.asarray(y)
    h_est = np.asarray(h_est)
    bits, tacs = [], []
    for lo in range(0, len(y), chunk):
        s_zf, part = build_zf_dataset(aapd, y[lo:lo + chunk], h_est[lo:lo + chunk], table)
        bits.append(demap_frame(part, se.enhance(s_zf), table, constellation))
        tacs.append(part)
    return np.concatenate(bits), np.concatenate(tacs)
