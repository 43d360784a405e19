"""Independent reference detectors for the benchmark's output checks.

These re-derive exhaustive ML and SOMP + legalization + ZF from their
definitions, vectorized over frames with plain numpy. They share no code
with the package, and they sum in a different order, so package results
are compared with a tolerance rather than bit for bit (see TOLERANCE).
"""

from __future__ import annotations

import numpy as np

# Near-tie decisions may flip when floating-point sums are reordered. Each
# flipped frame moves TAC accuracy by 1/N and BER by at most 1/N, so allow
# two frames' worth of difference.
TOLERANCE_FRAMES = 2


def _labels_to_bits(labels: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    shifts = np.arange(bits_per_symbol - 1, -1, -1)
    return (labels[..., None] >> shifts) & 1


def _frame_bits(tac_index: np.ndarray, labels: np.ndarray, b1: int,
                bits_per_symbol: int) -> np.ndarray:
    """Payload bits from TAC indices (N,) and symbol labels (N, t, n_u)."""
    head = (tac_index[:, None] >> np.arange(b1 - 1, -1, -1)) & 1
    body = _labels_to_bits(labels, bits_per_symbol).reshape(len(labels), -1)
    return np.concatenate([head, body], axis=1)


def _nearest_labels(points: np.ndarray, s: np.ndarray) -> np.ndarray:
    return np.argmin(np.abs(s[..., None] - points) ** 2, axis=-1)


def _scores(bits_true, bits_hat, g, tac_masks, tac_index) -> dict:
    acc = float(np.mean((tac_masks[tac_index] == (np.asarray(g) > 0)).all(axis=1)))
    return {"ber": float(np.mean(np.asarray(bits_true) != bits_hat)),
            "aap_accuracy": acc}


def _tac_masks(tacs, n_t: int) -> np.ndarray:
    masks = np.zeros((len(tacs), n_t), dtype=bool)
    for i, tac in enumerate(tacs):
        masks[i, [a - 1 for a in tac]] = True
    return masks


def ml_reference(data: dict, tacs, points: np.ndarray) -> dict:
    """Exhaustive ML by direct residual norms; ties keep the first TAC and
    the first hypothesis in grid order, as the package documents."""
    y, h = data["y"], data["h_est"]
    n, n_r, t = y.shape
    n_u = len(tacs[0])
    m = len(points)
    grid_labels = np.indices((m,) * n_u).reshape(n_u, -1)          # (n_u, K)
    grid = points[grid_labels]
    best = np.full(n, np.inf)
    best_tac = np.zeros(n, dtype=np.int64)
    best_k = np.zeros((n, t), dtype=np.int64)
    for ti, tac in enumerate(tacs):
        v = h[:, :, [a - 1 for a in tac]] @ grid                    # (N, n_r, K)
        d = np.sum(np.abs(y[:, :, :, None] - v[:, :, None, :]) ** 2, axis=1)  # (N, t, K)
        k = np.argmin(d, axis=2)
        cost = np.take_along_axis(d, k[:, :, None], axis=2)[:, :, 0].sum(axis=1)
        better = cost < best
        best = np.where(better, cost, best)
        best_tac[better] = ti
        best_k[better] = k[better]
    labels = grid_labels.T[best_k]                                  # (N, t, n_u)
    b1 = len(tacs).bit_length() - 1
    bits = _frame_bits(best_tac, labels, b1, int(np.log2(m)))
    return _scores(data["bits"], bits, data["g"], _tac_masks(tacs, h.shape[2]), best_tac)


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched least squares through the normal equations."""
    ah = np.conj(np.swapaxes(a, 1, 2))
    return np.linalg.solve(ah @ a, ah @ b)


def somp_reference(data: dict, tacs, points: np.ndarray) -> dict:
    """SOMP support, legalization by maximal overlap (first entry on ties),
    then ZF on the legal support and nearest-point demapping."""
    y, h = data["y"], data["h_est"]
    n, n_r, t = y.shape
    n_t = h.shape[2]
    n_u = len(tacs[0])
    rows = np.arange(n)
    norms = np.linalg.norm(h, axis=1)                               # (N, n_t)
    chosen = np.zeros((n, n_t), dtype=bool)
    order = []
    r = y
    for _ in range(n_u):
        corr = np.abs(np.conj(np.swapaxes(h, 1, 2)) @ r).sum(axis=2) / norms
        corr[chosen] = -np.inf
        k = np.argmax(corr, axis=1)
        chosen[rows, k] = True
        order.append(k)
        sub = h[rows[:, None], :, np.stack(order, axis=1)]          # (N, i, n_r)
        sub = np.swapaxes(sub, 1, 2)
        r = y - sub @ _lstsq(sub, y)
    masks = _tac_masks(tacs, n_t)
    overlap = chosen.astype(np.int64) @ masks.T.astype(np.int64)    # (N, n_l)
    tac_index = np.argmax(overlap, axis=1)
    cols = np.array([[a - 1 for a in tac] for tac in tacs])[tac_index]  # (N, n_u)
    sub = np.swapaxes(h[rows[:, None], :, cols], 1, 2)              # (N, n_r, n_u)
    s = _lstsq(sub, y)                                              # (N, n_u, t)
    labels = _nearest_labels(points, np.swapaxes(s, 1, 2))          # (N, t, n_u)
    b1 = len(tacs).bit_length() - 1
    bits = _frame_bits(tac_index, labels, b1, int(np.log2(len(points))))
    return _scores(data["bits"], bits, data["g"], masks, tac_index)


def agrees(result: dict, reference: dict, frames: int) -> bool:
    """Package result within TOLERANCE_FRAMES frames of the reference."""
    tol = TOLERANCE_FRAMES / frames
    return (abs(result["ber"] - reference["ber"]) <= tol
            and abs(result["aap_accuracy"] - reference["aap_accuracy"]) <= tol)
