"""Classical frame detectors: exhaustive ML, SOMP support recovery, ZF.

All detectors see the receiver-side channel estimate only and work on
batches of frames: y (B, n_r, t), h (B, n_r, n_t); a single frame is a
batch of 1. Frame-level structure (one TAC across all T slots) is exploited
everywhere: ML sums per-slot minima per TAC, SOMP correlates residuals
across all slots. Supports are 0-based antenna columns, as in
`TacTable.cols`.
"""

from __future__ import annotations

import numpy as np

from immimo.linalg import ls_solve
from immimo.modulation import QamConstellation
from immimo.phy import TacTable

# Cap on the elements of one ML chunk's (frames, t, M^N_u) cost array; a
# chunk always holds at least one frame.
ML_CHUNK_ELEMENTS = 1 << 20


def _symbol_grid(constellation: QamConstellation, n_u: int) -> np.ndarray:
    """All M^n_u symbol combinations as columns, (n_u, M^n_u)."""
    m = constellation.m
    idx = np.indices((m,) * n_u).reshape(n_u, -1)
    return constellation.points[idx]


def ml_detect(y: np.ndarray, h: np.ndarray, table: TacTable,
              constellation: QamConstellation):
    """Exhaustive maximum-likelihood detection of a batch of frames.

    For every legal TAC, scores all M^N_u symbol hypotheses per slot and
    sums the per-slot minima; returns (tac_indices (B,), s_hat (B, n_u, t))
    for the smallest frame residuals. Ties keep the lowest TAC index and,
    per slot, the first symbol combination in grid order. Frames are
    scored ML_CHUNK_ELEMENTS cost entries at a time.
    """
    y = np.asarray(y, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    grid = _symbol_grid(constellation, table.n_u)  # (n_u, K)
    chunk = max(1, ML_CHUNK_ELEMENTS // (y.shape[2] * grid.shape[1]))
    tacs = np.zeros(len(y), dtype=np.int64)
    kbest = np.zeros((len(y), y.shape[2]), dtype=np.intp)
    for lo in range(0, len(y), chunk):
        yc, hc = y[lo:lo + chunk], h[lo:lo + chunk]
        y_energy = np.sum(np.abs(yc) ** 2, axis=1)                      # (b, t)
        y_conj_t = np.swapaxes(yc.conj(), 1, 2)                          # (b, t, n_r)
        best_cost = np.full(len(yc), np.inf)
        for ti, tac_cols in enumerate(table.cols):
            v = hc[:, :, tac_cols] @ grid                                # (b, n_r, K)
            g = np.sum(np.abs(v) ** 2, axis=1)                           # (b, K)
            d = y_energy[:, :, None] - 2.0 * (y_conj_t @ v).real + g[:, None, :]
            kmin = np.argmin(d, axis=2)                                  # (b, t)
            cost = np.take_along_axis(d, kmin[:, :, None], axis=2)[:, :, 0].sum(axis=1)
            better = cost < best_cost
            best_cost[better] = cost[better]
            tacs[lo:lo + chunk][better] = ti
            kbest[lo:lo + chunk][better] = kmin[better]
    return tacs, np.moveaxis(grid[:, kbest], 0, 1)


def somp_supports(y: np.ndarray, h: np.ndarray, n_u: int) -> np.ndarray:
    """Simultaneous OMP support recovery over a batch of frames.

    Greedy: N_u rounds of picking, per frame, the column maximizing the
    residual correlation summed over slots, normalized by column norm
    (ties: lowest index), followed by a least-squares re-projection on the
    chosen set. Returns (B, n_u) sorted 0-based columns, not necessarily a
    legal TAC. A zero column is a ValueError; a rank-deficient chosen set
    in any frame a SingularMatrixError.
    """
    y = np.asarray(y, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    norms = np.linalg.norm(h, axis=1)                                    # (B, n_t)
    if np.any(norms == 0):
        raise ValueError("channel matrix has a zero column")
    h_conj_t = np.swapaxes(h.conj(), 1, 2)                               # (B, n_t, n_r)
    chosen = np.zeros((len(y), n_u), dtype=np.intp)                      # in pick order
    r = y
    for k in range(n_u):
        scores = np.sum(np.abs(h_conj_t @ r), axis=2) / norms            # (B, n_t)
        np.put_along_axis(scores, chosen[:, :k], -np.inf, axis=1)
        chosen[:, k] = scores.argmax(axis=1)
        sub = np.take_along_axis(h, chosen[:, None, :k + 1], axis=2)     # (B, n_r, k + 1)
        r = y - sub @ ls_solve(sub, y)
    return np.sort(chosen, axis=1)


def tacs_from_probabilities(p: np.ndarray, table: TacTable) -> np.ndarray:
    """Legalized TAC index for each row of a (B, n_t) score batch.

    A row's top-N_u antennas (ties toward the lower antenna) give its TAC
    when that set is legal; otherwise the legal TAC with the largest
    score sum wins, ties toward the earliest table entry. Each sum adds its
    TAC's entries in ascending antenna order, so rounding settles near-ties
    the same way for every N_u. Rows are AAPD activation probabilities or
    0/1 support indicators (for which the sum is the overlap count).
    """
    p = np.asarray(p, dtype=np.float64)
    top = np.argsort(-p, axis=1, kind="stable")[:, :table.n_u]
    chosen = np.zeros(p.shape, dtype=bool)
    np.put_along_axis(chosen, top, True, axis=1)
    hit = chosen[:, table.cols].all(axis=2)  # (B, n_l): the top set is this TAC
    sums = p[:, table.cols].sum(axis=2)      # (B, n_l)
    return np.where(hit.any(axis=1), hit.argmax(axis=1), sums.argmax(axis=1))


def zf_estimate(y: np.ndarray, h: np.ndarray, cols) -> np.ndarray:
    """Zero-forcing symbol estimates of a batch on fixed supports.

    cols (B, n_u) holds each frame's 0-based antenna columns, usually
    `table.cols[tac_indices]`. Solves min ||H_J S - Y|| per frame, i.e.
    S = (H_J^H H_J)^-1 H_J^H Y, with rows in the order of `cols`; returns
    (B, n_u, t). With Y = I it is the explicit ZF combiner W (n_u, n_r).
    """
    sub = np.take_along_axis(np.asarray(h), np.asarray(cols)[:, None, :], axis=2)
    return ls_solve(sub, y)


def classical_detect(y, h_est, table: TacTable, constellation: QamConstellation,
                     method: str):
    """Run one classical detector on a batch of frames; returns
    (tac_indices (B,), s_hat (B, n_u, t)).

    SOMP searches every frame's support at once, legalizes the supports as
    0/1 indicator rows and zero-forces on the legal TACs.
    """
    if method == "ml":
        return ml_detect(y, h_est, table, constellation)
    if method == "somp":
        support = np.zeros((len(y), table.n_t))
        np.put_along_axis(support, somp_supports(y, h_est, table.n_u), 1.0, axis=1)
        tacs = tacs_from_probabilities(support, table)
        return tacs, zf_estimate(y, h_est, table.cols[tacs])
    raise ValueError(f"unknown method {method!r}")
