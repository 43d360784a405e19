"""Classical frame detectors: exhaustive ML, SOMP support recovery, ZF.

All detectors see the receiver-side channel estimate only. Frame-level
structure (one TAC across all T slots) is exploited everywhere: ML sums
per-slot minima per TAC, SOMP correlates residuals across all slots.
"""

from __future__ import annotations

import itertools

import numpy as np

from immimo.linalg import ls_solve
from immimo.modulation import QamConstellation
from immimo.phy import TacTable, demap_frame


def _symbol_grid(constellation: QamConstellation, n_u: int) -> np.ndarray:
    """All M^n_u symbol combinations as columns, (n_u, M^n_u)."""
    m = constellation.m
    idx = np.indices((m,) * n_u).reshape(n_u, -1)
    return constellation.points[idx]


def ml_detect(y: np.ndarray, h: np.ndarray, table: TacTable,
              constellation: QamConstellation):
    """Exhaustive maximum-likelihood frame detection.

    For every legal TAC, scores all M^N_u symbol hypotheses per slot and
    sums the per-slot minima; returns (tac_index, s_hat) for the smallest
    frame residual. Ties keep the lowest TAC index and, per slot, the first
    symbol combination in grid order.
    """
    y = np.asarray(y, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    grid = _symbol_grid(constellation, table.n_u)  # (n_u, K)
    y_energy = np.sum(np.abs(y) ** 2, axis=0)      # (t,)
    best_cost = np.inf
    best = None
    for ti, tac in enumerate(table.tacs):
        v = h[:, [a - 1 for a in tac]] @ grid                       # (n_r, K)
        g = np.sum(np.abs(v) ** 2, axis=0)                          # (K,)
        cross = y.conj().T @ v                                      # (t, K)
        d = y_energy[:, None] - 2.0 * cross.real + g[None, :]       # (t, K)
        kmin = np.argmin(d, axis=1)
        cost = float(d[np.arange(d.shape[0]), kmin].sum())
        if cost < best_cost:
            best_cost = cost
            best = (ti, grid[:, kmin])
    return best[0], best[1]


def somp_detect(y: np.ndarray, h: np.ndarray, n_u: int) -> tuple[int, ...]:
    """Simultaneous OMP support recovery over the frame.

    Greedy: N_u rounds of picking the column maximizing the residual
    correlation summed over slots, normalized by column norm, followed by a
    least-squares re-projection on the chosen set. Returns the sorted
    1-based support (not necessarily a legal TAC).
    """
    y = np.asarray(y, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    norms = np.linalg.norm(h, axis=0)
    if np.any(norms == 0):
        raise ValueError("channel matrix has a zero column")
    chosen: list[int] = []
    r = y
    for _ in range(n_u):
        scores = np.sum(np.abs(h.conj().T @ r), axis=1) / norms
        scores[chosen] = -np.inf
        k = int(np.argmax(scores))  # ties: lowest index wins
        chosen.append(k)
        sub = h[:, chosen]
        s = ls_solve(sub, y)
        r = y - sub @ s
    return tuple(sorted(a + 1 for a in chosen))


def legalize_support(support, table: TacTable) -> int:
    """Index of the legal TAC with maximal overlap with `support`.

    Exact matches map to their own index; otherwise ties break toward the
    earliest table entry.
    """
    sup = set(support)
    if tuple(sorted(sup)) in table:
        return table.index_of(tuple(sorted(sup)))
    overlaps = [len(sup & set(t)) for t in table.tacs]
    return int(np.argmax(overlaps))


def zf_estimate(y: np.ndarray, h: np.ndarray, support) -> np.ndarray:
    """Zero-forcing symbol estimate on a fixed support.

    Solves min ||H_J S - Y|| over S, i.e. S = (H_J^H H_J)^-1 H_J^H Y, rows in
    ascending antenna order.
    """
    cols = sorted(support)
    sub = np.asarray(h, dtype=np.complex128)[:, [a - 1 for a in cols]]
    return ls_solve(sub, np.asarray(y, dtype=np.complex128))


def zf_matrix(h: np.ndarray, support) -> np.ndarray:
    """Explicit ZF combiner W = (H_J^H H_J)^-1 H_J^H, shape (n_u, n_r)."""
    cols = sorted(support)
    sub = np.asarray(h, dtype=np.complex128)[:, [a - 1 for a in cols]]
    return ls_solve(sub, np.eye(sub.shape[0], dtype=np.complex128))


def classical_detect(y, h_est, table: TacTable, constellation: QamConstellation,
                     method: str):
    """Run one classical detector; returns (tac_index, s_hat)."""
    if method == "ml":
        return ml_detect(y, h_est, table, constellation)
    if method == "somp":
        support = somp_detect(y, h_est, table.n_u)
        ti = legalize_support(support, table)
        return ti, zf_estimate(y, h_est, table.tacs[ti])
    raise ValueError(f"unknown method {method!r}")


def classical_pipeline(y, h_est, table: TacTable, constellation: QamConstellation,
                       method: str) -> np.ndarray:
    """Detect a frame and demap back to payload bits."""
    ti, s_hat = classical_detect(y, h_est, table, constellation, method)
    return demap_frame(ti, s_hat, table, constellation)
