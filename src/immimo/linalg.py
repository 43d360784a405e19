"""Complex linear algebra substrate and deterministic random numbers.

Everything downstream (channel draws, noise, weight init, batch shuffling)
goes through `Rng`, which is a counter-based generator with an explicit
`derive` tree, so any frame/layer/epoch stream can be regenerated in
isolation and results do not depend on call order elsewhere.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox

_MASK64 = (1 << 64) - 1


class SingularMatrixError(Exception):
    """Least-squares system is rank deficient (or numerically so)."""


class DecompositionError(Exception):
    """Matrix factorization failed (e.g. Cholesky on a non-PD input)."""


def _splitmix64(x: int) -> int:
    # Standard splitmix64 finalizer; good avalanche for stream derivation.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class Rng:
    """Deterministic counter-based RNG.

    Raw 64-bit blocks come from the Philox 4x64 counter cipher; every
    conversion on top (uniforms, Box-Muller normals, bits) is done here so
    that identical seeds give identical streams on any platform.
    """

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self._seed = seed & _MASK64
        self._stream = stream & _MASK64
        key = np.array([self._seed, self._stream], dtype=np.uint64)
        self._bitgen = Philox(key=key)

    def derive(self, *indices: int) -> "Rng":
        """Child generator for a nested index path (frame, layer, epoch, ...).

        Children are independent of the parent's consumption state; deriving
        the same path twice gives identical streams.
        """
        h = self._stream
        for ix in indices:
            h = _splitmix64(h ^ ((int(ix) + 1) & _MASK64))
        h = _splitmix64(h ^ self._seed)
        return Rng(self._seed, h)

    def raw(self, n: int) -> np.ndarray:
        """Next n raw uint64 blocks."""
        return self._bitgen.random_raw(n)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]; the open-at-zero side keeps log() safe."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on own uniforms."""
        pairs = (n + 1) // 2
        u = self.uniform(2 * pairs)
        u1, u2 = u[:pairs], u[pairs:]
        r = np.sqrt(-2.0 * np.log(u1))
        ang = 2.0 * np.pi * u2
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(ang)
        z[1::2] = r * np.sin(ang)
        return z[:n]

    def bits(self, n: int) -> np.ndarray:
        """n unbiased {0,1} ints (one per raw block bit, msb-major)."""
        blocks = (n + 63) // 64
        raw = self.raw(blocks)
        b = np.unpackbits(raw.view(np.uint8).reshape(blocks, 8)[:, ::-1], axis=1)
        return b.reshape(-1)[:n].astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n)."""
        return np.argsort(self.raw(n), kind="stable")

    def symmetric_uniform(self, shape) -> np.ndarray:
        """Uniform on (-1, 1], any shape."""
        n = int(np.prod(shape))
        return (self.uniform(n) * 2.0 - 1.0).reshape(shape)


def complex_gaussian(rng: Rng, rows: int, cols: int, variance: float) -> np.ndarray:
    """(rows, cols) i.i.d. CN(0, variance) draws.

    Total per-entry variance is `variance` (split evenly re/im). Entries are
    filled row-major, consuming consecutive (re, im) normal pairs, so a given
    stream always yields the same matrix.
    """
    if variance < 0:
        raise ValueError("variance must be >= 0")
    n = rows * cols
    if variance == 0:
        return np.zeros((rows, cols), dtype=np.complex128)
    z = rng.normals(2 * n)
    scale = np.sqrt(variance / 2.0)
    out = scale * (z[0::2] + 1j * z[1::2])
    return out.reshape(rows, cols)


def ls_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solve min_X ||A X - B||_F for complex A (m x n), m >= n.

    Also solves a stack: A (B, m, n) with B (B, m, k) or (B, m), one system
    per leading index. Uses a reduced QR factorization of each matrix;
    raises SingularMatrixError when any A is rank deficient (tiny R diagonal
    relative to that matrix's largest one).
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim not in (2, 3):
        raise ValueError(f"a must be (m, n) or (B, m, n), got shape {a.shape}")
    squeeze = b.ndim == a.ndim - 1
    if squeeze:
        b = b[..., None]
    m, n = a.shape[-2:]
    if m < n:
        raise ValueError(f"need rows >= cols, got {m} x {n}")
    if b.shape[:-1] != a.shape[:-1]:
        raise ValueError(f"a {a.shape} and b {b.shape} row counts differ")
    q, r = np.linalg.qr(a, mode="reduced")
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    if n == 0 or np.any(diag.min(axis=-1) <= 1e-12 * np.maximum(diag.max(axis=-1), 1e-300)):
        raise SingularMatrixError("rank-deficient least-squares system")
    x = np.linalg.solve(r, np.swapaxes(q.conj(), -1, -2) @ b)
    return x[..., 0] if squeeze else x


def cholesky_factor(r: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^H = R for Hermitian positive-definite R."""
    r = np.asarray(r, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("r must be square")
    if not np.allclose(r, r.conj().T, rtol=1e-10, atol=1e-12):
        raise ValueError("r must be Hermitian")
    try:
        return np.linalg.cholesky(r)
    except np.linalg.LinAlgError as e:
        raise DecompositionError(f"not positive definite: {e}") from e
