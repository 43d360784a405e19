"""Complex linear algebra substrate and deterministic random numbers.

Everything downstream (channel draws, noise, weight init, batch shuffling)
draws from Philox4x64-10 streams keyed by (seed, stream word). A stream word
comes from a splitmix64 `derive` tree, so any frame/layer/epoch stream can be
regenerated in isolation and results do not depend on call order elsewhere.

`Rng` is the scalar API: one stream, consumed in order. The frame axis has
its own path to the same numbers. `derive_stream` runs the derive tree over
uint64 index arrays, `philox_raw` returns the first raw blocks of many
streams at once (bit for bit what `numpy.random.Philox(key=[seed, stream])`
gives), and the conversions to uniforms, normals, bits and CN(0, var)
entries are module functions over the last axis that `Rng` uses too.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# Philox4x64-10 round multipliers and Weyl key increments (Random123)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


class SingularMatrixError(Exception):
    """Least-squares system is rank deficient (or numerically so)."""


def _splitmix64(x):
    # Standard splitmix64 finalizer; good avalanche for stream derivation.
    # Exact on Python ints, wrapping on uint64 arrays: the same words.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_stream(seed, stream, *indices):
    """Stream word of the child at a nested index path (frame, layer, ...).

    Takes Python ints (masked to 64 bits) or uint64 arrays, which
    broadcast: `derive_stream(s, 0, k, frames)` is the stream of every
    `Rng(s).derive(k, i)` for i in `frames` at once.
    """
    h = stream
    # uint64 arrays wrap silently, but numpy uint64 scalars warn on wraparound
    with np.errstate(over="ignore"):
        for ix in indices:
            h = _splitmix64(h ^ ((ix + 1) & _MASK64))
        return _splitmix64(h ^ (seed & _MASK64))


def _mulhilo(a: np.ndarray, m: int):
    """(low, high) 64-bit words of the 128-bit product a * m, via 32-bit limbs."""
    m_lo, m_hi = m & _MASK32, m >> 32
    a_lo, a_hi = a & _MASK32, a >> 32
    # no partial sum below can pass 2**64 - 1
    u = a_hi * m_lo
    u += (a_lo * m_lo) >> 32
    w = a_lo * m_hi
    w += u & _MASK32
    hi = a_hi * m_hi
    hi += u >> 32
    hi += w >> 32
    return a * m, hi


def philox_raw(seed, streams, n: int) -> np.ndarray:
    """(R, n) uint64: the first n raw blocks of Philox4x64-10 keyed
    [seed, stream] for each of the R `streams` (`seed` an int or a
    matching array), bit for bit `Philox(key=[seed, stream]).random_raw(n)`.

    Counter word 0 runs 1..ceil(n/4) with the other words 0, and each
    counter yields 4 blocks, as numpy's generator does.
    """
    streams = np.asarray(streams, dtype=np.uint64).reshape(-1, 1)
    k0 = np.broadcast_to(np.asarray(seed & _MASK64, dtype=np.uint64).reshape(-1, 1),
                         streams.shape)
    k1 = streams
    counters = (n + 3) // 4
    c0 = np.broadcast_to(np.arange(1, counters + 1, dtype=np.uint64),
                         (len(streams), counters))
    c1 = c2 = c3 = np.zeros_like(c0)
    # all operands are arrays, whose uint64 arithmetic wraps without warning
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        lo0, hi0 = _mulhilo(c0, _PHILOX_M[0])
        lo1, hi1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(streams), 4 * counters)[:, :n]


def _normal_blocks(n: int) -> int:
    return 2 * ((n + 1) // 2)  # one uniform per normal, in whole pairs


def _bit_blocks(n: int) -> int:
    return (n + 63) // 64


def _uniforms_from_raw(raw: np.ndarray) -> np.ndarray:
    """Doubles uniform on (0, 1], one per raw block; the open-at-zero side
    keeps log() safe."""
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-53


def _normals_from_raw(raw: np.ndarray, n: int) -> np.ndarray:
    """n standard normals per row from 2*ceil(n/2) raw blocks on the last
    axis: Box-Muller on the first and second half of the uniforms, cos/sin
    interleaved."""
    u = _uniforms_from_raw(raw)
    pairs = raw.shape[-1] // 2
    u1, u2 = u[..., :pairs], u[..., pairs:]
    r = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * np.pi * u2
    z = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    return z.reshape(raw.shape[:-1] + (2 * pairs,))[..., :n]


def _bits_from_raw(raw: np.ndarray, n: int) -> np.ndarray:
    """n {0,1} int64s per row from ceil(n/64) raw blocks on the last axis,
    msb-major within each block."""
    b = np.unpackbits(raw.astype(">u8").view(np.uint8), axis=-1)
    return b[..., :n].astype(np.int64)


def _complex_from_normals(z: np.ndarray, variance: float) -> np.ndarray:
    """CN(0, variance) entries from consecutive (re, im) normal pairs on the
    last axis; the variance is split evenly between re and im."""
    return np.sqrt(variance / 2.0) * (z[..., 0::2] + 1j * z[..., 1::2])


class Rng:
    """Deterministic counter-based RNG: one stream, consumed in order.

    Raw 64-bit blocks come from the Philox 4x64 counter cipher; every
    conversion on top (uniforms, Box-Muller normals, bits) is done in this
    module, by the functions the frame-axis draws share, so that identical
    seeds give identical streams on any platform.
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
        return Rng(self._seed, derive_stream(self._seed, self._stream,
                                             *(int(ix) for ix in indices)))

    def raw(self, n: int) -> np.ndarray:
        """Next n raw uint64 blocks."""
        return self._bitgen.random_raw(n)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]."""
        return _uniforms_from_raw(self.raw(n))

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on own uniforms."""
        return _normals_from_raw(self.raw(_normal_blocks(n)), n)

    def bits(self, n: int) -> np.ndarray:
        """n unbiased {0,1} ints (one per raw block bit, msb-major)."""
        return _bits_from_raw(self.raw(_bit_blocks(n)), n)

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
    if variance == 0:
        return np.zeros((rows, cols), dtype=np.complex128)
    return _complex_from_normals(rng.normals(2 * rows * cols), variance).reshape(rows, cols)


def stream_bits(seed, streams, n: int) -> np.ndarray:
    """(R, n): the first `Rng.bits(n)` draw of each of the R streams."""
    return _bits_from_raw(philox_raw(seed, streams, _bit_blocks(n)), n)


def stream_complex_gaussian(seed, streams, shape, variance: float) -> np.ndarray:
    """(R, *shape): the first `complex_gaussian(rng, *shape, variance)` draw
    of each of the R streams (variance > 0)."""
    n = 2 * int(np.prod(shape))
    z = _normals_from_raw(philox_raw(seed, streams, _normal_blocks(n)), n)
    return _complex_from_normals(z, variance).reshape((-1,) + tuple(shape))


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
