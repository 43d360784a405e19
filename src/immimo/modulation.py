"""Square Gray-coded QAM with unit average symbol energy."""

from __future__ import annotations

import numpy as np


def _gray(i: int) -> int:
    return i ^ (i >> 1)


class QamConstellation:
    """M-ary square QAM, M in {4, 16, 64}, Gray labels per axis.

    Bit labels are msb-first; the first half of the label selects the
    in-phase level, the second half the quadrature level. Label 0...0 maps
    to the most positive corner, e.g. 4QAM bits 00 -> (1+1j)/sqrt(2).
    """

    def __init__(self, m: int):
        if m < 4 or (m & (m - 1)) != 0 or int(np.log2(m)) % 2 != 0:
            raise ValueError(f"m must be a square power of two >= 4, got {m}")
        self.m = m
        self.bits_per_symbol = int(np.log2(m))
        half = self.bits_per_symbol // 2
        levels = 1 << half
        # axis index i (0..levels-1) -> amplitude L-1-2i, label gray(i)
        amp_of_label = np.empty(levels)
        for i in range(levels):
            amp_of_label[_gray(i)] = levels - 1 - 2 * i
        labels = np.arange(m)
        i_amp = amp_of_label[labels >> half]
        q_amp = amp_of_label[labels & (levels - 1)]
        raw = i_amp + 1j * q_amp
        self._scale = np.sqrt(np.mean(np.abs(raw) ** 2))
        # points[label] is the symbol whose msb-first bit label equals `label`
        self.points = raw / self._scale
        self._pows = 1 << np.arange(self.bits_per_symbol - 1, -1, -1)

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Map bits (..., k*d) -> symbols (..., k), msb-first groups of d."""
        bits = np.asarray(bits)
        if bits.shape[-1] % self.bits_per_symbol != 0:
            raise ValueError("bit count not a multiple of bits_per_symbol")
        d = self.bits_per_symbol
        groups = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // d, d))
        labels = (groups * self._pows).sum(axis=-1)
        return self.points[labels]

    def demodulate(self, symbols: np.ndarray) -> np.ndarray:
        """Nearest constellation point, then its bit label (..., k*d)."""
        symbols = np.asarray(symbols, dtype=np.complex128)
        d2 = np.abs(symbols[..., None] - self.points) ** 2
        labels = np.argmin(d2, axis=-1)
        bits = (labels[..., None] >> np.arange(self.bits_per_symbol - 1, -1, -1)) & 1
        return bits.reshape(symbols.shape[:-1] + (symbols.shape[-1] * self.bits_per_symbol,))
