"""Index-modulation physical layer: TAC codebook, frames, channels, metrics.

A frame holds one transmit antenna combination (TAC) for T slots; only the
N_u active antennas carry symbols, so the transmit matrix X is row-sparse
with the same support in every column. Frames travel as batches over a
leading frame axis: a TAC index (B,) and symbols (B, n_u, t) per frame, from
assemble_frame to apply_channel and back through demap_frame; one frame is
a batch of 1. A TAC index becomes antennas through one table, built once:
`TacTable.cols` (0-based columns) or `TacTable.patterns` (0/1 rows).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from immimo.linalg import Rng, complex_gaussian
from immimo.modulation import QamConstellation


@dataclass(frozen=True)
class TacTable:
    """Legal TAC codebook: exactly N_L = 2^b1 of the C(N_t, N_u) combinations.

    TACs are 1-based sorted antenna index tuples; the tuple position in
    `tacs` is the codeword index (msb-first over the b1 spatial bits).
    """

    n_t: int
    n_u: int
    tacs: tuple[tuple[int, ...], ...]

    @property
    def n_l(self) -> int:
        return len(self.tacs)

    @property
    def b1(self) -> int:
        return self.n_l.bit_length() - 1

    @functools.cached_property
    def cols(self) -> np.ndarray:
        """0-based ascending antenna columns of every codeword, (n_l, n_u) intp."""
        cols = np.array(self.tacs, dtype=np.intp) - 1
        cols.flags.writeable = False
        return cols

    @functools.cached_property
    def patterns(self) -> np.ndarray:
        """Antenna activation pattern of every codeword as 0/1 rows, (n_l, n_t)."""
        g = np.zeros((self.n_l, self.n_t))
        np.put_along_axis(g, self.cols, 1.0, axis=1)
        g.flags.writeable = False
        return g


def build_tac_table(n_t: int, n_u: int, tacs=None) -> TacTable:
    """Construct the legal TAC table.

    Without `tacs`, takes the first N_L combinations in lexicographic order.
    With `tacs`, uses that explicit list (it must contain exactly N_L valid,
    distinct, sorted combinations).
    """
    if not (1 <= n_u <= n_t):
        raise ValueError(f"need 1 <= n_u <= n_t, got n_u={n_u}, n_t={n_t}")
    total = math.comb(n_t, n_u)
    n_l = 1 << (total.bit_length() - 1)  # 2^floor(log2 C)
    if tacs is None:
        chosen = list(itertools.islice(
            itertools.combinations(range(1, n_t + 1), n_u), n_l))
    else:
        chosen = [tuple(t) for t in tacs]
        if len(chosen) != n_l:
            raise ValueError(f"explicit table must have {n_l} entries, got {len(chosen)}")
        if len(set(chosen)) != len(chosen):
            raise ValueError("explicit table has duplicate TACs")
        for t in chosen:
            if len(t) != n_u or list(t) != sorted(t) or t[0] < 1 or t[-1] > n_t:
                raise ValueError(f"invalid TAC {t}")
    return TacTable(n_t=n_t, n_u=n_u, tacs=tuple(chosen))


# Codebook from the classic 4-antenna / 2-active construction where the two
# bit positions directly steer the two active indices.
TAC_PRESET_4X2 = ((1, 3), (1, 4), (2, 4), (2, 3))

# The `tac_preset` config values: each name's explicit codebook, or None for
# build_tac_table's lexicographic one.
TAC_PRESETS = {"lexicographic": None, "preset-4x2": TAC_PRESET_4X2}


def frame_bit_count(table: TacTable, constellation: QamConstellation, t: int) -> int:
    """Payload bits per frame: spatial bits once + fresh symbols every slot."""
    return table.b1 + table.n_u * constellation.bits_per_symbol * t


def tac_indices_of(bits, table: TacTable) -> np.ndarray:
    """(B,) TAC indices that the first b1 payload bits of each frame select,
    msb-first."""
    return bits[:, :table.b1] @ (1 << np.arange(table.b1 - 1, -1, -1))


def assemble_frame(bits, table: TacTable, constellation: QamConstellation,
                   t: int) -> tuple[np.ndarray, np.ndarray]:
    """Map a batch of payload bits to frames; the inverse of demap_frame.

    bits (B, b) -> tac_indices (B,) and symbols s (B, n_u, t). Layout per
    frame: bits[0:b1] select the TAC (msb-first), then slot-major groups of
    N_u * d bits modulate the active links in ascending antenna order.
    """
    bits = np.asarray(bits, dtype=np.int64)
    want = frame_bit_count(table, constellation, t)
    if bits.ndim != 2 or bits.shape[1] != want:
        raise ValueError(f"expected (B, {want}) bits, got shape {bits.shape}")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0/1")
    b1 = table.b1
    tac_indices = tac_indices_of(bits, table)
    sym_bits = bits[:, b1:].reshape(len(bits), t, table.n_u * constellation.bits_per_symbol)
    s = np.ascontiguousarray(constellation.modulate(sym_bits).transpose(0, 2, 1))
    return tac_indices, s


def demap_frame(tac_indices, s_hat, table: TacTable,
                constellation: QamConstellation) -> np.ndarray:
    """Inverse of assemble_frame for a batch of detected frames.

    tac_indices (B,) and symbol estimates (B, n_u, t) -> payload bits (B, b).
    """
    tac_indices = np.asarray(tac_indices, dtype=np.int64)
    s_hat = np.asarray(s_hat, dtype=np.complex128)
    if s_hat.ndim != 3 or s_hat.shape[1] != table.n_u:
        raise ValueError(f"expected (B, {table.n_u}, t) symbol estimates, got {s_hat.shape}")
    b1 = table.b1
    head = (tac_indices[:, None] >> np.arange(b1 - 1, -1, -1)) & 1
    sym_bits = constellation.demodulate(s_hat.transpose(0, 2, 1))  # (B, t, n_u*d)
    flat = sym_bits.reshape(len(s_hat), sym_bits.shape[1] * sym_bits.shape[2])
    return np.concatenate([head, flat], axis=1)


def make_correlated(h: np.ndarray, rho: float) -> np.ndarray:
    """Apply Kronecker spatial correlation: H_c = L_r H L_t^H.

    R entries are rho^|i-j| on both the receive and the transmit side; L
    are Cholesky factors, which satisfy the required L L^H = R (R is
    positive definite for 0 <= rho < 1).
    """
    h = np.asarray(h, dtype=np.complex128)
    n_r, n_t = h.shape
    if not 0 <= rho < 1:
        raise ValueError("correlation coefficient must be in [0, 1)")
    if rho == 0:
        return h.copy()

    def expfact(n, r):
        idx = np.arange(n)
        return np.linalg.cholesky((r ** np.abs(idx[:, None] - idx[None, :])).astype(np.complex128))

    return expfact(n_r, rho) @ h @ expfact(n_t, rho).conj().T


def csi_error_variance(n_t: int, sigma_z2: float, n_p: int, e_p: float) -> float:
    """Pilot-based LS estimation error variance N_t * sigma_z^2 / (N_p * E_p).

    The arguments but n_t are the pilot triple, a config file's other way to
    give csi_error_var (config.parse_config). A ValueError names all three
    unless n_p is in [1, 2**64 - 1] and e_p > 0 and sigma_z2 >= 0 are finite.
    """
    if not (1 <= n_p <= 2**64 - 1 and 0 < e_p < math.inf and 0 <= sigma_z2 < math.inf):
        raise ValueError(f"need 1 <= n_p <= 2**64 - 1, finite e_p > 0 and finite "
                         f"sigma_z2 >= 0, got n_p={n_p}, e_p={e_p}, sigma_z2={sigma_z2}")
    return n_t * sigma_z2 / (n_p * e_p)


def draw_channel(rng: Rng, n_r: int, n_t: int, rho: float = 0.0) -> np.ndarray:
    """Draw H (n_r, n_t) with i.i.d. CN(0, 1/N_r) entries, then Kronecker
    correlation `rho`; dataset generation adds the receiver's CSI error
    (dataset.generate_arrays)."""
    h = complex_gaussian(rng, n_r, n_t, 1.0 / n_r)
    if rho:
        h = make_correlated(h, rho)
    return h


def noise_variance(snr_db: float, n_r: int, n_u: int) -> float:
    """Per-entry complex noise variance for a target receive SNR in dB.

    With unit-energy symbols and E|h|^2 = 1/N_r, the received signal energy
    per slot is N_u, the noise energy is N_r * sigma^2, so
    sigma^2 = N_u / (N_r * 10^(SNR/10)). +inf dB is the noiseless link
    (0.0); NaN, -inf and a finite SNR whose power overflows a float are
    ValueError.
    """
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"SNR must be finite or +inf dB, got {snr_db}")
    if snr_db == math.inf:
        return 0.0
    try:
        return n_u / (n_r * 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"SNR {snr_db} dB is out of range") from None


def apply_channel(h: np.ndarray, tac_indices, s: np.ndarray, table: TacTable,
                  noise: np.ndarray | None = None) -> np.ndarray:
    """Receive matrices Y = H X + N for a batch of frames.

    X (B, n_t, t) is row-sparse: frame i carries s[i] (n_u, t) on the rows of
    TAC tac_indices[i] and zeros elsewhere. h is one (n_r, n_t) channel for
    every frame, or (B, n_r, n_t); noise is (B, n_r, t), or None for a
    noiseless link.
    """
    s = np.asarray(s, dtype=np.complex128)
    x = np.zeros((len(s), table.n_t, s.shape[2]), dtype=np.complex128)
    x[np.arange(len(s))[:, None], table.cols[tac_indices]] = s
    y = h @ x
    return y if noise is None else y + noise


def ber(bits_true, bits_hat) -> float:
    """Bit error rate between equal-length 0/1 arrays."""
    a = np.asarray(bits_true).reshape(-1)
    b = np.asarray(bits_hat).reshape(-1)
    if a.size != b.size:
        raise ValueError("bit arrays differ in length")
    if a.size == 0:
        raise ValueError("empty bit arrays")
    return float(np.mean(a != b))


def tac_accuracy(tacs, g, table: TacTable) -> float:
    """Fraction of frames whose detected TAC index has the activation
    pattern of the frame's 0/1 row g (B, n_t)."""
    return float(np.mean(np.all(table.patterns[np.asarray(tacs)] == g, axis=1)))


def aap_accuracy(tacs_true, tacs_hat) -> float:
    """Fraction of frames whose detected antenna set matches exactly."""
    if len(tacs_true) != len(tacs_hat):
        raise ValueError("sequences differ in length")
    if not tacs_true:
        raise ValueError("empty sequences")
    hits = sum(set(a) == set(b) for a, b in zip(tacs_true, tacs_hat))
    return hits / len(tacs_true)
