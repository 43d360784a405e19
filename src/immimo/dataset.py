"""Binary frame dataset files and deterministic generation.

File layout (little-endian): magic "IMDS", version u16, header
(n_t, n_u, n_r, t, m as u16; snr_db f32; record count u64; seed u64), then
`count` packed records of `DatasetHeader.record_dtype()` (fields bits, y,
h, h_est, g, s), the one declaration of the record layout that the writer
and the reader share.

The channel is quasi-static: one realization per seed, shared by every
frame, split, and SNR point generated from that seed, while payload bits,
noise, and the receiver-side estimation error are drawn fresh per frame.
A support detector that sees only Y can work exactly because the channel is
the same across the frames it is fitted and evaluated on; change the seed
to get an independent realization.

Generation derives one RNG stream per global frame index, so any record can
be regenerated in isolation and files are byte-identical across runs. No
step loops over frames: the streams' words and their bits, CSI error and
noise are drawn over the frame axis (`linalg.derive_stream`,
`linalg.philox_raw`) in blocks of frames of about _DRAW_WORDS raw words,
and assembly, the channel and the indicators run over the whole batch. The
result is what `Rng(seed).derive(snr_key, i)` gives frame by frame.
Generation runs in one thread; the `threads` argument of write_dataset is
accepted for compatibility and ignored.

A file's records are checked on read: values must be finite
(`read_dataset`), and `check_indicators` refuses a `g` that is not the
pattern of the TAC its bits select, which needs the config's codebook, and
`check_channel` refuses an `h` that is not the config's scenario channel.
"""

from __future__ import annotations

import math
import struct
from dataclasses import astuple, dataclass

import numpy as np

from immimo.config import ExperimentConfig
from immimo.files import replace_file
from immimo.linalg import Rng, derive_stream, stream_bits, stream_complex_gaussian
from immimo.modulation import QamConstellation
from immimo.phy import (
    TAC_PRESETS,
    TacTable,
    apply_channel,
    assemble_frame,
    build_tac_table,
    draw_channel,
    frame_bit_count,
    noise_variance,
    tac_indices_of,
)

_MAGIC = b"IMDS"
_VERSION = 1
_HEADER = struct.Struct("<4sH5HfQQ")

# stream tag for the per-seed channel draw, outside the per-frame index space
_CHANNEL_STREAM = 0x6368616E

# Cap on the raw Philox words one block of frames draws (the stream
# temporaries scale with it); a block always holds at least one frame.
_DRAW_WORDS = 1 << 16


@dataclass(frozen=True)
class DatasetHeader:
    n_t: int
    n_u: int
    n_r: int
    t: int
    m: int
    snr_db: float
    count: int
    seed: int

    @property
    def bits_per_frame(self) -> int:
        b1 = math.comb(self.n_t, self.n_u).bit_length() - 1  # log2 of N_L
        return b1 + self.n_u * int(math.log2(self.m)) * self.t

    def record_dtype(self) -> np.dtype:
        """One record, fields in file order: payload bits packed msb-first,
        then Y, H, H_est, the activation indicator g and the symbols S."""
        return np.dtype([
            ("bits", "u1", ((self.bits_per_frame + 7) // 8,)),
            ("y", "<c8", (self.n_r, self.t)),
            ("h", "<c8", (self.n_r, self.n_t)),
            ("h_est", "<c8", (self.n_r, self.n_t)),
            ("g", "u1", (self.n_t,)),
            ("s", "<c8", (self.n_u, self.t)),
        ])


def table_for(cfg: ExperimentConfig) -> TacTable:
    """The legal TAC codebook of the config's `tac_preset` (phy.TAC_PRESETS)."""
    return build_tac_table(cfg.n_t, cfg.n_u, tacs=TAC_PRESETS[cfg.tac_preset])


def scenario_channel(cfg: ExperimentConfig) -> np.ndarray:
    """The seed's channel matrix, shared by every frame drawn from that seed.

    H is a function of the seed alone (not of SNR or frame index), so the
    train, validation, and test splits of one experiment all see the same
    realization. Entries are CN(0, 1/N_r) with optional Kronecker correlation.
    """
    return draw_channel(Rng(cfg.seed, derive_stream(cfg.seed, 0, _CHANNEL_STREAM)),
                        cfg.n_r, cfg.n_t, rho=cfg.rho)


def generate_arrays(cfg: ExperimentConfig, snr_db: float, count: int,
                    start_index: int) -> dict:
    """Frames start_index..start_index+count-1 at one SNR, over the frame axis.

    Returns bits (N, b) int64, y (N, n_r, t), h and h_est (N, n_r, n_t),
    g (N, n_t) float64 and s (N, n_u, t), complex at f64: what write_dataset
    stores, without its f32 round trip. The frame with global index i draws
    its bits, CSI error and noise from sub-streams 0, 1 and 2 of
    Rng(seed).derive(snr_key, i), so changing e.g. the CSI error variance
    cannot shift the bit or noise draws. An SNR that noise_variance rejects
    (NaN, -inf dB) is a ValueError before any draw.
    """
    snr_db = float(snr_db)
    var = noise_variance(snr_db, cfg.n_r, cfg.n_u)
    table = table_for(cfg)
    constellation = QamConstellation(cfg.m)
    h = scenario_channel(cfg)
    nbits = frame_bit_count(table, constellation, cfg.t)
    snr_key = 0x7FFFFFFF if snr_db == math.inf else int(round(snr_db * 100)) & 0x7FFFFFFF
    seed = cfg.seed
    bits = np.empty((count, nbits), np.int64)
    h_est = np.broadcast_to(h, (count,) + h.shape).copy()
    noise = np.empty((count, cfg.n_r, cfg.t), np.complex128) if var > 0 else None
    words = ((nbits + 63) // 64 + (2 * h.size if cfg.csi_error_var else 0)
             + (2 * cfg.n_r * cfg.t if noise is not None else 0))
    block = max(1, _DRAW_WORDS // words)
    frames = np.arange(start_index, start_index + count, dtype=np.uint64)
    for lo in range(0, count, block):
        rows = slice(lo, lo + block)
        base = derive_stream(seed, 0, snr_key, frames[rows])
        bits[rows] = stream_bits(seed, derive_stream(seed, base, 0), nbits)
        if cfg.csi_error_var:
            h_est[rows] += stream_complex_gaussian(
                seed, derive_stream(seed, base, 1), h.shape, cfg.csi_error_var)
        if noise is not None:
            noise[rows] = stream_complex_gaussian(
                seed, derive_stream(seed, base, 2), noise.shape[1:], var)
    tac_indices, s = assemble_frame(bits, table, constellation, cfg.t)
    return {"bits": bits, "y": apply_channel(h, tac_indices, s, table, noise),
            "h": np.broadcast_to(h, h_est.shape).copy(), "h_est": h_est,
            "g": table.patterns[tac_indices], "s": s}


def write_dataset(path, cfg: ExperimentConfig, snr_db: float, count: int,
                  start_index: int, threads: int = 1) -> DatasetHeader:
    """Generate `count` frames (global indices start_index..+count) to `path`.

    The frames are those of generate_arrays, stored as one array of
    `record_dtype()` records after the header (complex values at f32).
    A header field out of range is a struct.error and a value that is not
    finite at f32 (e.g. noise at an extreme SNR) a ValueError, both before
    any frame is written. The file is written beside `path` and moved into
    place, so a failed call leaves no file at `path`. `threads` is accepted
    and ignored.
    """
    header = DatasetHeader(cfg.n_t, cfg.n_u, cfg.n_r, cfg.t, cfg.m,
                           float(snr_db), count, cfg.seed)
    head = _HEADER.pack(_MAGIC, _VERSION, *astuple(header))
    arrays = generate_arrays(cfg, snr_db, count, start_index)
    records = np.empty(count, header.record_dtype())
    with np.errstate(over="ignore"):  # an f32 overflow is an inf, refused below
        for name, a in arrays.items():
            records[name] = np.packbits(a, axis=1) if name == "bits" else a
    _check_finite(records, path)
    replace_file(path, (head, records.tobytes()))
    return header


def _check_finite(records: np.ndarray, path) -> None:
    """ValueError naming the first complex field with a NaN or inf entry."""
    for name in ("y", "h", "h_est", "s"):
        if not np.isfinite(records[name]).all():
            raise ValueError(f"{path}: field {name} holds non-finite values")


def _parse_header(raw: bytes, path) -> DatasetHeader:
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, *fields = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    return DatasetHeader(*fields)


def read_dataset(path) -> tuple[DatasetHeader, dict]:
    """Load a dataset file into memory.

    Returns (header, arrays) with arrays: bits (N, b) int8, y (N, n_r, t),
    h / h_est (N, n_r, n_t), g (N, n_t) float64, s (N, n_u, t); complex
    arrays are complex128. A NaN or inf in y, h, h_est or s is a ValueError.
    """
    with open(path, "rb") as f:
        raw = f.read()
    header = _parse_header(raw, path)
    dtype = header.record_dtype()
    payload = memoryview(raw)[_HEADER.size:]
    if len(payload) != dtype.itemsize * header.count:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, "
                         f"expected {dtype.itemsize * header.count}")
    records = np.frombuffer(payload, dtype)
    _check_finite(records, path)
    return header, {
        "bits": np.unpackbits(records["bits"], axis=1)[:, :header.bits_per_frame]
                  .astype(np.int8),
        **{k: records[k].astype(np.complex128) for k in ("y", "h", "h_est")},
        "g": records["g"].astype(np.float64),
        "s": records["s"].astype(np.complex128)}


def check_header_matches(header: DatasetHeader, cfg: ExperimentConfig, path) -> None:
    """Refuse mismatched dataset/config pairs (self-describing files)."""
    for name in ("n_t", "n_u", "n_r", "t", "m", "seed"):
        have = getattr(header, name)
        want = getattr(cfg, name)
        if have != want:
            raise ValueError(f"{path}: header {name}={have} does not match config {name}={want}")


def check_indicators(arrays: dict, table: TacTable, path) -> None:
    """Refuse records whose activation indicator g is not the pattern of the
    TAC that their bits select: a spliced or flipped g would corrupt the
    AAPD targets and the scored TAC accuracy unseen."""
    want = table.patterns[tac_indices_of(arrays["bits"], table)]
    bad = np.flatnonzero(np.any(arrays["g"] != want, axis=1))
    if bad.size:
        raise ValueError(f"{path}: record {bad[0]} has an activation indicator g "
                         f"that does not match its TAC bits")


def check_channel(arrays: dict, cfg: ExperimentConfig, path) -> None:
    """Refuse records whose channel h is not the config's scenario channel
    at f32 (a file drawn under another rho, or a spliced record)."""
    want = scenario_channel(cfg).astype(np.complex64)
    bad = np.flatnonzero(np.any(arrays["h"] != want, axis=(1, 2)))
    if bad.size:
        raise ValueError(f"{path}: record {bad[0]} has a channel h that is not the "
                         f"scenario channel of seed {cfg.seed}, rho {cfg.rho}")
