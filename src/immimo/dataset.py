"""Binary frame dataset files and deterministic generation.

File layout (little-endian): magic "IMDS", version u16, header
(n_t, n_u, n_r, t, m as u16; snr_db f32; record count u64; seed u64), then
per record: packed payload bits (ceil(b/8) bytes, msb-first), Y (n_r*t c8),
H (n_r*n_t c8), H_est (n_r*n_t c8), g (n_t bytes), S (n_u*t c8).

The channel is quasi-static: one realization per seed, shared by every
frame, split, and SNR point generated from that seed, while payload bits,
noise, and the receiver-side estimation error are drawn fresh per frame.
A support detector that sees only Y can work exactly because the channel is
the same across the frames it is fitted and evaluated on; change the seed
to get an independent realization.

Generation derives one RNG stream per global frame index, so any record can
be regenerated in isolation and files are byte-identical across runs and
thread counts.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from immimo.config import ExperimentConfig
from immimo.linalg import Rng
from immimo.modulation import QamConstellation
from immimo.phy import (
    TAC_PRESET_4X2,
    TacTable,
    apply_channel,
    assemble_frame,
    build_tac_table,
    corrupt_csi,
    draw_channel,
    frame_bit_count,
)

_MAGIC = b"IMDS"
_VERSION = 1
_HEADER = struct.Struct("<4sH5HfQQ")

# stream tag for the per-seed channel draw, outside the per-frame index space
_CHANNEL_STREAM = 0x6368616E


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

    def record_nbytes(self) -> int:
        return ((self.bits_per_frame + 7) // 8
                + 8 * self.n_r * self.t
                + 8 * self.n_r * self.n_t * 2
                + self.n_t
                + 8 * self.n_u * self.t)


def table_for(cfg: ExperimentConfig) -> TacTable:
    if cfg.tac_preset == "lexicographic":
        return build_tac_table(cfg.n_t, cfg.n_u)
    if cfg.tac_preset == "preset-4x2":
        if (cfg.n_t, cfg.n_u) != (4, 2):
            raise ValueError("preset-4x2 needs n_t=4, n_u=2")
        return build_tac_table(4, 2, tacs=TAC_PRESET_4X2)
    raise ValueError(f"unknown tac_preset {cfg.tac_preset!r}")


def scenario_channel(cfg: ExperimentConfig) -> np.ndarray:
    """The seed's channel matrix, shared by every frame drawn from that seed.

    H is a function of the seed alone (not of SNR or frame index), so the
    train, validation, and test splits of one experiment all see the same
    realization. Entries are CN(0, 1/N_r) with optional Kronecker correlation.
    """
    return draw_channel(Rng(cfg.seed).derive(_CHANNEL_STREAM), cfg.n_r, cfg.n_t,
                        rho=cfg.rho)


def _pack_record(bits, y, h, h_est, g, s) -> bytes:
    parts = [
        np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes(),
        np.asarray(y, dtype="<c8").tobytes(),
        np.asarray(h, dtype="<c8").tobytes(),
        np.asarray(h_est, dtype="<c8").tobytes(),
        np.asarray(g, dtype=np.uint8).tobytes(),
        np.asarray(s, dtype="<c8").tobytes(),
    ]
    return b"".join(parts)


def generate_frame_data(cfg: ExperimentConfig, table: TacTable,
                        constellation: QamConstellation, snr_db: float,
                        frame_index: int, h: np.ndarray | None = None) -> tuple:
    """One deterministic frame; frame_index is global across splits.

    Returns (bits, y, h, h_est, g, s). Bits, CSI error, and noise each use
    their own sub-stream so changing e.g. the CSI error variance cannot
    shift the bit or noise draws. Pass h to avoid recomputing
    scenario_channel per frame; it must equal scenario_channel(cfg).
    """
    snr_key = 0x7FFFFFFF if math.isinf(snr_db) else int(round(snr_db * 100)) & 0x7FFFFFFF
    base = Rng(cfg.seed).derive(snr_key, frame_index)
    nbits = frame_bit_count(table, constellation, cfg.t)
    bits = base.derive(0).bits(nbits)
    frame = assemble_frame(bits, table, constellation, cfg.t)
    if h is None:
        h = scenario_channel(cfg)
    h_est = corrupt_csi(h, cfg.csi_error_var, base.derive(1))
    y = apply_channel(frame, h, snr_db, base.derive(2))
    g = np.zeros(cfg.n_t, dtype=np.uint8)
    g[[a - 1 for a in table.tacs[frame.tac_index]]] = 1
    return bits, y, h, h_est, g, frame.s


def generate_arrays(cfg: ExperimentConfig, snr_db: float, count: int,
                    start_index: int) -> dict:
    """In-memory equivalent of write_dataset+read_dataset for the same frames,
    without the f32 round trip (full f64 precision)."""
    table = table_for(cfg)
    constellation = QamConstellation(cfg.m)
    h0 = scenario_channel(cfg)
    out = {"bits": [], "y": [], "h": [], "h_est": [], "g": [], "s": []}
    for i in range(count):
        bits, y, h, h_est, g, s = generate_frame_data(
            cfg, table, constellation, float(snr_db), start_index + i, h=h0)
        out["bits"].append(bits)
        out["y"].append(y)
        out["h"].append(h)
        out["h_est"].append(h_est)
        out["g"].append(g.astype(np.float64))
        out["s"].append(s)
    return {k: np.stack(v) for k, v in out.items()}


def write_dataset(path, cfg: ExperimentConfig, snr_db: float, count: int,
                  start_index: int, threads: int = 1) -> DatasetHeader:
    """Generate `count` frames (global indices start_index..+count) to `path`."""
    header = DatasetHeader(cfg.n_t, cfg.n_u, cfg.n_r, cfg.t, cfg.m,
                           float(snr_db), count, cfg.seed)
    table = table_for(cfg)
    constellation = QamConstellation(cfg.m)
    h0 = scenario_channel(cfg)

    def make(i: int) -> bytes:
        return _pack_record(*generate_frame_data(cfg, table, constellation,
                                                 float(snr_db), start_index + i, h=h0))

    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, cfg.n_t, cfg.n_u, cfg.n_r,
                             cfg.t, cfg.m, float(snr_db), count, cfg.seed))
        if threads > 1 and count > 1:
            # fixed chunking, results written in order: identical bytes for
            # any thread count
            chunk = 64
            spans = [range(lo, min(lo + chunk, count))
                     for lo in range(0, count, chunk)]
            with ThreadPoolExecutor(max_workers=threads) as ex:
                for blob in ex.map(lambda span: b"".join(make(i) for i in span), spans):
                    f.write(blob)
        else:
            for i in range(count):
                f.write(make(i))
    return header


def read_header(path) -> DatasetHeader:
    with open(path, "rb") as f:
        raw = f.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, n_t, n_u, n_r, t, m, snr_db, count, seed = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    return DatasetHeader(n_t, n_u, n_r, t, m, float(snr_db), count, seed)


def read_dataset(path) -> tuple[DatasetHeader, dict]:
    """Load a dataset file into memory.

    Returns (header, arrays) with arrays: bits (N, b) int8, y (N, n_r, t),
    h / h_est (N, n_r, n_t), g (N, n_t) float64, s (N, n_u, t); complex
    arrays are complex128.
    """
    header = read_header(path)
    nb = header.record_nbytes()
    with open(path, "rb") as f:
        f.seek(_HEADER.size)
        payload = f.read()
    if len(payload) != nb * header.count:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, "
                         f"expected {nb * header.count}")
    b = header.bits_per_frame
    nbytes_bits = (b + 7) // 8
    n = header.count
    recs = np.frombuffer(payload, dtype=np.uint8).reshape(n, nb)
    off = 0
    bits_raw = recs[:, off:off + nbytes_bits]
    off += nbytes_bits
    bits = np.unpackbits(bits_raw, axis=1)[:, :b].astype(np.int8)

    def take_complex(nvals, shape):
        nonlocal off
        block = recs[:, off:off + 8 * nvals]
        off += 8 * nvals
        a = np.frombuffer(np.ascontiguousarray(block).tobytes(), dtype="<c8")
        return a.reshape((n,) + shape).astype(np.complex128)

    y = take_complex(header.n_r * header.t, (header.n_r, header.t))
    h = take_complex(header.n_r * header.n_t, (header.n_r, header.n_t))
    h_est = take_complex(header.n_r * header.n_t, (header.n_r, header.n_t))
    g = recs[:, off:off + header.n_t].astype(np.float64)
    off += header.n_t
    s = take_complex(header.n_u * header.t, (header.n_u, header.t))
    return header, {"bits": bits, "y": y, "h": h, "h_est": h_est, "g": g, "s": s}


def check_header_matches(header: DatasetHeader, cfg: ExperimentConfig, path) -> None:
    """Refuse mismatched dataset/config pairs (self-describing files)."""
    for name in ("n_t", "n_u", "n_r", "t", "m"):
        have = getattr(header, name)
        want = getattr(cfg, name)
        if have != want:
            raise ValueError(f"{path}: header {name}={have} does not match config {name}={want}")
