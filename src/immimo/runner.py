"""Detector evaluation, benchmarking, and result emission for the CLI."""

from __future__ import annotations

import csv
import io
import json
import os
import time

import numpy as np

from immimo.config import ConfigError, ExperimentConfig, snr_tag
from immimo.cvnn import Model
from immimo.detectors import classical_detect
from immimo.files import replace_file
from immimo.modulation import QamConstellation
from immimo.phy import TacTable, ber, demap_frame, tac_accuracy
from immimo.twostage import AapdModel, SeModel, detect_frames

EVAL_SCHEMA = "immimo-eval-1"
BENCH_SCHEMA = "immimo-bench-1"
SWEEP_SCHEMA = "immimo-sweep-1"

EVAL_COLUMNS = ["schema", "detector", "snr_db", "frames", "ber",
                "aap_accuracy", "wall_time_s"]
BENCH_COLUMNS = ["schema", "detector", "params", "flops_per_frame",
                 "latency_ms_median", "trials"]
SWEEP_COLUMNS = ["schema", "detector", "snr_db", "csi_error_var", "frames",
                 "ber", "aap_accuracy", "wall_time_s"]

ML_GUARD_HYPOTHESES = 10_000_000
# timed detections per bench row, the row's `trials` column
LATENCY_TRIALS = 33


def _score(data: dict, table: TacTable, tacs, bits_hat, seconds: float) -> dict:
    """BER and TAC accuracy (phy.tac_accuracy) of detected frames."""
    return {"frames": len(tacs), "ber": ber(data["bits"], bits_hat),
            "aap_accuracy": tac_accuracy(tacs, data["g"], table), "wall_time_s": seconds}


def run_classical(method: str, data: dict, table: TacTable,
                  constellation: QamConstellation, threads: int = 1) -> dict:
    """Evaluate ml or somp over all frames; returns metrics dict.

    `threads` is accepted and ignored: detection runs over the frame axis
    in one thread.
    """
    t0 = time.monotonic()
    tacs, s_hat = classical_detect(data["y"], data["h_est"], table, constellation, method)
    bits_hat = demap_frame(tacs, s_hat, table, constellation)
    return _score(data, table, tacs, bits_hat, time.monotonic() - t0)


def run_nn(aapd: AapdModel, se: SeModel, data: dict, table: TacTable,
           constellation: QamConstellation) -> dict:
    t0 = time.monotonic()
    bits_hat, tacs = detect_frames(data["y"], data["h_est"], aapd, se, table,
                                   constellation)
    return _score(data, table, tacs, bits_hat, time.monotonic() - t0)


def checkpoint_paths(ckpt_dir, variant: str, snr_db: float | None):
    """(AAPD, SE) checkpoint paths for one SNR point, or for the pooled
    `train --mixed` pair when snr_db is None."""
    tag = "mixed" if snr_db is None else f"snr{snr_tag(snr_db)}"
    return (f"{ckpt_dir}/aapd_{variant}_{tag}.cvnn",
            f"{ckpt_dir}/se_{variant}_{tag}.cvnn")


def resolve_checkpoints(ckpt_dir, variant: str, snr_db: float):
    """The per-SNR checkpoint pair when it exists, else the mixed pair;
    ConfigError naming the missing per-SNR file when neither is complete."""
    per_snr = checkpoint_paths(ckpt_dir, variant, snr_db)
    for paths in (per_snr, checkpoint_paths(ckpt_dir, variant, None)):
        if all(map(os.path.exists, paths)):
            return paths
    raise ConfigError(f"missing checkpoint {next(p for p in per_snr if not os.path.exists(p))}")


def load_detector(ckpt_dir, variant: str, snr_db: float,
                  cfg: ExperimentConfig | None = None) -> tuple[AapdModel, SeModel]:
    """Load the AAPD/SE pair for one SNR point (see resolve_checkpoints).

    A checkpoint whose meta lacks a model field, or whose variant is not
    `variant`, is a ConfigError. With `cfg`, the checkpoints' n_r/t/n_t
    (AAPD) and n_u/t (SE) must match it, else ConfigError.
    """
    models = []
    for path, cls, keys in zip(resolve_checkpoints(ckpt_dir, variant, snr_db),
                               (AapdModel, SeModel),
                               (("n_r", "t", "n_t"), ("n_u", "t"))):
        net = Model.load(path)
        meta = net.meta
        missing = [k for k in ("variant",) + keys if k not in meta]
        if missing:
            raise ConfigError(f"{path}: checkpoint meta lacks {', '.join(missing)}")
        if meta["variant"] != variant:
            raise ConfigError(f"{path}: checkpoint variant {meta['variant']!r}, not {variant!r}")
        if cfg is not None:
            bad = [f"{k}={meta[k]} (config {getattr(cfg, k)})"
                   for k in keys if meta[k] != getattr(cfg, k)]
            if bad:
                raise ConfigError(f"{path}: checkpoint does not match config: "
                                  + ", ".join(bad))
        models.append(cls(net=net))
    return tuple(models)


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow({k: r.get(k, "") for k in columns})
    return buf.getvalue()


def write_results(out_path, rows: list[dict], columns: list[str],
                  extra: dict | None = None) -> None:
    """CSV at out_path plus a JSON mirror alongside (.json), each written
    beside its target and renamed into place."""
    out_path = str(out_path)
    replace_file(out_path, [rows_to_csv(rows, columns).encode("utf-8")])
    mirror = {"columns": columns, "rows": rows}
    if extra:
        mirror.update(extra)
    json_path = out_path[:-4] + ".json" if out_path.endswith(".csv") else out_path + ".json"
    replace_file(json_path, [(json.dumps(mirror, indent=1, sort_keys=True) + "\n")
                             .encode("utf-8")])


def somp_flops(n_t: int, n_r: int, n_u: int, t: int) -> int:
    """Complex-MAC estimate of one SOMP frame detection, 8 FLOPs per MAC.

    Per iteration i: correlation N_t*N_r*T, Gram build i^2*N_r, solve i^3/3,
    projection and residual 2*i*N_r*T.
    """
    macs = 0
    for i in range(1, n_u + 1):
        macs += n_t * n_r * t + i * i * n_r + i ** 3 // 3 + 2 * i * n_r * t
    return 8 * macs


def ml_flops(table: TacTable, m: int, n_r: int, t: int) -> int:
    """8 * N_L * M^N_u * T * (complex MACs per hypothesis).

    Per hypothesis and slot: the H_J s product (N_r*N_u MACs) plus the
    residual energy accumulation (N_r).
    """
    return 8 * table.n_l * m ** table.n_u * t * n_r * (table.n_u + 1)


def median_latency_ms(fn, frames: list) -> float:
    """Median ms of LATENCY_TRIALS calls of fn, cycling over `frames`."""
    times = []
    for k in range(LATENCY_TRIALS):
        frame = frames[k % len(frames)]
        t0 = time.perf_counter()
        fn(frame)
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))
