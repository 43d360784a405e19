"""Detector evaluation, benchmarking, and result emission for the CLI."""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from immimo.cvnn import Model
from immimo.detectors import classical_detect
from immimo.modulation import QamConstellation
from immimo.phy import TacTable, aap_accuracy, ber, demap_frame
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


def ml_hypotheses_per_slot(table: TacTable, m: int) -> int:
    return table.n_l * m ** table.n_u


def run_classical(method: str, data: dict, table: TacTable,
                  constellation: QamConstellation, threads: int = 1) -> dict:
    """Evaluate ml or somp over all frames; returns metrics dict."""
    y, h_est, bits = data["y"], data["h_est"], data["bits"]
    n = len(y)
    t0 = time.monotonic()

    def one(i: int):
        ti, s_hat = classical_detect(y[i], h_est[i], table, constellation, method)
        return ti, demap_frame(ti, s_hat, table, constellation)

    if threads > 1:
        chunk = 64
        spans = [range(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
        with ThreadPoolExecutor(max_workers=threads) as ex:
            chunks = list(ex.map(lambda span: [one(i) for i in span], spans))
        results = [r for c in chunks for r in c]
    else:
        results = [one(i) for i in range(n)]
    seconds = time.monotonic() - t0
    est_tacs = [table.tacs[ti] for ti, _ in results]
    true_tacs = [tuple(np.flatnonzero(g) + 1) for g in data["g"]]
    bits_hat = np.stack([b for _, b in results])
    return {"frames": n, "ber": ber(bits, bits_hat),
            "aap_accuracy": aap_accuracy(true_tacs, est_tacs),
            "wall_time_s": seconds}


def run_nn(aapd: AapdModel, se: SeModel, data: dict, table: TacTable,
           constellation: QamConstellation) -> dict:
    y, h_est, bits = data["y"], data["h_est"], data["bits"]
    t0 = time.monotonic()
    bits_hat, tacs = detect_frames(y, h_est, aapd, se, table, constellation)
    seconds = time.monotonic() - t0
    est_tacs = [table.tacs[int(ti)] for ti in tacs]
    true_tacs = [tuple(np.flatnonzero(g) + 1) for g in data["g"]]
    return {"frames": len(y), "ber": ber(bits, bits_hat),
            "aap_accuracy": aap_accuracy(true_tacs, est_tacs),
            "wall_time_s": seconds}


def checkpoint_paths(ckpt_dir, variant: str, snr_db: float):
    tag = f"{snr_db:g}"
    return (f"{ckpt_dir}/aapd_{variant}_snr{tag}.cvnn",
            f"{ckpt_dir}/se_{variant}_snr{tag}.cvnn")


def load_detector(ckpt_dir, variant: str, snr_db: float) -> tuple[AapdModel, SeModel]:
    aapd_path, se_path = checkpoint_paths(ckpt_dir, variant, snr_db)
    anet = Model.load(aapd_path)
    snet = Model.load(se_path)
    am = anet.meta
    sm = snet.meta
    return (AapdModel(net=anet, variant=am["variant"], n_r=am["n_r"],
                      t=am["t"], n_t=am["n_t"]),
            SeModel(net=snet, variant=sm["variant"], n_u=sm["n_u"], t=sm["t"]))


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow({k: r.get(k, "") for k in columns})
    return buf.getvalue()


def write_results(out_path, rows: list[dict], columns: list[str],
                  extra: dict | None = None) -> None:
    """CSV at out_path plus a JSON mirror alongside (.json)."""
    out_path = str(out_path)
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(rows_to_csv(rows, columns))
    mirror = {"columns": columns, "rows": rows}
    if extra:
        mirror.update(extra)
    json_path = out_path[:-4] + ".json" if out_path.endswith(".csv") else out_path + ".json"
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(mirror, f, indent=1, sort_keys=True)
        f.write("\n")


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


def median_latency_ms(fn, frames: list, trials: int = 33) -> float:
    times = []
    for k in range(trials):
        frame = frames[k % len(frames)]
        t0 = time.perf_counter()
        fn(frame)
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))
