"""Command-line harness: gen-data, train, eval, bench, sweep-csi-error.

Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 numerical
failure. Thread count resolution: --threads flag, then IMNET_THREADS, then
the config value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from immimo.config import ConfigError, ExperimentConfig, load_config
from immimo.cvnn import count_flops, count_params
from immimo.dataset import (
    check_header_matches,
    generate_arrays,
    read_dataset,
    table_for,
    write_dataset,
)
from immimo.detectors import classical_pipeline
from immimo.linalg import DecompositionError, SingularMatrixError
from immimo.modulation import QamConstellation
from immimo.runner import (
    BENCH_COLUMNS,
    BENCH_SCHEMA,
    EVAL_COLUMNS,
    EVAL_SCHEMA,
    ML_GUARD_HYPOTHESES,
    SWEEP_COLUMNS,
    SWEEP_SCHEMA,
    checkpoint_paths,
    load_detector,
    median_latency_ms,
    ml_flops,
    ml_hypotheses_per_slot,
    rows_to_csv,
    run_classical,
    run_nn,
    somp_flops,
    write_results,
)
from immimo.twostage import (
    TrainConfig,
    build_aapd,
    build_se,
    detect_frames,
    train_full,
)


def _dataset_path(data_dir: str, snr_db: float, split: str) -> str:
    return os.path.join(data_dir, f"snr{snr_db:g}_{split}.imds")


def _resolve_threads(args, cfg: ExperimentConfig) -> int:
    if getattr(args, "threads", None):
        return args.threads
    env = os.environ.get("IMNET_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"IMNET_THREADS must be an integer, got {env!r}")
        if n < 1:
            raise ConfigError("IMNET_THREADS must be >= 1")
        return n
    return cfg.threads


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _warn_ml_guard(cfg: ExperimentConfig) -> None:
    table = table_for(cfg)
    hyp = ml_hypotheses_per_slot(table, cfg.m)
    if hyp > ML_GUARD_HYPOTHESES:
        print(f"warning: ML search spans {hyp} hypotheses per slot "
              f"(> {ML_GUARD_HYPOTHESES}); expect long runtimes", file=sys.stderr)


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    threads = _resolve_threads(args, cfg)
    os.makedirs(args.out, exist_ok=True)
    if not os.access(args.out, os.W_OK):
        raise ConfigError(f"output directory {args.out!r} is not writable")
    splits = (("train", cfg.frames_train), ("val", cfg.frames_val),
              ("test", cfg.frames_test))
    for snr in cfg.snr_db:
        start = 0
        for split, count in splits:
            path = _dataset_path(args.out, snr, split)
            write_dataset(path, cfg, snr, count, start, threads=threads)
            print(f"wrote {path}: {count} frames at {snr:g} dB")
            start += count
    return 0


def _load_split(data_dir: str, cfg: ExperimentConfig, snr: float, split: str):
    path = _dataset_path(data_dir, snr, split)
    if not os.path.exists(path):
        raise ConfigError(f"missing dataset file {path}")
    header, arrays = read_dataset(path)
    check_header_matches(header, cfg, path)
    return arrays


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    os.makedirs(args.out, exist_ok=True)
    tcfg = TrainConfig(lr=cfg.lr, batch=cfg.batch, max_epochs=cfg.max_epochs,
                       gamma1=cfg.gamma1, gamma2=cfg.gamma2, seed=cfg.seed)
    table = table_for(cfg)
    snr_points = [None] if args.mixed else cfg.snr_db
    for snr in snr_points:
        if args.mixed:
            parts = [_load_split(args.data, cfg, s, "train") for s in cfg.snr_db]
            train = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
            parts = [_load_split(args.data, cfg, s, "val") for s in cfg.snr_db]
            val = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
            tag = "mixed"
        else:
            train = _load_split(args.data, cfg, snr, "train")
            val = _load_split(args.data, cfg, snr, "val")
            tag = f"{snr:g}"
        t0 = time.monotonic()
        aapd, se, history = train_full(
            train, val, tcfg, table, variant=args.variant,
            conv_channels=tuple(cfg.conv_channels),
            dense_units=tuple(cfg.dense_units),
            se_channels=tuple(cfg.se_channels))
        if args.mixed:
            aapd_path = os.path.join(args.out, f"aapd_{args.variant}_mixed.cvnn")
            se_path = os.path.join(args.out, f"se_{args.variant}_mixed.cvnn")
        else:
            aapd_path, se_path = checkpoint_paths(args.out, args.variant, snr)
        # strict JSON: a NaN/inf in the log fails before any file is written
        lines = [json.dumps(rec, sort_keys=True, allow_nan=False) + "\n"
                 for rec in history]
        aapd.net.save(aapd_path)
        se.net.save(se_path)
        log_path = os.path.join(args.out, f"train_{args.variant}_snr{tag}.jsonl")
        with open(log_path, "w", encoding="utf-8") as f:
            f.writelines(lines)
        converged = all(r.get("converged", True) for r in history if "converged" in r)
        status = "" if converged else " (warning: epoch cap before loss target)"
        print(f"trained {tag} dB -> {aapd_path}, {se_path} "
              f"[{time.monotonic() - t0:.1f} s]{status}")
        if args.mixed:
            break
    return 0


def _eval_detector_rows(cfg, detectors, data_by_snr, ckpt_dir, variant, threads):
    table = table_for(cfg)
    constellation = QamConstellation(cfg.m)
    if "ml" in detectors:
        _warn_ml_guard(cfg)
    rows = []
    for name in detectors:
        for snr in cfg.snr_db:
            data = data_by_snr[snr]
            if name in ("ml", "somp"):
                res = run_classical(name, data, table, constellation, threads=threads)
            else:
                var = name.split("-", 1)[1] if "-" in name else variant
                aapd, se = load_detector(ckpt_dir, var, snr)
                res = run_nn(aapd, se, data, table, constellation)
            rows.append({"schema": EVAL_SCHEMA, "detector": name,
                         "snr_db": float(snr), **{k: res[k] for k in
                         ("frames", "ber", "aap_accuracy", "wall_time_s")}})
    rows.sort(key=lambda r: (r["detector"], r["snr_db"]))
    return rows


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    threads = _resolve_threads(args, cfg)
    detectors = args.detectors.split(",") if args.detectors else \
        [d if d != "nn" else f"nn-{args.variant}" for d in cfg.detectors]
    needs_ckpt = [d for d in detectors if d.startswith("nn")]
    for d in needs_ckpt:
        var = d.split("-", 1)[1] if "-" in d else args.variant
        for snr in cfg.snr_db:
            for p in checkpoint_paths(args.ckpt, var, snr):
                if not os.path.exists(p):
                    raise ConfigError(f"missing checkpoint {p}")
    data_by_snr = {snr: _load_split(args.data, cfg, snr, "test")
                   for snr in cfg.snr_db}
    rows = _eval_detector_rows(cfg, detectors, data_by_snr, args.ckpt,
                               args.variant, threads)
    write_results(args.out, rows, EVAL_COLUMNS, extra={"command": "eval"})
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    table = table_for(cfg)
    constellation = QamConstellation(cfg.m)
    _warn_ml_guard(cfg)
    frames = generate_arrays(cfg, cfg.snr_db[0], count=8, start_index=0)
    aapd = build_aapd(cfg.n_r, cfg.t, cfg.n_t, variant=args.variant,
                      conv_channels=tuple(cfg.conv_channels),
                      dense_units=tuple(cfg.dense_units), seed=cfg.seed)
    se = build_se(cfg.n_u, cfg.t, variant=args.variant,
                  channels=tuple(cfg.se_channels), seed=cfg.seed)
    items = list(zip(frames["y"], frames["h_est"]))
    rows = [
        {"detector": "ml",
         "params": 0,
         "flops_per_frame": ml_flops(table, cfg.m, cfg.n_r, cfg.t),
         "latency_ms_median": median_latency_ms(
             lambda it: classical_pipeline(it[0], it[1], table, constellation, "ml"),
             items)},
        {"detector": "somp",
         "params": 0,
         "flops_per_frame": somp_flops(cfg.n_t, cfg.n_r, cfg.n_u, cfg.t),
         "latency_ms_median": median_latency_ms(
             lambda it: classical_pipeline(it[0], it[1], table, constellation, "somp"),
             items)},
        {"detector": f"nn-{args.variant}",
         "params": count_params(aapd.net) + count_params(se.net),
         "flops_per_frame": count_flops(aapd.net, (1, cfg.n_r, cfg.t))
                            + count_flops(se.net, (1, cfg.n_u, cfg.t)),
         "latency_ms_median": median_latency_ms(
             lambda it: detect_frames(it[0][None], it[1][None], aapd, se, table,
                                      constellation),
             items)},
    ]
    for r in rows:
        r.update({"schema": BENCH_SCHEMA, "trials": 33})
    if args.out:
        write_results(args.out, rows, BENCH_COLUMNS, extra={"command": "bench"})
        print(f"wrote {args.out}")
    else:
        print(rows_to_csv(rows, BENCH_COLUMNS), end="")
    return 0


def cmd_sweep_csi_error(args) -> int:
    cfg = _load_cfg(args)
    threads = _resolve_threads(args, cfg)
    snr = args.snr
    table = table_for(cfg)
    constellation = QamConstellation(cfg.m)
    for p in checkpoint_paths(args.ckpt, args.variant, snr):
        if not os.path.exists(p):
            raise ConfigError(f"missing checkpoint {p}")
    aapd, se = load_detector(args.ckpt, args.variant, snr)
    start = cfg.frames_train + cfg.frames_val
    rows = []
    for err_var in cfg.sweep_error_var:
        cfg_pt = replace(cfg, csi_error_var=float(err_var), n_p=None, e_p=None,
                         sigma_z2=None)
        data = generate_arrays(cfg_pt, snr, cfg.frames_test, start)
        for name in ("ml", "somp", f"nn-{args.variant}"):
            if name.startswith("nn"):
                res = run_nn(aapd, se, data, table, constellation)
            else:
                res = run_classical(name, data, table, constellation, threads=threads)
            rows.append({"schema": SWEEP_SCHEMA, "detector": name,
                         "snr_db": float(snr), "csi_error_var": float(err_var),
                         **{k: res[k] for k in
                            ("frames", "ber", "aap_accuracy", "wall_time_s")}})
    rows.sort(key=lambda r: (r["detector"], r["csi_error_var"]))
    write_results(args.out, rows, SWEEP_COLUMNS, extra={"command": "sweep-csi-error"})
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="immimo",
                                description="IM-MIMO simulation and detection harness")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True, threads=True):
        sp.add_argument("--config", required=True, help="key=value config file")
        if seed:
            sp.add_argument("--seed", type=int, default=None,
                            help="override the config seed")
        if threads:
            sp.add_argument("--threads", type=int, default=None,
                            help="worker threads (default: IMNET_THREADS or config)")

    sp = sub.add_parser("gen-data", help="generate train/val/test dataset files")
    common(sp)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(fn=cmd_gen_data)

    sp = sub.add_parser("train", help="train the two-stage detector per SNR")
    common(sp, threads=False)
    sp.add_argument("--data", required=True, help="dataset directory")
    sp.add_argument("--out", required=True, help="checkpoint/log directory")
    sp.add_argument("--variant", choices=("complex", "real"), default="complex")
    sp.add_argument("--mixed", action="store_true",
                    help="one checkpoint pair from all SNRs pooled")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="evaluate detectors on test datasets")
    common(sp, seed=False)
    sp.add_argument("--data", required=True)
    sp.add_argument("--ckpt", default=".", help="checkpoint directory")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--variant", choices=("complex", "real"), default="complex")
    sp.add_argument("--detectors", default=None,
                    help="comma list: ml,somp,nn-complex,nn-real")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("bench", help="parameter/FLOPs/latency table")
    common(sp, seed=False, threads=False)
    sp.add_argument("--variant", choices=("complex", "real"), default="complex")
    sp.add_argument("--out", default=None, help="output CSV path (default stdout)")
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("sweep-csi-error",
                        help="BER vs CSI error variance at fixed SNR")
    common(sp, seed=False)
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--snr", type=float, default=15.0)
    sp.add_argument("--variant", choices=("complex", "real"), default="complex")
    sp.set_defaults(fn=cmd_sweep_csi_error)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except (SingularMatrixError, DecompositionError, FloatingPointError,
            np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
