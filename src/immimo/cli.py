"""Command-line harness: gen-data, train, eval, bench, sweep-csi-error.

Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 numerical
failure. Detection and generation run in one thread; the `threads` config
key is accepted and does nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from immimo.config import ConfigError, ExperimentConfig, check_detectors, load_config
from immimo.cvnn import count_flops, count_params
from immimo.dataset import (
    check_header_matches,
    generate_arrays,
    read_dataset,
    table_for,
    write_dataset,
)
from immimo.detectors import classical_detect
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
    resolve_checkpoints,
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
    os.makedirs(args.out, exist_ok=True)
    if not os.access(args.out, os.W_OK):
        raise ConfigError(f"output directory {args.out!r} is not writable")
    splits = (("train", cfg.frames_train), ("val", cfg.frames_val),
              ("test", cfg.frames_test))
    for snr in cfg.snr_db:
        start = 0
        for split, count in splits:
            path = _dataset_path(args.out, snr, split)
            write_dataset(path, cfg, snr, count, start)
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


def _load_pooled(data_dir: str, cfg: ExperimentConfig, snrs, split: str) -> dict:
    parts = [_load_split(data_dir, cfg, snr, split) for snr in snrs]
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    os.makedirs(args.out, exist_ok=True)
    tcfg = TrainConfig(lr=cfg.lr, batch=cfg.batch, max_epochs=cfg.max_epochs,
                       gamma1=cfg.gamma1, gamma2=cfg.gamma2, seed=cfg.seed)
    table = table_for(cfg)
    # snr None: one model from all SNR points pooled
    for snr in [None] if args.mixed else cfg.snr_db:
        pool = cfg.snr_db if snr is None else [snr]
        train = _load_pooled(args.data, cfg, pool, "train")
        val = _load_pooled(args.data, cfg, pool, "val")
        tag = "mixed" if snr is None else f"{snr:g}"
        t0 = time.monotonic()
        aapd, se, history = train_full(
            train, val, tcfg, table, variant=args.variant,
            conv_channels=tuple(cfg.conv_channels),
            dense_units=tuple(cfg.dense_units),
            se_channels=tuple(cfg.se_channels))
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
    return 0


def _nn_variant(name: str, default: str) -> str | None:
    """The NN variant a detector name runs ("nn" runs `default`); None for
    ml and somp."""
    if name in ("ml", "somp"):
        return None
    return name.partition("-")[2] or default


def _eval_detector_rows(cfg, detectors, data_by_snr, ckpt_dir):
    table = table_for(cfg)
    constellation = QamConstellation(cfg.m)
    if ("ml", None) in detectors:
        _warn_ml_guard(cfg)
    rows = []
    for name, var in detectors:
        for snr in cfg.snr_db:
            data = data_by_snr[snr]
            if var is None:
                res = run_classical(name, data, table, constellation)
            else:
                aapd, se = load_detector(ckpt_dir, var, snr, cfg)
                res = run_nn(aapd, se, data, table, constellation)
            rows.append({"schema": EVAL_SCHEMA, "detector": name,
                         "snr_db": float(snr), **res})
    rows.sort(key=lambda r: (r["detector"], r["snr_db"]))
    return rows


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    names = args.detectors.split(",") if args.detectors else \
        [d if d != "nn" else f"nn-{args.variant}" for d in cfg.detectors]
    # an unknown name, then a missing checkpoint, fail before any dataset is read
    check_detectors(names)
    detectors = [(d, _nn_variant(d, args.variant)) for d in names]
    for _, var in detectors:
        if var is not None:
            for snr in cfg.snr_db:
                resolve_checkpoints(args.ckpt, var, snr)
    data_by_snr = {snr: _load_split(args.data, cfg, snr, "test")
                   for snr in cfg.snr_db}
    rows = _eval_detector_rows(cfg, detectors, data_by_snr, args.ckpt)
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
    # each latency trial detects one frame as a batch of 1
    items = list(zip(frames["y"][:, None], frames["h_est"][:, None]))
    rows = [
        {"detector": "ml",
         "params": 0,
         "flops_per_frame": ml_flops(table, cfg.m, cfg.n_r, cfg.t),
         "latency_ms_median": median_latency_ms(
             lambda it: classical_detect(*it, table, constellation, "ml"),
             items)},
        {"detector": "somp",
         "params": 0,
         "flops_per_frame": somp_flops(cfg.n_t, cfg.n_r, cfg.n_u, cfg.t),
         "latency_ms_median": median_latency_ms(
             lambda it: classical_detect(*it, table, constellation, "somp"),
             items)},
        {"detector": f"nn-{args.variant}",
         "params": count_params(aapd.net) + count_params(se.net),
         "flops_per_frame": count_flops(aapd.net, (1, cfg.n_r, cfg.t))
                            + count_flops(se.net, (1, cfg.n_u, cfg.t)),
         "latency_ms_median": median_latency_ms(
             lambda it: detect_frames(*it, aapd, se, table, constellation),
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
    snr = args.snr
    table = table_for(cfg)
    constellation = QamConstellation(cfg.m)
    aapd, se = load_detector(args.ckpt, args.variant, snr, cfg)
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
                res = run_classical(name, data, table, constellation)
            rows.append({"schema": SWEEP_SCHEMA, "detector": name,
                         "snr_db": float(snr), "csi_error_var": float(err_var), **res})
    rows.sort(key=lambda r: (r["detector"], r["csi_error_var"]))
    write_results(args.out, rows, SWEEP_COLUMNS, extra={"command": "sweep-csi-error"})
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="immimo",
                                description="IM-MIMO simulation and detection harness")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--config", required=True, help="key=value config file")
        if seed:
            sp.add_argument("--seed", type=int, default=None,
                            help="override the config seed")

    sp = sub.add_parser("gen-data", help="generate train/val/test dataset files")
    common(sp)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(fn=cmd_gen_data)

    sp = sub.add_parser("train", help="train the two-stage detector per SNR")
    common(sp)
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
    common(sp, seed=False)
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
