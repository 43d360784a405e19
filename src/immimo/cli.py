"""Command-line harness: gen-data, train, eval, bench, sweep-csi-error.

Exit codes: 0 success, 2 usage/config error (including a config whose
arrays do not fit in memory), 3 I/O error, 4 numerical failure. Detection
and generation run in one thread; the `threads` config key is accepted and
does nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from immimo.config import ConfigError, ExperimentConfig, check_detectors, load_config, snr_tag
from immimo.cvnn import count_flops, count_params
from immimo.dataset import (
    check_channel,
    check_header_matches,
    check_indicators,
    generate_arrays,
    read_dataset,
    table_for,
    write_dataset,
)
from immimo.detectors import classical_detect
from immimo.files import replace_file
from immimo.linalg import SingularMatrixError
from immimo.modulation import QamConstellation
from immimo.phy import demap_frame
from immimo.runner import (
    BENCH_COLUMNS,
    BENCH_SCHEMA,
    EVAL_COLUMNS,
    EVAL_SCHEMA,
    LATENCY_TRIALS,
    ML_GUARD_HYPOTHESES,
    SWEEP_COLUMNS,
    SWEEP_SCHEMA,
    checkpoint_paths,
    load_detector,
    median_latency_ms,
    ml_flops,
    rows_to_csv,
    run_classical,
    run_nn,
    somp_flops,
    write_results,
)
from immimo.twostage import build_aapd, build_se, detect_frames, train_full


def _dataset_path(data_dir: str, snr_db: float, split: str) -> str:
    return os.path.join(data_dir, f"snr{snr_tag(snr_db)}_{split}.imds")


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _warn_ml_guard(table, m: int) -> None:
    hyp = table.n_l * m ** table.n_u
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


def _load_split(data_dir: str, cfg: ExperimentConfig, table, snr: float, split: str):
    path = _dataset_path(data_dir, snr, split)
    if not os.path.exists(path):
        raise ConfigError(f"missing dataset file {path}")
    header, arrays = read_dataset(path)
    check_header_matches(header, cfg, path)
    if header.snr_db != float(np.float32(snr)):     # the header holds it at f32
        raise ConfigError(f"{path}: header snr_db={header.snr_db:g} is not the SNR point {snr:g}")
    check_indicators(arrays, table, path)
    check_channel(arrays, cfg, path)
    return arrays


def _load_pooled(data_dir: str, cfg: ExperimentConfig, table, snrs, split: str) -> dict:
    parts = [_load_split(data_dir, cfg, table, snr, split) for snr in snrs]
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    os.makedirs(args.out, exist_ok=True)
    table = table_for(cfg)
    # snr None: one model from all SNR points pooled
    for snr in [None] if args.mixed else cfg.snr_db:
        pool = cfg.snr_db if snr is None else [snr]
        train = _load_pooled(args.data, cfg, table, pool, "train")
        val = _load_pooled(args.data, cfg, table, pool, "val")
        tag = "mixed" if snr is None else snr_tag(snr)
        t0 = time.monotonic()
        aapd, se, history = train_full(
            train, val, cfg, table, variant=args.variant,
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
        replace_file(log_path, [line.encode("utf-8") for line in lines])
        converged = all(r["converged"] for r in history if "converged" in r)
        status = "" if converged else " (warning: epoch cap before loss target)"
        print(f"trained {tag} dB -> {aapd_path}, {se_path} "
              f"[{time.monotonic() - t0:.1f} s]{status}")
    return 0


def _resolve_detectors(names, variant: str) -> list:
    """(name, NN variant) per detector name, the variant None for ml and
    somp; "nn" is named and runs "nn-<variant>". ConfigError on an unknown
    name or on two names that run the same detector (e.g. "nn" and
    "nn-complex" when `variant` is complex)."""
    check_detectors(names)
    seen = {}
    for d in names:
        name = f"nn-{variant}" if d == "nn" else d
        if name in seen:
            raise ConfigError(f"repeated detector {d!r} "
                              f"(runs the same detector as {seen[name]!r})")
        seen[name] = d
    return [(name, name.partition("-")[2] or None) for name in seen]


def _detector_rows(detectors, data, load_pair, table, constellation, fixed) -> list:
    """`fixed` (schema, point coordinates) plus the metrics on `data` of each
    (name, NN variant) pair of _resolve_detectors: run_classical for ml and
    somp, run_nn on the (AAPD, SE) pair load_pair(variant) for a variant."""
    rows = []
    for name, var in detectors:
        if var is None:
            res = run_classical(name, data, table, constellation)
        else:
            res = run_nn(*load_pair(var), data, table, constellation)
        rows.append({**fixed, "detector": name, **res})
    return rows


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    names = cfg.detectors if args.detectors is None else args.detectors.split(",")
    # an unknown or repeated name, then a missing or malformed checkpoint,
    # fail before any dataset is read
    detectors = _resolve_detectors(names, args.variant)
    pairs = {(var, snr): load_detector(args.ckpt, var, snr, cfg)
             for _, var in detectors if var is not None for snr in cfg.snr_db}
    table = table_for(cfg)
    constellation = QamConstellation(cfg.m)
    data_by_snr = {snr: _load_split(args.data, cfg, table, snr, "test")
                   for snr in cfg.snr_db}
    if ("ml", None) in detectors:
        _warn_ml_guard(table, cfg.m)
    rows = []
    for snr, data in data_by_snr.items():
        rows += _detector_rows(detectors, data, lambda var: pairs[var, snr], table,
                               constellation, {"schema": EVAL_SCHEMA, "snr_db": float(snr)})
    rows.sort(key=lambda r: (r["detector"], r["snr_db"]))
    write_results(args.out, rows, EVAL_COLUMNS, extra={"command": "eval"})
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    table = table_for(cfg)
    constellation = QamConstellation(cfg.m)
    _warn_ml_guard(table, cfg.m)
    frames = generate_arrays(cfg, cfg.snr_db[0], count=8, start_index=0)
    aapd = build_aapd(cfg.n_r, cfg.t, cfg.n_t, variant=args.variant,
                      conv_channels=tuple(cfg.conv_channels),
                      dense_units=tuple(cfg.dense_units), seed=cfg.seed)
    se = build_se(cfg.n_u, cfg.t, variant=args.variant,
                  channels=tuple(cfg.se_channels), seed=cfg.seed)
    # time the precision eval runs at: the tensors a checkpoint holds
    aapd.net.quantize_state()
    se.net.quantize_state()
    # each latency trial detects one frame, as a batch of 1, down to its bits
    items = list(zip(frames["y"][:, None], frames["h_est"][:, None]))

    def classical_bits(method):
        return lambda it: demap_frame(
            *classical_detect(*it, table, constellation, method), table, constellation)

    rows = [
        {"detector": "ml",
         "params": 0,
         "flops_per_frame": ml_flops(table, cfg.m, cfg.n_r, cfg.t),
         "latency_ms_median": median_latency_ms(classical_bits("ml"), items)},
        {"detector": "somp",
         "params": 0,
         "flops_per_frame": somp_flops(cfg.n_t, cfg.n_r, cfg.n_u, cfg.t),
         "latency_ms_median": median_latency_ms(classical_bits("somp"), items)},
        {"detector": f"nn-{args.variant}",
         "params": count_params(aapd.net) + count_params(se.net),
         "flops_per_frame": count_flops(aapd.net, (1, cfg.n_r, cfg.t))
                            + count_flops(se.net, (1, cfg.n_u, cfg.t)),
         "latency_ms_median": median_latency_ms(
             lambda it: detect_frames(*it, aapd, se, table, constellation),
             items)},
    ]
    for r in rows:
        r.update({"schema": BENCH_SCHEMA, "trials": LATENCY_TRIALS})
    if args.out is not None:
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
    detectors = _resolve_detectors(["ml", "somp", "nn"], args.variant)
    pair = load_detector(args.ckpt, args.variant, snr, cfg)
    _warn_ml_guard(table, cfg.m)
    start = cfg.frames_train + cfg.frames_val
    rows = []
    for err_var in cfg.sweep_error_var:
        data = generate_arrays(replace(cfg, csi_error_var=float(err_var)), snr,
                               cfg.frames_test, start)
        rows += _detector_rows(detectors, data, lambda var: pair, table, constellation,
                               {"schema": SWEEP_SCHEMA, "snr_db": float(snr),
                                "csi_error_var": float(err_var)})
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
                    help="comma list: ml,somp,nn,nn-complex,nn-real")
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
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    except (SingularMatrixError, FloatingPointError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
