"""immimo benchmark: one workload per run, or all of them in turn.

    python3 perfbench/run.py --workload 4x1-static --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 2

Run from the repository root. The package is imported from ./src of the
same tree; without it the run stops with exit code 2. BLAS and OpenMP are
pinned to one thread before numpy loads. Metric names, units and the
workload list come from BENCHMARK.json at the root. `--trace 0` reports
the end-to-end metrics, measured in PARTS worker processes started one
after the other; `--trace 1` instruments the package in one process and
reports the per-layer metrics, writing the spans to perfbench/_traces/.

Human-readable lines go first; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import shutil
import subprocess
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(HERE, "_work")
TRACE_DIR = os.path.join(HERE, "_traces")
DEFAULT_SEED = 1
PARTS = 3            # worker processes of an untraced run
RUN_LIMIT_S = 170    # all parts of one run end within this


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _environment(np) -> dict:
    """numpy/BLAS build, BLAS thread count, cores and Python version."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "blas_threads": _blas_threads(np),
           "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "machine": platform.machine(),
           "pinned": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}
    return env


def _blas_threads(np):
    """Threads the bundled OpenBLAS will use, read from the library itself."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def _print_table(values: dict, spec: dict) -> None:
    width = max(len(k) for k in values)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["error_rate"] = "ratio"
    for k in sorted(values):
        print(f"{k:<{width}}  {values[k]:>14.6g}  {units.get(k, '')}")


def _metrics(values: dict, wanted: list, ledger) -> dict:
    """The listed metrics; one that was not measured fails a check."""
    for m in wanted:
        v = values.get(m["name"], math.nan)
        if not math.isfinite(v):
            ledger.check(False, f"metric {m['name']} measured")
            values[m["name"]] = 0.0
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted}


def _describe(np, wl, args) -> dict:
    env = _environment(np)
    print("env " + json.dumps(env, sort_keys=True))
    print("workload " + json.dumps({"name": wl.name, "why": wl.why, "seed": args.seed,
                                    "seconds": args.seconds, "trace": args.trace,
                                    "parts": 1 if args.trace else PARTS,
                                    "config": wl.config_fields(), "shares": wl.shares},
                                   sort_keys=True))
    return env


def run_part(args) -> int:
    """One part of an untraced run: set up, measure, print the raw rounds
    as the last line of standard output."""
    t_import = time.perf_counter()
    sys.path.insert(0, SRC)
    import harness
    import_s = time.perf_counter() - t_import
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix=f"part{args.part}-", dir=args.workdir)
    try:
        bench = harness.Bench(WORKLOADS[args.workload], args.seed, args.seconds, workdir,
                              setup_repeats=1, part=args.part, parts=args.parts,
                              handover=os.path.join(args.workdir, "train_state.pkl"))
        su = bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if su is None:
        for note in bench.ledger.notes:
            print(f"FAILED {note}", file=sys.stderr)
        return _fail(f"part {args.part}: set-up failed")
    print(json.dumps(bench.raw(import_s)))
    return 0


def run_untraced(args, spec: dict) -> int:
    """PARTS worker processes, one after the other, each measuring for an
    equal slice of --seconds; the end-to-end metrics pool their rounds.

    Each part sets up in a fresh process, so setup_s includes the imports
    and is a median over PARTS cold set-ups.
    """
    import numpy as np
    from workloads import WORKLOADS
    sys.path.insert(0, SRC)
    import harness

    wl = WORKLOADS[args.workload]
    _describe(np, wl, args)
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT)
    parts = []
    t0 = time.perf_counter()
    try:
        for i in range(PARTS):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl.name,
                   "--seed", str(args.seed), "--seconds", repr(args.seconds / PARTS),
                   "--trace", "0", "--part", str(i), "--parts", str(PARTS),
                   "--workdir", workdir]
            try:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                      timeout=max(deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                return _fail(f"part {i} did not finish in time")
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                return _fail(f"part {i} exited with code {proc.returncode}")
            parts.append(json.loads(lines[-1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - t0

    ledger = harness.Ledger()
    ledger.attempted = sum(r["attempted"] for r in parts)
    ledger.failed = sum(r["failed"] for r in parts)
    skipped = [note for r in parts for note in r["skipped"]]
    harness.check_training(ledger, [v for r in parts for v in r["aapd_losses"]],
                           parts[0]["se_loss"][0], parts[-1]["se_loss"][1], skipped)
    values = harness.end_to_end(parts)
    print("samples " + json.dumps({p: sum(len(r["per_unit_s"][p]) for r in parts)
                                   for p in harness.PHASES}, sort_keys=True))
    print(f"run_wall_s {wall:.3f}")
    _metrics(values, [m for m in spec["end_to_end"] if m["name"] != "success_rate"], ledger)
    error = ledger.failed / max(ledger.attempted, 1)
    values.update(success_rate=1.0 - error, error_rate=error)
    metrics = _metrics(values, spec["end_to_end"], ledger)
    _print_table(values, spec)
    for note in skipped:
        print(f"skipped {note}")
    for note in [n for r in parts for n in r["notes"]] + ledger.notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(_result_line(ledger.failed == 0, ledger.attempted, ledger.failed, metrics))
    return 0


def run_traced(args, spec: dict) -> int:
    """One process, instrumented; reports the per-layer metrics."""
    sys.path.insert(0, SRC)
    import numpy as np
    import harness
    import perlayer
    from tracer import SpanStats, Tracer
    from immimo import config, dataset
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    env = _describe(np, wl, args)
    tracer = Tracer()
    perlayer.instrument(tracer, dataset.table_for(config.ExperimentConfig(**wl.config_fields())))

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT)
    try:
        bench = harness.Bench(wl, args.seed, args.seconds, workdir, tracer)
        t0 = time.perf_counter()
        su = bench.run()
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = bench.ledger
    print("samples " + json.dumps({p: len(bench.samples[p].seconds) for p in harness.PHASES},
                                  sort_keys=True))
    print(f"run_wall_s {wall:.3f}")
    if su is None:
        for note in ledger.notes:
            print(f"FAILED {note}", file=sys.stderr)
        return _fail("set-up failed; no metrics")

    stats = SpanStats(tracer)
    values = perlayer.metrics(stats, tracer, bench, su)
    accounting = perlayer.step_accounting(stats, values, bench)
    print("aapd_step_accounting " + json.dumps(accounting, sort_keys=True))
    os.makedirs(TRACE_DIR, exist_ok=True)
    stem = os.path.join(TRACE_DIR, f"{wl.name}-seed{args.seed}")
    tracer.save(stem, {"env": env, "workload": wl.name, "seed": args.seed,
                       "accounting": accounting, "metrics": values,
                       "spans": stats.summary()})
    print(f"trace written to {os.path.relpath(stem, ROOT)}.npz/.json")

    metrics = _metrics(values, spec["per_layer"], ledger)
    _print_table(values, spec)
    for note in bench.skipped:
        print(f"skipped {note}")
    for note in ledger.notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(_result_line(ledger.failed == 0, ledger.attempted, ledger.failed, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from workloads import WORKLOADS
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one part of an untraced run, started by run_untraced
    p.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--parts", type=int, default=PARTS, help=argparse.SUPPRESS)
    p.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "immimo", "__init__.py")):
        return _fail(f"package source not found at {SRC}/immimo; run from a full checkout")
    try:
        with open(SPEC_PATH, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        return _fail(f"cannot read {SPEC_PATH}: {e}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    listed = [w["name"] for w in spec["workloads"]]
    if sorted(listed) != sorted(WORKLOADS):
        return _fail(f"BENCHMARK.json workloads {listed} != {sorted(WORKLOADS)}")
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {listed} or all")
    if args.trace:
        return run_traced(args, spec)
    if args.part is not None:
        return run_part(args)
    return run_untraced(args, spec)


if __name__ == "__main__":
    sys.exit(main())
