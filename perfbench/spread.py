"""Run-to-run spread of the end-to-end metrics, the way the bounds are judged.

    python3 perfbench/spread.py --workloads 4x1-static,8x2-csi --seeds 1-10
    python3 perfbench/spread.py --compare perfbench/_results/a.json perfbench/_results/b.json

The first form runs run.py once per workload and seed (one process at a
time), then prints for each metric the median and the interquartile range
of its values as a share of the median (`statistics.quantiles(n=4)`),
against the metric's bound from BENCHMARK.json. The raw results go to
perfbench/_results/. The second form compares the medians of two such
files: a metric fails when the second median is worse than the first by
more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(workloads, seeds, seconds) -> dict:
    out = {}
    for wl in workloads:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--trace", "0"]
            if seconds:
                cmd += ["--seconds", str(seconds)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            res = json.loads(lines[-1])
            res["wall_s"] = wall
            out.setdefault(wl, []).append(res)
            m = res["metrics"]
            print(f"{wl} seed {seed}: {wall:.1f} s, correct={res['correct']}, "
                  f"aapd_step_ms_p90={m['aapd_step_ms_p90']['value']:.1f}, "
                  f"nn_frames_per_s={m['nn_frames_per_s']['value']:.1f}", flush=True)
    return out


def spreads(results: dict, spec: dict) -> bool:
    ok = True
    for wl, runs in results.items():
        if len(runs) < 2:
            print(f"\n{wl}: {len(runs)} run, no spread")
            continue
        print(f"\n{wl} ({len(runs)} runs, wall {min(r['wall_s'] for r in runs):.1f}-"
              f"{max(r['wall_s'] for r in runs):.1f} s, all correct: "
              f"{all(r['correct'] for r in runs)})")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if m["name"] == "setup_s" or share < m["bound"] / 3 else "  <-- over bound/3"
            if m["name"] != "setup_s" and share > m["bound"]:
                ok = False
            print(f"  {m['name']:<20} median {med:>12.5g} {m['unit']:<6} "
                  f"spread {share:7.2%}  bound {m['bound']:.0%}{flag}")
    return ok


def compare(first: dict, second: dict, spec: dict) -> bool:
    ok = True
    for wl in first:
        print(f"\n{wl}")
        for m in spec["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first[wl])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second[wl])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            bad = worse > m["bound"]
            ok &= not bad
            print(f"  {m['name']:<20} {a:>12.5g} -> {b:>12.5g}  worse by {worse:7.2%}"
                  f"  bound {m['bound']:.0%}{'  <-- FAIL' if bad else ''}")
    return ok


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=None, help="comma list (default: all)")
    p.add_argument("--seeds", default="1-10", help="range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--out", default=None, help="results file name in perfbench/_results")
    p.add_argument("--compare", nargs=2, metavar="RESULTS")
    args = p.parse_args()
    spec = _spec()
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path, encoding="utf-8") as f:
                loaded.append(json.load(f))
        return 0 if compare(*loaded, spec) else 1
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    results = collect(workloads, _seeds(args.seeds), args.seconds)
    out_dir = os.path.join(HERE, "_results")
    os.makedirs(out_dir, exist_ok=True)
    name = args.out or f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)
    print(f"results in {os.path.relpath(os.path.join(out_dir, name), ROOT)}")
    return 0 if spreads(results, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
