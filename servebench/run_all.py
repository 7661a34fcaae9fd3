#!/usr/bin/env python3
"""Runs every workload over several seeds and reports each metric's spread.

Run from the repository root:

    python3 servebench/run_all.py --seeds 1-10 --seconds 10

Workloads are interleaved round-robin (seed 1 of each workload, then
seed 2, ...), so a slow phase of the host does not land on one workload.
For every end-to-end metric it prints the median and the interquartile
range as a share of the median, with the quartiles computed as
`statistics.quantiles(values, n=4)` computes them, and compares the
spread with the metric's bound in BENCHMARK.json. Raw results go to
`servebench/.work/run_all-<stamp>.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    took = time.time() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result.get("correct"):
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode})")
    return result, took, lines[:-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in workloads}
    raw = []
    for seed in seeds(args.seeds):
        for w in workloads:
            result, took, notes = run_one(w, seed, seconds, args.trace)
            raw.append({"workload": w, "seed": seed, "wall_s": took, "result": result,
                        "notes": notes})
            print(f"{w} seed={seed} wall={took:.1f}s " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            for k, v in result["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    out = os.path.join(HERE, ".work", f"run_all-{int(time.time())}.json")
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)
    print(f"raw results: {out}")
    worst = 0.0
    for w in workloads:
        for k, vs in values[w].items():
            if len(vs) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds.get(k)
            share = f" = {spread / bound:.2f} of bound {bound}" if bound else ""
            if bound and k != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{w:16} {k:28} median={q2:<14.6g} iqr/median={spread:.4f}{share}")
    if args.trace == 0:
        print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
