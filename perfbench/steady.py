#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json once per seed, one process per run,
and fails if any output check fails.  With two or more seeds it reports, for
every end-to-end metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median, quartiles as
statistics.quantiles(values, n=4) gives them) against the metric's bound.

Run from the repository root:

    python3 perfbench/steady.py --seeds 1 --verbose   # every workload once, full output
    python3 perfbench/steady.py                       # 10 seeds: the steadiness record
    python3 perfbench/steady.py --seeds 5 --workload kv-churn-1m
    python3 perfbench/steady.py --trace 1 --seeds 1   # the traced runs
    python3 perfbench/steady.py --json out.json       # also write the raw runs
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))


def run_once(workload, seed, seconds, trace, verbose):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    if verbose:
        print(out.stdout, end="", flush=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output check failed:\n{out.stdout}")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--verbose", action="store_true")
    ap.add_argument("--json")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in BENCH["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs = {}
    for w in workloads:
        runs[w] = []
        for s in seeds:
            r = run_once(w, s, BENCH["run_seconds"], args.trace, args.verbose)
            runs[w].append({"seed": s, "metrics": {k: v["value"] for k, v in r["metrics"].items()}})
            print(f"{w} seed={s} " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[w][-1]["metrics"].items()), flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    if args.seeds < 2 or args.trace:
        return
    print()
    print("| workload | metric | median | q1 | q3 | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|---|")
    worst = 0.0
    for w in workloads:
        for m in BENCH["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ratio = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, ratio)
            print(f"| {w} | {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {m['bound']} | {ratio:.2f} |")
    print(f"\nworst spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
