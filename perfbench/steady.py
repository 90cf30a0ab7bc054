#!/usr/bin/env python3
"""Steadiness check: runs each workload N times, one seed per run, and
prints the median and quartiles of every end-to-end metric, with whether
its spread (interquartile range over median) fits the metric's bound.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads churn

Seeds run from 1. The benchmark command, workloads, run length and bounds
come from BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    ap.add_argument("--json", action="store_true", help="also print raw results")
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = [n for n in names if n in a.workloads.split(",")]
    ok = True
    for w in names:
        runs = []
        for i in range(a.runs):
            runs.append(run_once(bench["command"], w, i + 1, seconds, 0))
            if a.json:
                print(json.dumps({"workload": w, "seed": i + 1, **runs[-1]}))
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"== {w}: {a.runs} runs, seeds 1..{a.runs}, "
              f"correct={correct}, failed share={sorted(shares)}")
        print(f"   {'metric':<18} {'unit':<10} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  fits")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            fits = spread <= m["bound"]
            third = "" if spread < m["bound"] / 3 else " (over a third)"
            ok &= fits and correct and len(shares) == 1
            print(f"   {m['name']:<18} {m['unit']:<10} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{spread:>8.4f} {m['bound']:>6}  {'yes' if fits else 'NO'}{third}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
