#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly, interleaved, and
print each end-to-end metric's median, quartiles and spread against the
bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--sets 1]

Runs go through perfbench/run.py from the repository root, one process
at a time, each for `run_seconds` of BENCHMARK.json, in the order w1 s1,
w2 s1, w3 s1, w1 s2, ... so that slow drift of the host spreads over all
workloads alike. The first set runs seeds 1, 2, ... The spread of a
metric is (Q3 - Q1) / median over its runs, with the quartiles of
`statistics.quantiles(values, n=4)`. Each set also prints its shares of
failed operations per workload. With `--sets 2` a second set follows on
seeds 1001, 1002, ..., and the script prints how far each second median
moved from the first. Prints `nproc` first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: answers failed their checks")
    return result


def one_set(workloads, seeds, seconds):
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(run_once(w, seed, seconds))
            print(f"  ran {w} seed {seed}", file=sys.stderr)
    return runs


def summarize(bench, runs, label):
    print(f"\n{label}")
    print(f"{'workload':14s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>8s} {'bound':>6s} {'spread/bound':>12s}")
    medians = {}
    for w, results in runs.items():
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            medians[(w, m["name"])] = med
            print(f"{w:14s} {m['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.4f} {m['bound']:6.3f} {spread / m['bound']:12.3f}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{w:14s} failed share(s): {sorted(shares)}")
    return medians


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"nproc: {os.cpu_count()}")
    first = summarize(bench, one_set(workloads, range(1, args.runs + 1), bench["run_seconds"]),
                      "set 1")
    if args.sets == 2:
        second = summarize(bench, one_set(workloads, range(1001, 1001 + args.runs),
                                          bench["run_seconds"]), "set 2")
        print("\nsecond median vs first (positive = worse)")
        for (w, name), med in first.items():
            m = next(x for x in bench["end_to_end"] if x["name"] == name)
            change = (second[(w, name)] - med) / med
            worse = change if m["better"] == "lower" else -change
            print(f"{w:14s} {name:14s} {worse:+8.4f} (bound {m['bound']})")


if __name__ == "__main__":
    main()
