#!/usr/bin/env python3
"""Steadiness check: two alternating sets of runs of the same code.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed 1]

For each workload, run i of set A and run i of set B use the same seed
(seed + i) and alternate which set goes first.  For every end-to-end
metric of BENCHMARK.json it prints each set's median, its quartile spread
((Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them)
and whether the sets agree within the metric's bound: each set's spread
is within the bound (setup_s exempt) and neither median is worse than the
other by more than the bound.  Exits 1 when a set disagrees or a run
fails its output check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def worse_by(metric, reference, value):
    """How much worse `value` is than `reference`, as a share of it."""
    if reference == 0:
        return 0.0
    change = (value - reference) / reference
    return change if metric["better"] == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    agree = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                result = run_once(workload, args.seed + i, args.seconds)
                if not result["correct"]:
                    print(f"{workload} seed {args.seed + i}: output check "
                          "failed")
                    agree = False
                sets[name].append(result)
                values = " ".join(
                    f"{m}={v['value']:.6g}" for m, v in result["metrics"].items())
                print(f"  {workload} set {name} seed {args.seed + i}: "
                      f"{values}", flush=True)
        failed = sum(r["failed"] for r in sets["A"] + sets["B"])
        attempted = sum(r["attempted"] for r in sets["A"] + sets["B"])
        print(f"== {workload}: {args.runs} runs per set, "
              f"{failed}/{attempted} failed checks")
        print(f"{'metric':<18}{'median A':>14}{'median B':>14}"
              f"{'spread A':>10}{'spread B':>10}{'bound':>7}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            spread_a, spread_b = spread(a), spread(b)
            spread_ok = name == "setup_s" or max(spread_a, spread_b) <= bound
            medians_ok = (worse_by(metric, med_a, med_b) <= bound and
                          worse_by(metric, med_b, med_a) <= bound)
            steady = max(spread_a, spread_b) < bound / 3
            verdict = "agree" if spread_ok and medians_ok else "DISAGREE"
            if verdict == "agree" and not steady and name != "setup_s":
                verdict += " (spread above a third of the bound)"
            agree = agree and spread_ok and medians_ok
            print(f"{name:<18}{med_a:>14.6g}{med_b:>14.6g}"
                  f"{spread_a:>10.4f}{spread_b:>10.4f}{bound:>7.2f}  {verdict}",
                  flush=True)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
