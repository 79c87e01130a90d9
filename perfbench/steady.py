#!/usr/bin/env python3
"""Steadiness check: run the benchmark over several seeds per workload.

    python3 perfbench/steady.py [--workloads W,...] [--seeds 1-10]
                                [--seconds S] [--trace 0|1] [--out FILE]
                                [--compare FILE]

Runs perfbench/run.py once per (workload, seed), from the checkout root,
and prints for every metric its median, first and third quartile
(statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median -- the figure BENCHMARK.json's bounds are judged against. A
spread above a third of its bound is flagged. With --out, the raw per-run
metrics are also written as JSON. With --compare, each median is also
compared with the median of the same metric in an earlier --out file, and
a median that is worse by more than the metric's bound is flagged: two sets
of runs of the same code must agree within the bounds. Exits 1 if anything
is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    raw = {}
    worst_ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in sorted(runs[-1].items())
                if k in bounds), flush=True)
        raw[workload] = runs
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':44} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'drift':>7}")
        for name in sorted(runs[0]):
            values = [run[name] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not spread <= bound / 3:
                flag += "  <-- spread above a third of the bound"
                worst_ok = False
            # Drift: how much worse this median is than the earlier set's.
            drift = ""
            before = [run[name] for run in earlier.get(workload, [])
                      if name in run]
            if bound is not None and before:
                old = statistics.median(before)
                worse = (median - old if better[name] == "lower"
                         else old - median) / old
                drift = f"{worse:7.3f}"
                if worse > bound:
                    flag += "  <-- worse than the earlier set by more " \
                            "than the bound"
                    worst_ok = False
            print(f"  {name:44} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6} "
                  f"{drift:>7}{flag}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
