#!/usr/bin/env python3
"""Benchmark self-test.

    python3 perfbench/selftest.py [--seconds 2] [--seed 1]

Run from the checkout root. For every workload in BENCHMARK.json:

  * a short untraced run must be correct and report exactly the end_to_end
    metrics, each with the unit BENCHMARK.json gives it;
  * two short traced runs must be correct, report exactly the per_layer
    metrics with their units, and agree on every exact count. The daemon's
    analysis and store counts are compared with a tolerance: two clients
    can miss the same program at the same moment.

With a seed that has recorded answers in perfbench/answers.json, run.py
also checks every output against them. Exits 1 on the first failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Per-layer metrics that are a pure function of the seed.
EXACT = ("bpf.insn_visits", "bpf.visits_per_insn", "bpf.accept_frac",
         "service.dedup_hit_frac", "verify.evals", "verify.pairs",
         "verify.shards", "bpf.interp.steps", "service.fuzz.concrete_runs",
         "service.fuzz.step_limit_frac")
# Counts that may differ by a few concurrent double misses.
TOLERANT = ("service.daemon.analyses", "service.daemon.stores")


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit(f"FAIL {workload} trace={trace}: exit "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def check_metrics(workload, result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise SystemExit(f"FAIL {workload}: metrics differ from "
                         f"BENCHMARK.json (missing {missing}, extra {extra}, "
                         f"wrong unit {wrong})")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"FAIL {workload}: run not correct")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)

    for workload in (w["name"] for w in bench["workloads"]):
        plain = run(workload, args.seed, args.seconds, 0)
        check_metrics(workload, plain, bench["end_to_end"])
        first = run(workload, args.seed, args.seconds, 1)
        second = run(workload, args.seed, args.seconds, 1)
        for traced in (first, second):
            check_metrics(workload, traced, bench["per_layer"])
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                raise SystemExit(f"FAIL {workload}: {name} {a} != {b}")
        for name in TOLERANT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if abs(a - b) > max(2, 0.05 * max(a, b)):
                raise SystemExit(f"FAIL {workload}: {name} {a} vs {b}")
        print(f"ok {workload}: {len(plain['metrics'])} end-to-end and "
              f"{len(first['metrics'])} per-layer metrics, exact counts "
              f"repeat", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
