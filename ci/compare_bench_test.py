#!/usr/bin/env python3
"""Self-test for ci/compare_bench.py, the bench baseline gate.

Loads the gate from this directory and calls its main() on the committed
baselines in bench/baselines/ and on perturbed copies of them, so every
check the gate makes is pinned by a case that must fail without it.

    python3 ci/compare_bench_test.py
"""

import contextlib
import copy
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINES = HERE.parent / "bench" / "baselines"

spec = importlib.util.spec_from_file_location(
    "compare_bench", HERE / "compare_bench.py")
compare_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_bench)

BENCHES = ("verifier", "daemon", "interp", "cycles", "sweep", "atlas",
           "gbops")

# Fields whose perturbation in the run must fail the gate at every ratio:
# the workload, the exact keys, the flags that must be true, and the
# roster fields. A (section, field) pair perturbs the section's first row.
IDENTITY = {
    "verifier": [
        "bench", "seed", "profile", "programs", "mem_size",
        "accepted", "rejected_structural", "rejected_semantic",
        "insn_visits", "dedup_hits", "verdict_fingerprint", "deterministic",
    ],
    "daemon": [
        "bench", "seed", "profile", "clients", "programs", "mem_size",
        "total_verdicts", "verdict_fingerprint",
        "deterministic", "matches_in_process",
    ],
    "interp": [
        "bench", "seed", "profile", "programs", "runs_per_program",
        "mem_size", "step_limit", "reps",
        "ok_runs", "trap_runs", "step_limit_runs", "result_fingerprint",
        "identical",
    ],
    "cycles": [
        "bench", "pairs", "trials", "low_bits",
        ("algorithms", "name"),
    ],
    "sweep": [
        "bench", "width", "mul_width", "jobs", "simd",
        "campaign_evals", "all_hold",
        ("algorithms", "name"), ("algorithms", "pairs"),
        ("algorithms", "evals"),
    ],
    "atlas": [
        "bench", "width", "shift_width", "cast_width", "campaign_pairs",
        ("cells", "op"), ("cells", "algorithm"), ("cells", "width"),
        ("cells", "pairs"), ("cells", "sum_gap"), ("cells", "max_gap"),
        ("cells", "gap_cdf"), ("cells", "witness"),
        ("cast", "op"), ("cast", "param"), ("cast", "width"),
        ("cast", "tnums"), ("cast", "sum_gap"), ("cast", "max_gap"),
    ],
    "gbops": [
        "bench",
        ("benchmarks", "name"),
    ],
}

# Where each bench keeps the rate its throughput floor reads.
FLOOR_RATE = {
    "verifier": ("scaling", 0, "programs_per_s"),
    "daemon": ("verdicts_per_s",),
    "sweep": ("campaign_mevals_per_s",),
    "atlas": ("campaign_pairs_per_s",),
}

# Where each bench keeps a per-row cost its ceilings read.
CEILING_COST = {
    "cycles": ("algorithms", 0, "mean"),
    "gbops": ("benchmarks", 0, "ns_per_op"),
    "daemon": ("latency_p99_ms",),
}


def baseline(name):
    with open(BASELINES / f"BENCH_{name}.json") as fh:
        return json.load(fh)


def get(data, path):
    for step in path:
        data = data[step]
    return data


def put(data, path, value):
    get(data, path[:-1])[path[-1]] = value


def perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    return value[:-1]


def set_primary(data, value):
    """Sets the one number --trend tracks for data's bench."""
    bench = data["bench"]
    if bench == "gbench_ops":
        row = next(b for b in data["benchmarks"] if b["name"] == "mul/our_mul")
        row["ns_per_op"] = 1e9 / value
    elif bench == "verifier_throughput":
        data["scaling"][0]["programs_per_s"] = value
    else:
        data[{
            "daemon_throughput": "verdicts_per_s",
            "interpreter_throughput": "best_speedup",
            "mul_cycles": "speedup_our_vs_kern",
            "sweep_campaign": "campaign_mevals_per_s",
            "precision_atlas": "campaign_pairs_per_s",
        }[bench]] = value


def run(*args, files=()):
    """Runs the gate's main() on files written from dicts; the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(files):
            path = os.path.join(tmp, f"{i}.json")
            with open(path, "w") as fh:
                json.dump(data, fh)
            paths.append(path)
        argv = ["compare_bench.py", *args, *paths]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            old_argv, sys.argv = sys.argv, argv
            try:
                return compare_bench.main()
            except SystemExit as exit_:
                return exit_.code
            finally:
                sys.argv = old_argv


def gate(current, base, ratio):
    return run("--min-throughput-ratio", str(ratio), files=(current, base))


class Identity(unittest.TestCase):
    def test_every_baseline_passes_against_itself(self):
        for name in BENCHES:
            for ratio in (0, 0.4):
                with self.subTest(bench=name, ratio=ratio):
                    self.assertEqual(
                        gate(baseline(name), baseline(name), ratio), 0)

    def test_perturbing_an_identity_field_fails(self):
        for name, fields in IDENTITY.items():
            base = baseline(name)
            for field in fields:
                path = (field[0], 0, field[1]) if isinstance(
                    field, tuple) else (field,)
                current = copy.deepcopy(base)
                put(current, path, perturbed(get(base, path)))
                for ratio in (0, 0.4):
                    with self.subTest(bench=name, field=path, ratio=ratio):
                        self.assertEqual(gate(current, base, ratio), 1)

    def test_unknown_keys_are_not_gated(self):
        for name in BENCHES:
            current, base = baseline(name), baseline(name)
            current["unknown_section"] = {"a": 1}
            base.pop("build_info", None)
            with self.subTest(bench=name):
                self.assertEqual(gate(current, base, 0), 0)

    def test_missing_bench_key_means_verifier(self):
        current, base = baseline("verifier"), baseline("verifier")
        del current["bench"], base["bench"]
        self.assertEqual(gate(current, base, 0), 0)
        current["accepted"] += 1
        self.assertEqual(gate(current, base, 0), 1)

    def test_verifier_without_a_jobs1_point_fails_at_every_ratio(self):
        base = baseline("verifier")
        current = copy.deepcopy(base)
        current["scaling"][0]["jobs"] = 4
        self.assertEqual(gate(current, base, 0), 1)
        self.assertEqual(gate(base, current, 0), 1)

    def test_usage_errors_exit_2(self):
        unknown = dict(baseline("gbops"), bench="no_such_bench")
        self.assertEqual(gate(unknown, unknown, 0), 2)
        three = (baseline("sweep"),) * 3
        self.assertEqual(run("--min-throughput-ratio", "0", files=three), 2)


class Performance(unittest.TestCase):
    def test_rate_below_the_floor_fails_only_when_gated(self):
        for name, path in FLOOR_RATE.items():
            base = baseline(name)
            current = copy.deepcopy(base)
            put(current, path, 0.39 * get(base, path))
            with self.subTest(bench=name):
                self.assertEqual(gate(current, base, 0.4), 1)
                self.assertEqual(gate(current, base, 0), 0)

    def test_cost_above_the_ceiling_fails_only_when_gated(self):
        for name, path in CEILING_COST.items():
            base = baseline(name)
            current = copy.deepcopy(base)
            put(current, path, 2.6 * get(base, path))
            with self.subTest(bench=name):
                self.assertEqual(gate(current, base, 0.4), 1)
                self.assertEqual(gate(current, base, 0), 0)
                if name != "daemon":
                    zero = copy.deepcopy(base)
                    put(zero, path, 0)
                    self.assertEqual(gate(current, zero, 0.4), 0)

    def test_cycle_ceilings_skip_a_different_unit(self):
        base = baseline("cycles")
        current = copy.deepcopy(base)
        current["algorithms"][0]["mean"] *= 2.6
        current["unit"] = "ns"
        self.assertEqual(gate(current, base, 0.4), 0)

    def test_daemon_latencies_present_positive_and_ordered(self):
        base = baseline("daemon")
        for field, value in (("latency_p50_ms", 2 * base["latency_p99_ms"]),
                             ("latency_p50_ms", None),
                             ("latency_p99_ms", 0)):
            current = dict(base)
            current[field] = value
            with self.subTest(field=field, value=value):
                self.assertEqual(gate(current, base, 0), 1)

    def test_interp_speedup_floor(self):
        base = baseline("interp")
        for speedup, ratio, code in ((4.9, 0.4, 1), (4.9, 0, 0),
                                     (5.0, 0.4, 0)):
            current = dict(base, best_speedup=speedup)
            with self.subTest(speedup=speedup, ratio=ratio):
                self.assertEqual(gate(current, base, ratio), code)
        # The report's old threaded_available flag no longer lowers it.
        current = dict(base, best_speedup=4.9, threaded_available=False)
        self.assertEqual(gate(current, base, 0.4), 1)

    def test_cycles_speedup_floor(self):
        base = dict(baseline("cycles"), speedup_our_vs_kern=1.2)
        for speedup, ratio, code in ((0.99, 0.4, 1), (1.0, 0.4, 0),
                                     (0.99, 0, 0)):
            current = dict(base, speedup_our_vs_kern=speedup)
            with self.subTest(speedup=speedup, ratio=ratio):
                self.assertEqual(gate(current, base, ratio), code)
        base["speedup_our_vs_kern"] = 2.0
        current = dict(base, speedup_our_vs_kern=1.39)
        self.assertEqual(gate(current, base, 0.4), 1)


class Trend(unittest.TestCase):
    def series(self, name, values):
        runs = []
        for value in values:
            data = baseline(name)
            set_primary(data, value)
            runs.append(data)
        return run("--trend", files=runs)

    def test_sustained_slide_fails_and_small_or_short_ones_pass(self):
        for name in BENCHES:
            with self.subTest(bench=name):
                self.assertEqual(self.series(name, (100, 99, 98, 90)), 1)
                self.assertEqual(self.series(name, (100, 99, 98, 97)), 0)
                self.assertEqual(self.series(name, (100, 50, 10)), 0)

    def test_unusable_points_are_skipped(self):
        runs = []
        for value in (100, 99, 0, 98, None, 90):
            data = baseline("sweep")
            data["campaign_mevals_per_s"] = value
            runs.append(data)
        self.assertEqual(run("--trend", files=runs), 1)

    def test_mixed_benches_exit_2(self):
        runs = [baseline("sweep"), baseline("atlas")]
        self.assertEqual(run("--trend", files=runs), 2)


if __name__ == "__main__":
    unittest.main()
