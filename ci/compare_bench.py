#!/usr/bin/env python3
"""Bench gate: compares a bench's JSON report with its committed baseline.

Each bench is one SCHEMA entry, keyed by the report's "bench" value (a
report without one is a verifier_throughput report). One gate reads the
entry in two passes:

 * Identity, at every ratio. The benches are seeded or exhaustive, so these
   fields are the same on any machine, build type and SIMD tier: the
   workload keys (a mismatch means the files are different experiments),
   the exact keys, the flags that must be true, and the rosters, whose rows
   must match by key and then field by field. A mismatch means the
   semantics changed: find the bug, or rerun the bench with the baseline's
   command line and commit the new JSON.

 * Performance, only when --min-throughput-ratio is above 0. CI runners
   vary, so the tolerance is generous: a floor rate may not fall below
   ratio x baseline (0.4 by default, a 2.5x slowdown), and a ceiling cost
   may not rise above baseline / ratio. Three hooks make the checks a table
   cannot express: the daemon's latency sanity (at every ratio) and p99
   ceiling, and the interp and cycles floors on a within-process speedup.
   Debug and sanitizer builds pass 0 and keep the identity checks only.

Trend mode (--trend) takes the same bench's reports from consecutive runs,
oldest first, and tracks one metric: the floor rate, else the speedup, else
gbench_ops' mul/our_mul ops/s. It fails only on a sustained slide: 3
consecutive run-over-run drops that lose more than 5% in total. Each step
may be inside the single-run floor; the slide may not.

Top-level keys no schema entry names (say "build_info" or "metrics") are
tolerated in both files.

Exit status: 0 ok, 1 regression, 2 usage/IO error.
"""

import argparse
import json
import sys

DEFAULT_BENCH = "verifier_throughput"
TREND_WINDOW = 3
TREND_TOLERANCE = 0.05


def daemon_latency(current, baseline, ratio, failures):
    """p50 and p99 present, positive and ordered; p99 under its ceiling."""
    p50, p99 = current.get("latency_p50_ms"), current.get("latency_p99_ms")
    numbers = [isinstance(p, (int, float)) for p in (p50, p99)]
    for key, value, number in zip(("p50", "p99"), (p50, p99), numbers):
        if not number or value <= 0:
            failures.append(f"latency_{key}_ms is {value!r}, expected > 0")
    if all(numbers) and p50 > p99:
        failures.append(f"latency_p50_ms {p50} > latency_p99_ms {p99}")
    base_p99 = baseline.get("latency_p99_ms", 0.0)
    if ratio > 0 and base_p99 and numbers[1]:
        ceiling = base_p99 / ratio
        print(f"bench gate: p99 latency {p99:.3f} ms vs baseline "
              f"{base_p99:.3f} (ceiling {ceiling:.3f})")
        if p99 > ceiling:
            failures.append(f"p99 latency regressed to {p99:.3f} ms "
                            f"(ceiling {ceiling:.3f} = baseline / {ratio})")


# workload: keys that must match before anything else compares ("bench" is
#   always one).
# exact: keys that must equal the baseline's. true: flags the run must
#   report as true.
# rosters: section -> (row-key fields, exact fields). The row keys of the
#   two files must match, then each row's fields must.
# report: keys printed, never gated.
# floor: the primary rate, a top-level key or (section, key, value, field)
#   in the row whose key is value. The row must exist at every ratio.
# ceilings: (roster section, cost field, unit key the two files must agree
#   on for the ceilings to apply; None for no unit).
# speedup: (key, floor function of current and baseline).
# hook: a function adding the checks a table cannot express.
# trend: (metric, scale) for a bench with neither floor nor speedup; the
#   trend tracks scale / metric.
SCHEMA = {
    "verifier_throughput": {
        "workload": ("seed", "profile", "programs", "mem_size"),
        "exact": ("accepted", "rejected_structural", "rejected_semantic",
                  "insn_visits", "dedup_hits", "verdict_fingerprint",
                  "deterministic"),
        "floor": ("scaling", "jobs", 1, "programs_per_s"),
    },
    "daemon_throughput": {
        "workload": ("seed", "profile", "clients", "programs", "mem_size"),
        "exact": ("total_verdicts", "verdict_fingerprint"),
        "true": ("deterministic", "matches_in_process"),
        "floor": "verdicts_per_s",
        "hook": daemon_latency,
    },
    "interpreter_throughput": {
        "workload": ("seed", "profile", "programs", "runs_per_program",
                     "mem_size", "step_limit", "reps"),
        "exact": ("ok_runs", "trap_runs", "step_limit_runs",
                  "result_fingerprint"),
        "true": ("identical",),
        # The decoded executor over the legacy interpreter, an absolute
        # floor.
        "speedup": ("best_speedup", lambda current, baseline: 5.0),
    },
    "mul_cycles": {
        "workload": ("pairs", "trials", "low_bits"),
        "rosters": {"algorithms": (("name",), ())},
        "ceilings": ("algorithms", "mean", "unit"),
        # Fig. 5: our_mul never slower than kern_mul, and within 0.7x of
        # the baseline's lead.
        "speedup": ("speedup_our_vs_kern", lambda current, baseline: max(
            1.0, baseline.get("speedup_our_vs_kern", 0.0) * 0.7)),
    },
    "sweep_campaign": {
        "workload": ("width", "mul_width", "jobs", "simd"),
        "exact": ("campaign_evals",),
        "true": ("all_hold",),
        "rosters": {"algorithms": (("name",), ("pairs", "evals"))},
        "report": ("simd_kernels",),
        "floor": "campaign_mevals_per_s",
    },
    "precision_atlas": {
        "workload": ("width", "shift_width", "cast_width"),
        "exact": ("campaign_pairs",),
        "rosters": {
            "cells": (("op", "algorithm", "width"),
                      ("pairs", "sum_gap", "max_gap", "gap_cdf", "witness")),
            "cast": (("op", "param"), ("width", "tnums", "sum_gap",
                                       "max_gap")),
        },
        "floor": "campaign_pairs_per_s",
    },
    "gbench_ops": {
        "rosters": {"benchmarks": (("name",), ())},
        "ceilings": ("benchmarks", "ns_per_op", None),
        "trend": (("benchmarks", "name", "mul/our_mul", "ns_per_op"), 1e9),
    },
}


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        print(f"error: cannot load {path}: {err}", file=sys.stderr)
        sys.exit(2)


def differ(current, baseline, keys, where=""):
    """One failure per key whose value differs between the two dicts."""
    return [f"{where}{key}: current {current.get(key)!r} != baseline "
            f"{baseline.get(key)!r}"
            for key in keys if current.get(key) != baseline.get(key)]


def pick(data, metric):
    """The number at metric (see SCHEMA's floor). A missing number reads
    0.0; a missing row raises LookupError."""
    if isinstance(metric, str):
        return data.get(metric, 0.0)
    section, key, value, field = metric
    for row in data.get(section, []):
        if row.get(key) == value:
            return row.get(field, 0.0)
    raise LookupError(f"no {key}={value} {section} row")


def describe(metric):
    return metric if isinstance(metric, str) else "{}[{}={}].{}".format(
        *metric)


def gate(schema, current, baseline, ratio):
    """The failures of current against baseline under one SCHEMA entry."""
    failures = differ(current, baseline,
                      ("bench", *schema.get("workload", ())))
    if failures:
        print("bench gate: baseline and run are DIFFERENT experiments:")
        for failure in failures:
            print(f"  {failure}")
        print("refresh bench/baselines/ with the workflow's exact bench "
              "command if the workload change was intentional")
        return failures

    failures = differ(current, baseline, schema.get("exact", ()))
    failures += [f"{key} is {current.get(key)!r}, expected true"
                 for key in schema.get("true", ())
                 if current.get(key) is not True]
    rosters = schema.get("rosters", {})
    rows = {}
    for section, (key_fields, exact) in rosters.items():
        current_rows, baseline_rows = (
            {tuple(row.get(f) for f in key_fields): row
             for row in data.get(section, [])}
            for data in (current, baseline))
        if set(current_rows) != set(baseline_rows):
            only = sorted(set(current_rows) ^ set(baseline_rows), key=repr)
            failures.append(f"{section} roster changed: {only} in one file "
                            "only")
            continue
        rows[section] = current_rows, baseline_rows
        for key, row in baseline_rows.items():
            failures += differ(current_rows[key], row, exact,
                               f"{section}[{'/'.join(map(str, key))}].")
    for key in schema.get("report", ()):
        print(f"bench gate: {key} {current.get(key)!r} (baseline "
              f"{baseline.get(key)!r}; reported, not gated)")
    if len(rows) < len(rosters):
        return failures  # a changed roster skips the perf checks

    if "hook" in schema:
        schema["hook"](current, baseline, ratio, failures)
    if "floor" in schema:
        metric = schema["floor"]
        try:
            rate, base = (pick(data, metric) for data in (current, baseline))
        except LookupError as err:
            failures.append(f"{err} in the run or the baseline")
        else:
            if ratio > 0 and base and rate is not None:
                share = rate / base
                print(f"bench gate: {describe(metric)} {rate:.1f} vs "
                      f"baseline {base:.1f} ({share:.2f}x, floor {ratio})")
                if share < ratio:
                    failures.append(f"{describe(metric)} regressed to "
                                    f"{share:.2f}x of baseline")
    if ratio > 0 and "speedup" in schema:
        key, floor_of = schema["speedup"]
        floor, speedup = floor_of(current, baseline), current.get(key, 0.0)
        print(f"bench gate: {key} {speedup!r} (floor {floor:.3f})")
        if not isinstance(speedup, (int, float)) or speedup < floor:
            failures.append(f"{key} {speedup!r} fell below the {floor:.3f}x "
                            "floor")
    section, field, unit = schema.get("ceilings", (None, None, None))
    if ratio > 0 and section and current.get(unit) != baseline.get(unit):
        print(f"bench gate: skipping {section} ceilings ({unit} "
              f"{current.get(unit)!r} != baseline {baseline.get(unit)!r})")
    elif ratio > 0 and section:
        current_rows, baseline_rows = rows[section]
        for key, row in baseline_rows.items():
            cost, base = current_rows[key].get(field, 0.0), row.get(field, 0.0)
            if base and (not isinstance(cost, (int, float))
                         or cost > base / ratio):
                failures.append(f"{section}[{'/'.join(map(str, key))}]."
                                f"{field} {cost!r} exceeded ceiling "
                                f"{base / ratio:.1f} (baseline {base} / "
                                f"{ratio})")
    return failures


def trend(paths):
    """Sustained-slide detector over a chronological series of runs."""
    runs = [(path, load(path)) for path in paths]
    name = runs[0][1].get("bench", DEFAULT_BENCH)
    for path, data in runs:
        bench = data.get("bench", DEFAULT_BENCH)
        if bench != name:
            print(f"error: {path} is bench {bench!r}, series started as "
                  f"{name!r}", file=sys.stderr)
            return 2
    if name not in SCHEMA:
        print(f"error: no schema for bench {name!r}", file=sys.stderr)
        return 2
    schema = SCHEMA[name]
    metric, scale = schema.get("trend") or (
        schema.get("floor") or schema["speedup"][0], None)
    label = describe(metric) if scale is None else (
        f"{scale:g} / {describe(metric)}")

    points = []
    for path, data in runs:
        try:
            value = pick(data, metric)
        except LookupError:
            value = None
        if isinstance(value, (int, float)) and value > 0:
            points.append((path, scale / value if scale else float(value)))
        else:
            print(f"trend: skipping {path} (no usable {label}: {value!r})")
    print(f"trend: {name} {label}, {len(points)} usable runs (window "
          f"{TREND_WINDOW}, tolerance {TREND_TOLERANCE:.0%}):")
    for path, value in points:
        print(f"  {value:12.3f}  {path}")
    if len(points) < TREND_WINDOW + 1:
        print(f"trend: ok (need {TREND_WINDOW + 1} usable runs for a "
              "verdict; collecting history)")
        return 0

    # Count the run-over-run drops ending at the newest run.
    streak = 0
    while streak < len(points) - 1 and (
            points[-1 - streak][1] < points[-2 - streak][1]):
        streak += 1
    newest, peak = points[-1][1], points[-1 - streak][1]
    loss = 1.0 - newest / peak
    print(f"trend: {streak} consecutive drop(s); cumulative loss {loss:.1%} "
          f"from {peak:.3f} to {newest:.3f}")
    if streak >= TREND_WINDOW and loss > TREND_TOLERANCE:
        print(f"trend: REGRESSION: {label} slid for {streak} consecutive "
              f"runs, losing {loss:.1%} (> {TREND_TOLERANCE:.0%}); each step "
              "may be inside the single-run floor, but the slide is "
              "sustained -- find the leak or refresh the baseline with "
              "intent")
        return 1
    print("trend: ok (no sustained slide)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "files",
        nargs="+",
        help="default mode: CURRENT BASELINE (exactly two); --trend mode: "
        "the same bench's JSON from consecutive runs, oldest first, the "
        "current run last",
    )
    parser.add_argument(
        "--min-throughput-ratio",
        type=float,
        default=0.4,
        help="fail if a floor rate drops below this fraction of the "
        "baseline, or a ceiling cost rises above the baseline divided by "
        "it; default %(default)s, generous on purpose; 0 disables the perf "
        "checks (debug/sanitizer legs)",
    )
    parser.add_argument(
        "--trend",
        action="store_true",
        help="sustained-slide mode over a chronological series instead of "
        "a single current-vs-baseline gate",
    )
    args = parser.parse_args()

    if args.trend:
        return trend(args.files)

    if len(args.files) != 2:
        print("error: default mode takes exactly CURRENT and BASELINE "
              "(use --trend for a series)", file=sys.stderr)
        return 2
    current = load(args.files[0])
    baseline = load(args.files[1])

    name = baseline.get("bench", DEFAULT_BENCH)
    if name not in SCHEMA:
        print(f"error: no schema for bench {name!r}", file=sys.stderr)
        return 2
    failures = gate(SCHEMA[name], current, baseline, args.min_throughput_ratio)
    if failures:
        print("bench gate: REGRESSION detected:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("bench gate: ok (verdicts identical, performance within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
