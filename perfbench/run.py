#!/usr/bin/env python3
"""The repo benchmark: one command for every workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a tnums checkout. Builds the perfbench package
(perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the benchmark binary, checks its outputs
against perfbench/answers.json, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones, and the
spans go to <build dir>/traces/. Exits 1 when any output is wrong.

--record stores this run's answers in perfbench/answers.json instead of
checking them (campaign-sweep answers do not depend on the seed).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ANSWERS = os.path.join(HERE, "answers.json")
WORKLOADS = ("analyze-mixed", "campaign-sweep", "fuzz-loops")
SEED_INDEPENDENT = ("campaign-sweep",)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_PREFIX = "PERFBENCH-RESULT "


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Relative paths keep the daemon's UNIX socket path short.
    return os.path.relpath(os.path.join(base, "perfbench"))


def build(bdir):
    """Configures and builds the binary; returns its path or None."""
    configure = ["cmake", "-S", os.path.relpath(HERE), "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(bdir, "Makefile")):
        configure += ["-G", "Ninja"]
    if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        return None
    binary = os.path.join(bdir, "perfbench")
    return binary if os.path.exists(binary) else None


def remove_stale_scratch(bdir):
    """Removes scratch directories of runs whose process is gone."""
    if not os.path.isdir(bdir):
        return
    for name in os.listdir(bdir):
        if not name.startswith("scratch-"):
            continue
        try:
            os.kill(int(name[len("scratch-"):]), 0)
            continue  # still running
        except (ValueError, ProcessLookupError):
            pass
        except PermissionError:
            continue
        shutil.rmtree(os.path.join(bdir, name), ignore_errors=True)


def run_binary(binary, args, workdir, trace_out):
    """Runs the binary; returns (exit code, stdout lines)."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if trace_out:
        command += ["--trace-out", trace_out]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out.splitlines()


def load_answers():
    try:
        with open(ANSWERS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def answer_slot(workload, seed):
    return "any" if workload in SEED_INDEPENDENT else str(seed)


def check_answers(workload, seed, answers):
    """Returns (checked keys, mismatch descriptions)."""
    expected = load_answers().get(workload, {}).get(answer_slot(workload,
                                                               seed))
    if expected is None:
        return 0, []
    mismatches = []
    for key, value in sorted(expected.items()):
        got = answers.get(key)
        if got != value:
            mismatches.append(f"{key}: expected {value!r}, got {got!r}")
    return len(expected), mismatches


def record_answers(workload, seed, answers):
    table = load_answers()
    table.setdefault(workload, {})[answer_slot(workload, seed)] = answers
    with open(ANSWERS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    bdir = build_dir()
    started = time.monotonic()
    binary = build(bdir)
    if binary is None:
        log("error: the perfbench build failed")
        return 1
    log(f"build: {time.monotonic() - started:.1f} s")

    remove_stale_scratch(bdir)
    workdir = os.path.join(bdir, f"scratch-{os.getpid()}")
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        trace_out = os.path.join(
            bdir, "traces", f"{args.workload}.jsonl")
    try:
        code, lines = run_binary(binary, args, workdir, trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = None
    for line in lines:
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if result is None:
        log(f"error: perfbench exited with {code} and printed no result")
        return 1

    answers = result["answers"]
    if args.record:
        record_answers(args.workload, args.seed, answers)
        checked, mismatches = 0, []
        print(f"recorded {len(answers)} answers for {args.workload} seed "
              f"{args.seed}")
    else:
        checked, mismatches = check_answers(args.workload, args.seed,
                                            answers)
        print(f"recorded answers: {checked} checked, "
              f"{len(mismatches)} mismatched"
              + ("" if checked else " (none recorded for this seed)"))
    for mismatch in mismatches:
        print(f"answer mismatch: {mismatch}")

    failed = result["failed"] + len(mismatches)
    correct = code == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
