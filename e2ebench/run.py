#!/usr/bin/env python3
"""End-to-end benchmark: build the driver from source and run one workload.

Usage (from the root of a checkout):
    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Workloads: sssp-klsm256, dispatch, overload (see e2ebench/NOTES.md).
The driver is configured and built under $CARGO_TARGET_DIR (default
.bench_build) the first time, and incrementally after that. The last line
of standard output is one JSON record with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (which also writes a Chrome trace under the build
directory). Every metric name and unit is checked against BENCHMARK.json.

Exit codes: 0 the run passed its correctness gate; 1 it failed the gate
(the record says "correct": false and has no metrics); 2 the benchmark
could not run (build failure, bad invocation, malformed driver output),
in which case no record is printed.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sssp-klsm256", "dispatch", "overload")
RECORD_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; the driver gets what the build left of it.
RUN_BUDGET_S = 170


def die(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "e2ebench")


def build():
    """Configure once, then build incrementally; returns the driver path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      check=False)
            except OSError as err:
                die(f"cannot run {cmd[0]}: {err}")
            if done.returncode != 0:
                log.flush()
                with open(log_path, encoding="utf-8", errors="replace") as f:
                    tail = f.read()[-4000:]
                die(f"build failed ({' '.join(cmd)}):\n{tail}")
    return os.path.join(out, "e2e_driver")


def benchmark_metrics():
    """(end_to_end, per_layer) as {name: unit} from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
        return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]})
    except (OSError, ValueError, KeyError, TypeError) as err:
        die(f"cannot read metric definitions from {path}: {err}")


def driver_metrics(driver):
    listing = subprocess.run([driver, "--list-metrics"], capture_output=True,
                             text=True, check=False)
    if listing.returncode != 0:
        die("driver --list-metrics failed")
    kinds = {"end_to_end": {}, "per_layer": {}}
    for line in listing.stdout.splitlines():
        kind, name, unit = line.split()
        kinds[kind][name] = unit
    return kinds["end_to_end"], kinds["per_layer"]


def is_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def validate_record(record, expected):
    """Problems with a driver record, checked against {name: unit}."""
    if not isinstance(record, dict) or set(record) != RECORD_KEYS:
        return ["record keys must be exactly " + ", ".join(sorted(RECORD_KEYS))]
    problems = []
    if not isinstance(record["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        v = record[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            problems.append(f"{key} is not a whole number")
    if problems:
        return problems
    if record["attempted"] < 1:
        problems.append("attempted must be at least 1")
    metrics = record["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if not record["correct"]:
        if metrics:
            problems.append("a failed run must report no metrics")
        return problems
    if record["failed"] != 0:
        problems.append("a correct run cannot have failed operations")
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"missing metric {name}")
    for name, m in sorted(metrics.items()):
        if name not in expected:
            problems.append(f"undefined metric {name}")
        elif not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"{name}: needs exactly value and unit")
        elif m["unit"] != expected[name]:
            problems.append(f"{name}: unit {m['unit']!r}, "
                            f"defined as {expected[name]!r}")
        elif not is_number(m["value"]):
            problems.append(f"{name}: value {m['value']!r} is not a number")
    return problems


def check_definitions(driver):
    if driver_metrics(driver) != benchmark_metrics():
        die("the driver's metric definitions differ from BENCHMARK.json")


def run_driver(driver, args, deadline):
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace == 1:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        trace_path = os.path.join(traces,
                                  f"{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-out", trace_path]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(30.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("driver timed out")
    return proc.returncode, out, trace_path


def check_trace(trace_path):
    """Validate the trace with the repository's checker when it has one."""
    checker = os.path.join(ROOT, "tools", "check_chrome_trace.py")
    if not os.path.exists(checker):
        return
    done = subprocess.run([sys.executable, checker, trace_path,
                           "--min-events", "1"], capture_output=True,
                          text=True, check=False)
    sys.stdout.write("# " + (done.stdout or done.stderr).strip() + "\n")
    if done.returncode != 0:
        die(f"trace {trace_path} rejected: {done.stderr.strip()}")


def self_test():
    """The driver's arithmetic self-test plus this script's record checks."""
    driver = build()
    failures = 0
    done = subprocess.run([driver, "--self-test"], check=False)
    failures += done.returncode != 0
    expected = {"setup_s": "s", "goodput_per_s": "1/s"}
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"setup_s": {"value": 0.5, "unit": "s"},
                        "goodput_per_s": {"value": 10.0, "unit": "1/s"}}}

    def variant(**changes):
        record = json.loads(json.dumps(good))
        for key, value in changes.items():
            if key in RECORD_KEYS:
                record[key] = value
            else:
                record["metrics"][key] = value
        return record

    cases = [
        ("a complete record passes", good, True),
        ("a metric without a unit fails",
         variant(setup_s={"value": 0.5}), False),
        ("a metric in another unit fails",
         variant(setup_s={"value": 500, "unit": "ms"}), False),
        ("a missing metric fails",
         variant(metrics={"setup_s": {"value": 0.5, "unit": "s"}}), False),
        ("an undefined metric fails",
         variant(extra={"value": 1, "unit": "s"}), False),
        ("a NaN value fails",
         variant(setup_s={"value": float("nan"), "unit": "s"}), False),
        ("a boolean value fails",
         variant(setup_s={"value": True, "unit": "s"}), False),
        ("zero runs attempted fails", variant(attempted=0), False),
        ("a failed gate with metrics fails",
         variant(correct=False, failed=1), False),
        ("a failed gate without metrics passes",
         variant(correct=False, failed=1, metrics={}), True),
    ]
    for name, record, ok in cases:
        passed = (not validate_record(record, expected)) == ok
        failures += not passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}")
    try:
        check_definitions(driver)
        print("ok   BENCHMARK.json defines the driver's metrics and units")
    except SystemExit:
        failures += 1
    print(f"run.py self-test: {failures} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds 1..120")

    deadline = time.time() + RUN_BUDGET_S
    driver = build()
    check_definitions(driver)
    end_to_end, per_layer = benchmark_metrics()
    code, out, trace_path = run_driver(driver, args, deadline)
    lines = out.splitlines()
    if not lines:
        die(f"driver exited {code} without output")
    for line in lines[:-1]:
        print(line)
    try:
        record = json.loads(lines[-1])
    except ValueError:
        die(f"driver exited {code}; last line is not JSON: {lines[-1]!r}")
    problems = validate_record(record, per_layer if args.trace else end_to_end)
    if problems or code != (0 if record["correct"] else 1):
        die(f"driver exited {code} with a malformed record: "
            + "; ".join(problems))
    if record["correct"] and trace_path is not None:
        check_trace(trace_path)
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
