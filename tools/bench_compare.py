#!/usr/bin/env python3
"""Compare a benchmark JSON Lines run against a committed baseline.

Usage:
    tools/bench_compare.py BASELINE.json CURRENT.json [options]
    tools/bench_compare.py --self-test

Both files hold the cpq JSON Lines cell records emitted via --json (one
object per line, schema_version 3 or 4, every key required; see
src/bench_framework/json_out.hpp).
Cells are matched on (experiment, queue, metric, threads) and compared
with noise-aware thresholds:

  * a relative guard band (--threshold, default 20%), plus
  * the wider of the two runs' 95% confidence intervals, when recorded.

Only metric families with a known "better" direction are compared
(throughput up, latency down, bound violations down); counters,
rank-error estimates, and per-op hardware-counter rates are
machine/config-dependent and are reported informationally only. The
layout_* family (layout-sensitivity spread from interleaved runs) and
the burst_* family (open-loop MMPP arrival diagnostics) are explicitly
informational: spread and burst shape characterize the measurement
environment, not the queue, so they never fail a comparison. The slo_*
(SLO burn/breach accounting) and ts_* (telemetry sampler totals)
families emitted by the telemetry plane are likewise informational —
they describe observability bookkeeping, not queue performance. Cells
missing from either side are reported but are not failures: baselines
are allowed to trail the benchmark matrix.

Exit codes: 0 = no regression, 1 = regression detected, 2 = bad
invocation or unparseable input. --report-only prints the comparison but
always exits 0/2 (for CI steps that compare against a baseline recorded
on different hardware).
"""

import argparse
import json
import sys

# metric-name prefix -> direction ("up" = bigger is better)
COMPARED_METRICS = {
    "throughput_mops": "up",
    "raw_tasks_per_s": "up",
    "service_tasks_per_s": "up",
    "latency_delete_p50_ns": "down",
    "latency_delete_p99_ns": "down",
    "latency_insert_p99_ns": "down",
    "service_delete_p50_ns": "down",
    "service_delete_p99_ns": "down",
    "rank_bound_violations": "down",
}

# metric-name prefixes that are always informational, never compared --
# they describe the measurement environment (layout sensitivity, arrival
# burstiness), not the queue under test.
INFORMATIONAL_PREFIXES = ("layout_", "burst_", "counter_", "rank_est_",
                          "perf_", "slo_", "ts_")

REQUIRED_KEYS = {"schema_version", "experiment", "queue", "metric", "threads",
                 "mean", "ci95", "reps", "status"}
# v3 lines are valid v4 lines (v4 only added metric families).
MIN_SCHEMA_VERSION = 3
MAX_SCHEMA_VERSION = 4


class ParseError(Exception):
    pass


def check_record(obj, where):
    """Raise ParseError unless `obj` is a complete v3/v4 cell record."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: not an object")
    missing = REQUIRED_KEYS - obj.keys()
    if missing:
        raise ParseError(f"{where}: missing keys: {sorted(missing)}")
    version = obj["schema_version"]
    if not isinstance(version, int) or not (
            MIN_SCHEMA_VERSION <= version <= MAX_SCHEMA_VERSION):
        raise ParseError(f"{where}: unsupported schema_version {version!r}")
    if obj["status"] not in ("ok", "failed"):
        raise ParseError(f"{where}: unknown status {obj['status']!r}")


def load_records(path):
    """Parse a JSON Lines file into {cell_key: record}."""
    records = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ParseError(f"{path}:{lineno}: not JSON: {err}") from err
            check_record(obj, f"{path}:{lineno}")
            key = (obj["experiment"], obj["queue"], obj["metric"],
                   obj["threads"])
            # Re-runs append: the last record for a cell wins.
            records[key] = obj
    return records


def compare(baseline, current, threshold):
    """Return (regressions, improvements, skipped, missing, seeding) lists.

    `seeding` holds cells present in the current run but absent from the
    baseline — newly added queues/metrics that the baseline has not been
    regenerated for yet. They are informational (never failures): a growing
    benchmark matrix seeds its baseline, it does not regress against it.
    """
    regressions = []
    improvements = []
    skipped = []
    missing = []
    seeding = [key for key in sorted(current) if key not in baseline]

    for key, base in sorted(baseline.items()):
        metric = key[2]
        # Informational families take precedence over any direction entry:
        # layout_/burst_ cells can double without meaning the queue got
        # worse, only that the environment is layout-sensitive or bursty.
        if metric.startswith(INFORMATIONAL_PREFIXES):
            direction = None
        else:
            direction = COMPARED_METRICS.get(metric)
        cur = current.get(key)
        if cur is None:
            missing.append(key)
            continue
        if direction is None:
            skipped.append(key)
            continue
        if base["status"] == "failed" or cur["status"] == "failed":
            # A cell failing now where it passed before IS a regression.
            if base["status"] != "failed":
                regressions.append((key, base, cur, "cell failed"))
            continue
        if base["mean"] is None or cur["mean"] is None:
            skipped.append(key)  # metric unavailable in one environment
            continue

        base_mean = float(base["mean"])
        cur_mean = float(cur["mean"])
        noise = max(float(base.get("ci95") or 0.0),
                    float(cur.get("ci95") or 0.0))
        band = abs(base_mean) * threshold + noise
        if direction == "up":
            delta = cur_mean - base_mean
        else:
            delta = base_mean - cur_mean
        if delta < -band:
            pct = 100.0 * delta / base_mean if base_mean else float("inf")
            regressions.append((key, base, cur, f"{pct:+.1f}%"))
        elif delta > band:
            improvements.append((key, base, cur))
    return regressions, improvements, skipped, missing, seeding


def describe(key):
    experiment, queue, metric, threads = key
    return f"{experiment} / {queue} / {metric} @ t={threads}"


def run_compare(args):
    try:
        baseline = load_records(args.baseline)
        current = load_records(args.current)
    except (OSError, ParseError) as err:
        print(f"bench_compare: {err}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"bench_compare: {args.baseline}: no records", file=sys.stderr)
        return 2

    regressions, improvements, skipped, missing, seeding = compare(
        baseline, current, args.threshold)

    print(f"bench_compare: {len(baseline)} baseline cells, "
          f"{len(current)} current cells, threshold {args.threshold:.0%}")
    for key, base, cur, why in regressions:
        print(f"  REGRESSION {describe(key)}: "
              f"{base['mean']} -> {cur['mean']} ({why})")
    for key, base, cur in improvements:
        print(f"  improved   {describe(key)}: {base['mean']} -> {cur['mean']}")
    if missing:
        print(f"  {len(missing)} baseline cell(s) missing from current run")
    if seeding:
        print(f"  {len(seeding)} new cell(s) not in baseline "
              f"(baseline-seeding, not failures):")
        for key in seeding:
            print(f"    new        {describe(key)}")
    if skipped:
        print(f"  {len(skipped)} cell(s) informational-only (not compared)")
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s) detected")
        return 0 if args.report_only else 1
    print("bench_compare: no regressions")
    return 0


def self_test():
    """Prove the detector on synthetic data: an identical re-run passes and
    a 30% throughput regression fails, deterministically."""
    def cell(metric, mean, ci95=0.0, status="ok"):
        return {"schema_version": 4, "experiment": "fig1", "queue": "mq",
                "metric": metric, "threads": 4, "mean": mean, "ci95": ci95,
                "reps": 3, "status": status}

    base = {("fig1", "mq", "throughput_mops", 4):
            cell("throughput_mops", 10.0, 0.4),
            ("fig1", "mq", "latency_delete_p99_ns", 4):
            cell("latency_delete_p99_ns", 900.0, 25.0),
            ("fig1", "mq", "counter_cas_retry", 4):
            cell("counter_cas_retry", 123456.0)}

    # 1. Identical re-run: must pass.
    r, _, skipped, _, _ = compare(base, dict(base), 0.20)
    assert not r, f"identical re-run flagged: {r}"
    assert len(skipped) == 1, "counter cell should be informational-only"

    # 2. 30% throughput drop: must be detected at the default threshold.
    worse = {k: dict(v) for k, v in base.items()}
    worse[("fig1", "mq", "throughput_mops", 4)]["mean"] = 7.0
    r, _, _, _, _ = compare(base, worse, 0.20)
    assert len(r) == 1 and r[0][0][2] == "throughput_mops", \
        f"30% regression not detected: {r}"

    # 3. Same drop inside a huge CI is noise, not a regression.
    noisy = {k: dict(v) for k, v in base.items()}
    noisy[("fig1", "mq", "throughput_mops", 4)]["ci95"] = 5.0
    r, _, _, _, _ = compare(noisy, worse, 0.20)
    assert not r, f"noise-band violation: {r}"

    # 4. Latency direction: 30% slower p99 is a regression.
    slower = {k: dict(v) for k, v in base.items()}
    slower[("fig1", "mq", "latency_delete_p99_ns", 4)]["mean"] = 1200.0
    r, _, _, _, _ = compare(base, slower, 0.20)
    assert len(r) == 1 and r[0][0][2] == "latency_delete_p99_ns", \
        f"latency regression not detected: {r}"

    # 5. A previously-ok cell that now reports status=failed regresses.
    failed = {k: dict(v) for k, v in base.items()}
    failed[("fig1", "mq", "throughput_mops", 4)]["status"] = "failed"
    r, _, _, _, _ = compare(base, failed, 0.20)
    assert len(r) == 1 and r[0][3] == "cell failed", f"failed cell missed: {r}"

    # 6. "mean": null (metric unavailable) is skipped, not compared as zero.
    nullled = {k: dict(v) for k, v in base.items()}
    nullled[("fig1", "mq", "throughput_mops", 4)]["mean"] = None
    r, _, skipped, _, _ = compare(base, nullled, 0.20)
    assert not r and len(skipped) == 2, f"null mean mishandled: {r} {skipped}"

    # 7. A cell only present in the current run seeds the baseline; it is
    #    reported informationally and is never a regression.
    grown = {k: dict(v) for k, v in base.items()}
    new_key = ("fig1", "mq-eng", "throughput_mops", 4)
    grown[new_key] = dict(cell("throughput_mops", 25.0, 0.5), queue="mq-eng")
    r, _, _, _, seeding = compare(base, grown, 0.20)
    assert not r, f"baseline-seeding cell flagged as regression: {r}"
    assert seeding == [new_key], f"seeding cell not reported: {seeding}"

    # 8. layout_*/burst_* cells are informational: a doubled layout spread
    #    or burst count must never register as a regression.
    layout_base = dict(base)
    layout_base[("fig1", "mq", "layout_spread_pct", 4)] = \
        cell("layout_spread_pct", 4.0)
    layout_base[("fig1", "mq", "burst_count", 4)] = cell("burst_count", 40.0)
    layout_worse = {k: dict(v) for k, v in layout_base.items()}
    layout_worse[("fig1", "mq", "layout_spread_pct", 4)]["mean"] = 8.0
    layout_worse[("fig1", "mq", "burst_count", 4)]["mean"] = 80.0
    r, _, skipped, _, _ = compare(layout_base, layout_worse, 0.20)
    assert not r, f"informational layout_/burst_ cell flagged: {r}"
    assert len(skipped) == 3, \
        f"layout_/burst_ cells should be informational-only: {skipped}"

    # 9. slo_*/ts_* telemetry-plane cells are informational: a longer
    #    breach or more samples must never register as a regression.
    slo_base = dict(base)
    slo_base[("fig1", "telemetry", "slo_breach_ms:p99_sojourn_us<500", 0)] = \
        cell("slo_breach_ms:p99_sojourn_us<500", 12.0)
    slo_base[("fig1", "telemetry", "ts_samples", 0)] = cell("ts_samples", 50.0)
    slo_worse = {k: dict(v) for k, v in slo_base.items()}
    slo_worse[("fig1", "telemetry",
               "slo_breach_ms:p99_sojourn_us<500", 0)]["mean"] = 480.0
    slo_worse[("fig1", "telemetry", "ts_samples", 0)]["mean"] = 500.0
    r, _, skipped, _, _ = compare(slo_base, slo_worse, 0.20)
    assert not r, f"informational slo_/ts_ cell flagged: {r}"
    assert len(skipped) == 3, \
        f"slo_/ts_ cells should be informational-only: {skipped}"

    # 10. Records must be complete v3/v4 lines: no key defaults any more.
    check_record(cell("throughput_mops", 1.0), "v4")
    check_record(dict(cell("throughput_mops", 1.0), schema_version=3), "v3")
    for broken in ({k: v for k, v in cell("m", 1.0).items() if k != "status"},
                   {k: v for k, v in cell("m", 1.0).items()
                    if k != "schema_version"},
                   dict(cell("m", 1.0), schema_version=2),
                   dict(cell("m", 1.0), status="maybe")):
        try:
            check_record(broken, "broken")
        except ParseError:
            continue
        raise AssertionError(f"incomplete record accepted: {broken}")

    print("bench_compare: self-test passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Compare cpq bench JSON Lines output against a baseline.")
    parser.add_argument("baseline", nargs="?", help="baseline JSON Lines file")
    parser.add_argument("current", nargs="?", help="current JSON Lines file")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative regression guard band (default 0.20)")
    parser.add_argument("--report-only", action="store_true",
                        help="print the comparison but never exit 1")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in detector self-test and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.print_usage(sys.stderr)
        return 2
    if not (0.0 <= args.threshold < 1.0):
        print("bench_compare: --threshold must be in [0, 1)", file=sys.stderr)
        return 2
    return run_compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
