#!/usr/bin/env python3
"""Golden check for cpq_bench_cli's presets and table printers.

Runs every preset that `cpq_bench_cli --list` names, plus the latency,
sort and service modes, at smoke scale. Every measured number is masked
and the result is compared with a committed golden file. What survives
masking is the shape of the output:

  * table titles, column headers and row labels (thread counts);
  * the "#" lines, with each number replaced by "#";
  * the (experiment, queue, metric, threads, status) of every JSON record.

Usage:
    preset_golden.py CLI GOLDEN           compare; exit 1 and print a diff
    preset_golden.py CLI GOLDEN --update  rewrite GOLDEN from this build
"""

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile

SMOKE = ["--threads=1,2", "--ms=2", "--reps=1", "--prefill=500", "--ops=300"]
# sort's default roster is the paper's; the X3 recipe names its own.
MODES = [
    ["--mode=latency"],
    ["--mode=sort", "--queues=glock,linden,slotan,mq,klsm256,mound,cbpq"],
    ["--mode=service"],
]

# A number standing alone: not part of a name like "klsm256" or "mq-eng-s1",
# and not a unit-suffixed config value like "2ms".
NUMBER = re.compile(r"(?<![\w.-])\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?![\w.])")


def mask_text(text):
    """Mask a run's stdout: keep table structure, blank every number."""
    out = []
    state = None  # None, "header" (after a title) or "rows"
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            out.append(line)
            state = "header"
        elif state == "header":
            out.append(" ".join(line.split()))
            state = "rows"
        elif state == "rows" and line.strip() and not line.startswith("#"):
            out.append("row " + line.split()[0])
        else:
            state = None
            if line.strip():
                out.append(NUMBER.sub("#", line))
    return out


def mask_json(text):
    """Reduce each JSON record to its identity and status."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        out.append("json {experiment} | {queue} | {metric} | t={threads} | "
                   "{status}".format(**record))
    return out


def run_masked(command):
    """Run one bench command with --json to a temp file; masked lines."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = os.path.join(tmp, "cells.jsonl")
        proc = subprocess.run(command + ["--json=" + json_path],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=600, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(command)} exited "
                               f"{proc.returncode}:\n{proc.stderr}")
        records = ""
        if os.path.exists(json_path):
            with open(json_path, encoding="utf-8") as handle:
                records = handle.read()
    return mask_text(proc.stdout) + mask_json(records)


def preset_names(cli):
    listing = subprocess.run([cli, "--list"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
    names = []
    in_presets = False
    for line in listing.splitlines():
        if line.startswith("presets"):
            in_presets = True
        elif in_presets and re.match(r"^  \S", line):
            names.append(line.split()[0])
        elif not line.startswith(" "):
            in_presets = False
    return names


def golden_lines(cli):
    lines = []
    runs = [["--preset=" + name] for name in preset_names(cli)] + MODES
    for args in runs:
        lines.append("### " + " ".join(args))
        lines.extend(run_masked([cli] + args + SMOKE))
    return lines


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cli", help="path to the cpq_bench_cli binary")
    parser.add_argument("golden", help="path to the golden file")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden file instead of comparing")
    args = parser.parse_args(argv)

    try:
        actual = golden_lines(args.cli)
    except (OSError, RuntimeError, subprocess.SubprocessError,
            ValueError) as err:
        print(f"preset_golden: {err}", file=sys.stderr)
        return 2
    if args.update:
        with open(args.golden, "w", encoding="utf-8") as handle:
            handle.write("\n".join(actual) + "\n")
        print(f"preset_golden: wrote {len(actual)} lines to {args.golden}")
        return 0
    with open(args.golden, encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    if actual == expected:
        print(f"preset_golden: {len(actual)} masked lines match")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        [line + "\n" for line in expected], [line + "\n" for line in actual],
        fromfile=args.golden, tofile="this build"))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
