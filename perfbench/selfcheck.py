#!/usr/bin/env python3
"""Fast self-check of the benchmark's own output.

Usage (from the repository root):
    python3 perfbench/selfcheck.py [--seconds 2] [--workload NAME ...]

Checks BENCHMARK.json's keys, names, units and bounds, then runs every
workload briefly, untraced and traced, and confirms that each run
prints the host fingerprint, the layer table (traced runs), and a
last line whose metrics are exactly the end-to-end (untraced) or
per-layer (traced) metrics BENCHMARK.json names, each with its unit,
plus the attempted and failed counts. Exits 1 on the first problem
set, 0 when everything holds.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINT_KEYS = {"cpus", "kernel_backend", "native_simd", "workers",
                    "build_type", "compiler", "source"}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower",
                                                            "higher"):
            problems.append(f"metric {m['name']}: bad unit or better")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            problems.append(f"end_to_end {m['name']}: bad keys or bound")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per_layer {m['name']}: bad keys")
    problems += [f"bad or repeated name {n}" for n in names
                 if not NAME.match(n) or names.count(n) > 1]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"] for m in
                                            spec["end_to_end"]):
        problems.append("setup_s missing or not given the largest bound")
    return problems


def check_run(spec, workload, trace, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds",
           str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return [f"exit code {done.returncode}: {done.stderr.strip()}"]
    problems = []
    fingerprint = [json.loads(l.split(" ", 1)[1]) for l in lines
                   if l.startswith("fingerprint ")]
    if not fingerprint or not FINGERPRINT_KEYS <= set(fingerprint[0]):
        problems.append("fingerprint line missing or incomplete")
    if trace and not any(l.strip().startswith("unattributed")
                         for l in lines):
        problems.append("layer table has no unattributed row")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return problems + [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("a run check failed (correct is not true)")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"attempted {result['attempted']}, "
                        f"failed {result['failed']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(got) != names:
        problems.append(f"metric names differ: missing "
                        f"{sorted(names - set(got))}, "
                        f"extra {sorted(set(got) - names)}")
    for m in wanted:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {entry.get('unit')}, "
                            f"want {m['unit']}")
        value = entry.get("value")
        if not isinstance(value, (int, float)):
            problems.append(f"{m['name']}: value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{m['name']}: end-to-end value {value} <= 0")
    if trace and got.get("trace.events_dropped", {}).get("value") != 0:
        problems.append("trace events dropped")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    problems = check_spec(spec)
    print(f"BENCHMARK.json: {'ok' if not problems else problems}")
    failed |= bool(problems)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            problems = check_run(spec, workload, trace, args.seconds)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not problems else '; '.join(problems)}",
                  flush=True)
            failed |= bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
