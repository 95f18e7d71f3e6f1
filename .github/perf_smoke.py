#!/usr/bin/env python3
"""Perf smoke: the benchmark's own checks, and its end-to-end metrics
against a base commit.

Run from the repository root:

    python3 .github/perf_smoke.py [BASE_CHECKOUT]

Each of the serve, harden and fleet workloads runs as

    python3 perfbench/run.py --workload W --seed 1 --seconds 10 --trace 0

and every run of this checkout must end with a line reading
"correct": true and "failed": 0. With BASE_CHECKOUT (a checkout of the
base commit, e.g. a `git worktree`), each workload instead runs three
alternating base/head pairs, and the head's median of each end-to-end
metric in BENCHMARK.json must not be worse than the base's median by more
than that metric's bound. PERF_SMOKE_WARN_ONLY=1 demotes those wall-clock
failures to warnings; a failed benchmark check always fails.
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["serve", "harden", "fleet"]
PAIRS = 3


def run(checkout, workload):
    """One benchmark run in `checkout`; returns its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "10", "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True).stdout
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "metrics": {}}


def value(result, name):
    return (result["metrics"].get(name) or {}).get("value")


def main():
    base = sys.argv[1] if len(sys.argv) > 1 else None
    with open("BENCHMARK.json") as f:
        end_to_end = json.load(f)["end_to_end"]
    errors, regressions = [], []
    for workload in WORKLOADS:
        head_runs, base_runs = [], []
        for pair in range(PAIRS if base else 1):
            # Alternate which side runs first, so host drift within a
            # pair does not always favour the same side.
            for side in (["base", "head"] if pair % 2 == 0 else ["head", "base"]):
                if side == "base" and base:
                    base_runs.append(run(base, workload))
                elif side == "head":
                    result = run(".", workload)
                    if result["correct"] is not True or result["failed"] != 0:
                        errors.append(f"{workload}: correct={result['correct']} "
                                      f"failed={result['failed']}")
                    head_runs.append(result)
        if not base:
            continue
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            heads = [v for v in (value(r, name) for r in head_runs) if v is not None]
            bases = [v for v in (value(r, name) for r in base_runs) if v is not None]
            if not heads or not bases:
                print(f"{workload} {name}: not reported, skipped")
                continue
            h, b = statistics.median(heads), statistics.median(bases)
            if metric["better"] == "higher":
                worse = h < b * (1 - bound)
            else:
                worse = h > b * (1 + bound)
            print(f"{workload} {name}: head {h:.6g} base {b:.6g} bound {bound:.0%}"
                  + (" WORSE" if worse else ""))
            if worse:
                regressions.append(f"{workload} {name}: median {h:.6g} against base {b:.6g}, "
                                   f"worse by more than {bound:.0%}")
    for e in errors:
        print(f"::error::benchmark check failed: {e}")
    warn_only = os.environ.get("PERF_SMOKE_WARN_ONLY") == "1"
    for r in regressions:
        print(f"::{'warning' if warn_only else 'error'}::{r}")
    return 1 if errors or (regressions and not warn_only) else 0


if __name__ == "__main__":
    sys.exit(main())
