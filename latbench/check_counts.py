#!/usr/bin/env python3
"""Checks that the benchmark's per-layer counts repeat exactly.

Runs two traced runs (`--trace 1`) of the benchmark with the same seed and
compares every metric whose unit is a count (`count`, `B`) or a ratio of
counts (`ratio`). The simulator and the serve pipeline are deterministic,
and every count is taken over a fixed amount of work, so any difference
is a bug in the program or in the benchmark.

    python3 latbench/check_counts.py [--workloads A B] [--seed N] [--seconds S]

Run from the root of the repository. Exits 0 when every count matches.
"""

import argparse
import json
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--quiet", "--manifest-path", "latbench/Cargo.toml", "--"]
EXACT_UNITS = {"count", "B", "ratio"}


def traced_run(workload, seed, seconds):
    args = COMMAND + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(args, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"{workload}: traced run exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: traced run failed its checks: {result['failed']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in EXACT_UNITS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs=2, default=["paper-repro", "paper-repro"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()
    first, second = (traced_run(w, args.seed, args.seconds) for w in args.workloads)
    diffs = [f"{name}: {first.get(name)} != {second.get(name)}"
             for name in sorted(set(first) | set(second))
             if first.get(name) != second.get(name)]
    for line in diffs:
        print(line)
    print(f"{len(first)} counts compared, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
