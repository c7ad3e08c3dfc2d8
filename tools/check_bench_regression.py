#!/usr/bin/env python3
"""Fail when a freshly recorded BENCH_*.json regresses its committed baseline.

Usage:
    check_bench_regression.py BASELINE_JSON FRESH_JSON [--min-ratio 0.8]

Only *relative* metrics are compared: every numeric key whose name contains
"speedup" (excluding the 0/1 "*_ok" verdict keys, which the CI greps
directly).  Speedups are ratios of two timings taken on the same machine in
the same run, so they transfer across runner hardware where raw ops/sec
numbers do not.  A fresh speedup below --min-ratio x baseline (default 0.8,
i.e. a >20% regression) fails the check; improvements are reported and
accepted silently.

Thread-scaling speedups are meaningless on a single hardware thread, so
on a 1-core runner any comparable key whose name mentions "threads",
"thread_", or "scaling" is skipped (the harnesses themselves already gate
their *_ok verdicts the same way).
"""

import argparse
import json
import os
import sys


def comparable_keys(record):
    for key, value in record.items():
        if "speedup" not in key:
            continue
        if key.endswith("_ok"):
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        yield key


def is_scaling_key(key):
    return any(tag in key for tag in ("threads", "thread_", "scaling"))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument("fresh", help="freshly recorded BENCH_*.json")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.8,
        help="fail when fresh < min-ratio x baseline (default 0.8)",
    )
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    single_core = (os.cpu_count() or 1) <= 1
    failures = []
    checked = 0
    for key in comparable_keys(baseline):
        if key not in fresh:
            failures.append(f"{key}: present in baseline but missing from fresh run")
            continue
        if single_core and is_scaling_key(key):
            print(f"  skip  {key} (scaling metric on a 1-core runner)")
            continue
        base_value = float(baseline[key])
        fresh_value = float(fresh[key])
        checked += 1
        if base_value <= 0:
            continue  # nothing meaningful to ratio against
        ratio = fresh_value / base_value
        verdict = "ok" if ratio >= args.min_ratio else "REGRESSED"
        print(
            f"  {verdict:>9}  {key}: baseline {base_value:.4g} -> "
            f"fresh {fresh_value:.4g} ({ratio:.2f}x)"
        )
        if ratio < args.min_ratio:
            failures.append(
                f"{key}: {fresh_value:.4g} is below "
                f"{args.min_ratio} x baseline {base_value:.4g}"
            )

    if checked == 0 and not failures:
        print(f"error: no comparable 'speedup' keys found in {args.baseline}")
        return 1
    if failures:
        print(f"\n{len(failures)} benchmark regression(s) vs {args.baseline}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nall {checked} speedup metrics within {args.min_ratio}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
