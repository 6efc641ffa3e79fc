#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Builds the benchmark, runs every workload at a tiny size in both
trace modes, and fails when a metric BENCHMARK.json names is missing
or has another unit, or when any checked operation failed (a nonzero
error rate). Takes about a minute after the build:

    python3 perfbench/smoke_test.py
"""

import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after disabling __pycache__ in the checkout)


def main():
    binary = run.build()
    problems = []
    for w in (w["name"] for w in run.spec()["workloads"]):
        for trace in (0, 1):
            raw = run.run_binary(binary, w, 1, 1, trace, tiny=True)
            found = run.check_metrics(raw, trace)
            if raw["failed"] or not raw["correct"] or raw["attempted"] < 1:
                found.append(f"error_rate {raw['failed']}/"
                              f"{raw['attempted']}: {raw['failures']}")
            status = "ok" if not found else "FAIL"
            print(f"{w:8s} trace={trace}: {status} "
                  f"({raw['attempted']} checked operations)")
            problems += [f"{w} trace={trace}: {i}" for i in found]
    for p in problems:
        print(p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
