#!/usr/bin/env python3
"""Checks that a regenerated BENCH_*.json reproduces a committed one exactly.

Usage: python3 tools/check_bench_rows.py REGENERATED.json COMMITTED.json

Compares the two files' "benchmarks" arrays for exact equality and ignores
"context", the CPU provenance block. Use it only on benches whose rows are
deterministic (virtual-time latencies, bus times, exact counts), so the
check does not depend on the host. Exits 1 and prints the first differing
row on a mismatch.
"""
import json
import sys


def rows(path):
    with open(path) as f:
        return json.load(f)["benchmarks"]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    regenerated, committed = rows(sys.argv[1]), rows(sys.argv[2])
    if regenerated == committed:
        print(f"{sys.argv[1]}: all {len(committed)} rows match {sys.argv[2]}")
        return 0
    print(f"{sys.argv[1]}: rows differ from {sys.argv[2]} "
          f"({len(regenerated)} vs {len(committed)} rows)")
    for new, old in zip(regenerated, committed):
        if new != old:
            print(f"  regenerated: {json.dumps(new)}\n  committed:   {json.dumps(old)}")
            break
    return 1


if __name__ == "__main__":
    sys.exit(main())
