#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and reports how steady it is.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--first-seed 101]
                                [--workloads connect,stream,fleet]

Runs perfbench/run.py once per seed and workload (one at a time), then
prints, per workload, every end-to-end metric's median and its spread: the
distance between the first and third quartile of the runs, as
statistics.quantiles(values, n=4) gives them, as a share of the median,
next to the metric's bound from BENCHMARK.json. It also lists each run's
retransmissions (both ends), kernel send drops and set-up times, so a run
that retransmitted is visible. Output is Markdown.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit code {proc.returncode}")
    info = next((json.loads(l[2:]) for l in lines if l.startswith("# ")), {})
    return info, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            info, result = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: output checks failed")
            runs.append((seed, info, result))
            print(f"{workload} seed {seed} done", file=sys.stderr)
        print(f"\n### {workload} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {bench['run_seconds']} s each)\n")
        print("| metric | median | q1 | q3 | spread | bound | spread / bound |")
        print("|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, _, r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            unit = runs[0][2]["metrics"][name]["unit"]
            print(f"| {name} ({unit}) | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
                  f"{bound} | {spread / bound:.2f} |")
        print("\n| seed | retransmits (server/client) | duplicates | send drops | "
              "set-up runs (s) |")
        print("|---|---|---|---|---|")
        for seed, info, _ in runs:
            setups = ", ".join(f"{s:.2f}" for s in info.get("setup_runs_s", []))
            print(f"| {seed} | {info.get('retransmits_server')}/"
                  f"{info.get('retransmits_client')} | {info.get('duplicates')} | "
                  f"{info.get('send_drops')} | {setups} |")


if __name__ == "__main__":
    main()
