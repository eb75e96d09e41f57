#!/usr/bin/env python3
"""Session-lifecycle benchmark: builds perfbench/ and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload connect|stream|fleet --seed N \
        --seconds S --trace 0|1

The first run configures and builds the library and the session_bench
driver into .bench_build/perfbench (Release); later runs only rebuild what
changed. Build output goes to stderr, so the last line of stdout is always
session_bench's JSON result. A traced run (--trace 1) also writes its spans to
.bench_build/spans/<workload>-<seed>.spans.

Exits non-zero, without a result line, when the library sources are missing
or the build fails; exits 1 after printing a result whose output checks
failed.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "session_bench")
RUN_TIMEOUT_S = 170


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env) == 0


def build(env):
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache) and not run_quiet(configure, env):
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD, "--target", "session_bench", "-j", jobs], env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["connect", "stream", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-{args.seed}.spans")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
