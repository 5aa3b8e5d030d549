#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Run from the repository root:

    python3 simbench/run.py --workload fig05_fast --seed 42 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/simbench (default .bench_build/simbench)
inside the checkout; the first run configures and compiles (about a minute
on four cores), later runs only check that it is up to date. The last line
of stdout is the result object described in simbench/README.md. A missing
source tree or a failed build exits non-zero without printing a result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig05_fast", "fig05_ddr", "bignode_ckpt")
# The binary keeps itself within its --seconds budget plus one round of
# passes and the traced run's replays; this is the hard stop behind that.
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "simbench")


def build(out):
    """Configures (once) and builds the simbench target; output to stderr."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "simbench", "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "simbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--perturb", choices=("speedup", "counter", "checkpoint"),
                    help="test only: corrupt one expected value so the run must fail")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"simbench: build failed: {e}", file=sys.stderr)
        return 1

    run_dir = os.path.join(out, f"run-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", ROOT, "--run-dir", run_dir]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("simbench: run exceeded its time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
