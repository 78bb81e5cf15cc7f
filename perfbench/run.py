#!/usr/bin/env python3
"""Build and run the repository benchmark described by BENCHMARK.json.

Run from the repository root:

    python3 perfbench/run.py --workload catbatch --seed 1 --seconds 30 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml). This
script builds it in release mode, offline, into $CARGO_TARGET_DIR
(default .bench_build), then runs each requested workload in its own
process, so every workload's peak RSS is its own. The last line of
standard output is the JSON result of the (last) workload run; with
--workload all, one result line is printed per workload.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("catbatch", "list-fifo")
DEFAULT_SEED = 20250712
DEFAULT_SECONDS = 30


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def build(root):
    """Builds the benchmark binary and returns its path."""
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not os.path.isdir(os.path.join(root, "crates")):
        sys.exit("perfbench: no crates/ here; run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(target, "release", "perfbench")


def main():
    args = parse_args()
    root = os.getcwd()
    exe = build(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        cmd = [
            exe,
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        # The child's stdout passes straight through: its last line is
        # the JSON result.
        sys.stdout.flush()
        code = subprocess.run(cmd).returncode
        if code != 0:
            sys.exit(f"perfbench: workload {workload} exited with {code}")


if __name__ == "__main__":
    main()
