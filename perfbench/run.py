#!/usr/bin/env python3
"""FeReX benchmark runner.

Builds the benchmark from the checkout's sources (into .bench_build/) and
runs one workload:

    python3 perfbench/run.py --workload fleet_light --seed 1 --seconds 10 --trace 0

The last line on stdout is the result object; see perfbench/README.md.
`--self-test` builds and runs the tests of the benchmark's own checks.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("circuit_reconfig", "fleet_light")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configures and builds quietly; build output goes to stderr."""
    if not (root / "src").is_dir():
        fail(f"no FeReX sources under {root / 'src'}; run from a full checkout")
    build_dir = root / ".bench_build" / "perfbench"
    configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(max(1, os.cpu_count() or 1))
    for step in (configure, ["cmake", "--build", str(build_dir), "-j", jobs]):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    root = Path(__file__).resolve().parent.parent
    build_dir = build(root)
    if args.self_test:
        sys.exit(subprocess.run([str(build_dir / "perfbench_checks")]).returncode)

    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--results-dir", str(results)]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=root, timeout=170)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within 170 s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
