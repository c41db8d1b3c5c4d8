#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload rig-canonical --seed 1 \
        --seconds 15 --trace 0

The first call configures and builds the sprintcon libraries and the
perfbench program in Release under .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench when that is set); later calls only re-check
the build. Build output goes to stderr, so the last line of stdout is the
program's JSON result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("rig-canonical", "rig-baselines", "fleet", "scenario-library")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "tests/golden/canonical_trace.jsonl", "examples/scenarios"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found under {root}; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, target, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        done = subprocess.run(step, cwd=root, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return 2

    commit = "unknown"
    if os.path.exists(os.path.join(root, ".git")):
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()

    sys.stdout.flush()
    return subprocess.run(
        [os.path.join(build, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", args.trace, "--root", root, "--commit", commit],
        cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
