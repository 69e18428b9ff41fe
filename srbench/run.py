#!/usr/bin/env python3
"""Build srbd and the srbench harness from source, then run one benchmark run.

    python3 srbench/run.py --workload hot8 --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The build goes to .bench_build/ at
that root (CMake project srbench/CMakeLists.txt, RelWithDebInfo); later
runs rebuild only what changed. Build output goes to stderr, so the last
line on stdout is the harness's JSON result. Exits nonzero, printing no
result, when the tree has no srbenes sources or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"


def fail(message):
    print(f"srbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_revision():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True, check=False)
    if rev.returncode != 0:
        return "unknown"
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                            "--untracked-files=no"],
                           capture_output=True, text=True, check=False)
    return rev.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def build():
    for required in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/srbd/main.cc"):
        if not (ROOT / required).is_file():
            fail(f"no srbenes source tree here ({required} missing)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                  "srbd", "srbench_harness"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    harness = BUILD_DIR / "srbench_harness"
    argv = [str(harness), f"--srbd={BUILD_DIR / 'srbd' / 'srbd'}",
            f"--workload={args.workload}", f"--seed={args.seed}",
            f"--seconds={args.seconds}", f"--trace={args.trace}",
            f"--trace-dir={BUILD_DIR / 'traces'}", f"--git-rev={git_revision()}"]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(str(harness), argv)


if __name__ == "__main__":
    main()
