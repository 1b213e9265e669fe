#!/usr/bin/env python3
"""Builds bench_e2e from this source tree and runs one workload.

    python3 bench_e2e/run.py --workload <name|all> --seed <n>
        [--seconds <s>] [--trace 0|1] [--smoke]

Run it from the root of the tree. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under bench_e2e/, cached inputs to work/, traces and
full result records to results/. Standard output ends with the result line
bench_e2e prints; build logs go to standard error.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_JOBS = "4"


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    return 2


def build(build_root):
    """Configures (once) and builds the bench_e2e target; returns its path."""
    build_dir = os.path.join(build_root, "bench_e2e")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "bench_e2e"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "bench_e2e",
         "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no wikimatch sources under %s/src" % ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as err:
        return fail("build failed: %s" % err)

    results = os.path.join(build_root, "results")
    os.makedirs(results, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--work-dir", os.path.join(build_root, "work"),
               "--out", os.path.join(results, tag + ".json")]
    if args.seconds is not None:
        command += ["--seconds", repr(args.seconds)]
    if args.trace:
        command += ["--trace", os.path.join(results, tag + ".trace.json")]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
