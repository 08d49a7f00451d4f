#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

    python3 perfbench/run.py --workload corpus_cold|cache_sweep|vprofd_mix \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, Release, on top of ../src) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. The benchmark's scratch files live under the same
directory and are removed when the run ends. The last line of stdout is
the result JSON; build output goes to stderr. Any failure exits non-zero
without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus_cold", "cache_sweep", "vprofd_mix")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def build(build_dir):
    """Configure once, then build the benchmark target; True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_ = ["cmake", "--build", build_dir, "--target", "pipebench",
                "-j", BUILD_JOBS]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads, for the benchmark's own test")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("program sources (src/) not found next to perfbench/")

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # One build tree per source tree, so checkouts sharing a build root
    # never reconfigure each other's builds.
    build_dir = os.path.join(build_root, "perfbench-" + hashlib.sha1(
        HERE.encode()).hexdigest()[:12])
    try:
        if not build(build_dir):
            return fail("build failed")
    except OSError as e:
        return fail("cannot run cmake: %s" % e)

    work = os.path.join(build_root, "work", "%s-%d" % (args.workload,
                                                       os.getpid()))
    spans = os.path.join(build_root, "spans",
                         "%s-seed%d.json" % (args.workload, args.seed))
    command = [os.path.join(build_dir, "pipebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", work, "--spans", spans]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        return fail("benchmark exited with code %d" % proc.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        return fail("last line is not a JSON result")
    print(proc.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
