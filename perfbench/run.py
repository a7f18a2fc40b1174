#!/usr/bin/env python3
"""Builds and runs one T3 benchmark workload (see perfbench/README.md).

    python3 perfbench/run.py --workload <serve_point|serve_bulk|offline_build>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds the
benchmark program t3_perfbench (perfbench/CMakeLists.txt, which pulls in
the repository's own CMake project) under $CARGO_TARGET_DIR, default
.bench_build; later runs rebuild incrementally. Build output goes to stderr; stdout carries the
program's report and, as its last line, the JSON result object.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve_point", "serve_bulk", "offline_build")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    binary = os.path.join(build_dir, "t3_perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "t3_perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the repository root: no src/CMakeLists.txt here")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(root, target)
    build_dir = os.path.join(base, "perfbench")
    binary = build(root, build_dir)

    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--repo-root", root, "--scratch-dir", scratch,
               "--git-sha", git_sha(root)]
    if args.trace == "1":
        command += ["--trace-out",
                    os.path.join(scratch, "trace_%s.json" % args.workload)]
    completed = subprocess.run(command, cwd=root)
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
