#!/usr/bin/env python3
"""Builds dcm_bench from this checkout, then runs it with the given arguments.

    python3 perfbench/run.py --workload fig5 --seed 1 --seconds 12 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it is
set, else to .bench_build, relative to the current directory. The first call
configures and compiles a Release (LTO) build of the simulator libraries and
the driver; later calls rebuild only what changed. Build output goes to
stderr, so the last line on stdout stays the driver's result JSON.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = min(4, os.cpu_count() or 1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "dcm_bench", "-j", str(BUILD_JOBS)],
        stdout=sys.stderr,
        check=True,
    )
    return os.path.join(build_dir, "dcm_bench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
