#!/usr/bin/env python3
"""Builds wrht_bench from this checkout's sources, then runs it.

    python3 bench/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

Every argument is passed to wrht_bench unchanged (see README.md). The
build goes to $CARGO_TARGET_DIR/e2e, or to .bench_build/e2e at the root
of this checkout without it, and its log to stderr, so stdout carries the
benchmark's output only. A failed build exits non-zero without printing
a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TARGET = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(os.path.abspath(TARGET), "e2e")
JOBS = str(min(os.cpu_count() or 1, 4))


def build():
    # Configure every time: CMake refuses a build tree configured for
    # another checkout's sources instead of silently building those.
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "wrht_bench",
                    "-j", JOBS], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "wrht_bench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
