#!/usr/bin/env python3
"""Builds the monitor-path benchmark from this checkout and runs it.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/perfbench under the checkout root (its build
log goes to stderr, so the last line of stdout stays the driver's JSON
result).  Every argument is passed through to the driver; see README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "netqre-perfbench")


def build():
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if subprocess.run(
            ["ninja", "--version"], stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode == 0 else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "netqre-perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    # The driver writes its captures under the checkout root.
    return subprocess.run([BINARY, "--root", ROOT] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
