#!/usr/bin/env python3
"""Builds the Casper benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 casperbench/run.py --workload big_lists --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout. The last line of standard output is the result object of
casperbench/main.cc; trace runs also write their spans to
<build dir>/spans/<workload>-seed<seed>.jsonl. Exits non-zero, without
a result, when the library sources are not there to build.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "casperbench"


def build() -> Path:
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("casperbench: no library sources at %s/src" % ROOT)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", str(out), "--target", "casperbench",
             "-j", jobs],
            check=True, stdout=sys.stderr)
    return out / "casperbench"


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (not for measurement)")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("casperbench: build failed: %s" % e, file=sys.stderr)
        return 2

    out = build_dir()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", commit(),
               # A relative path keeps the socket name short.
               "--scratch", os.path.relpath(out, ROOT)]
    if args.trace:
        (out / "spans").mkdir(exist_ok=True)
        command += ["--spans", str(out / "spans" /
                                   ("%s-seed%d.jsonl" % (args.workload,
                                                         args.seed)))]
    if args.tiny:
        command.append("--tiny")
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("casperbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
