#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that depends on the repository's crates by
path; it builds into $CARGO_TARGET_DIR (default: .bench_build) and
writes its spans and histograms to <target dir>/perfbench/. Cargo's
output goes to standard error, so the last line of standard output is
the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "altroute-perfbench")
    out_dir = os.path.join(target, "perfbench")
    return subprocess.run([exe, *sys.argv[1:], "--out-dir", out_dir], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
