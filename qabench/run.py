#!/usr/bin/env python3
"""Build and run the qabench benchmark.

Run from the root of the repository:

    python3 qabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary and the release `relpat-serve` binary from
source (into $CARGO_TARGET_DIR, default `.bench_build`), then runs one
workload. Build output goes to stderr; the benchmark's report goes to
stdout and ends with one JSON result line. Exits non-zero, without a
result line, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    for manifest, package in (("qabench/Cargo.toml", None), ("Cargo.toml", "relpat-serve")):
        if not os.path.isfile(os.path.join(ROOT, manifest)):
            sys.stderr.write(f"qabench: {manifest} not found; cannot build\n")
            return False
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
        if package:
            cmd += ["-p", package]
        env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write(f"qabench: build failed: {' '.join(cmd)}\n")
            return False
    return True


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    if not build(target_dir):
        return 2
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "qabench"), *sys.argv[1:]]
    cmd += ["--serve-bin", os.path.join(release, "relpat-serve")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
