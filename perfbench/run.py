#!/usr/bin/env python3
"""Build the ccr workspace and its benchmark runner, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload suite-cold|exp-sweep|serve-mixed \
        --seed N --seconds S --trace 0|1

Cargo builds into $CARGO_TARGET_DIR (default `.bench_build`); the runner
writes its logs under `.bench_out`. Build output goes to stderr; the last
line of stdout is the runner's JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    manifest = os.path.join("perfbench", "Cargo.toml")
    for required in ("Cargo.toml", manifest):
        if not os.path.isfile(os.path.join(root, required)):
            print(f"error: run from the repository root ({required} not found)", file=sys.stderr)
            return 1
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "--bin", "ccr"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
    )
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"error: `{' '.join(cmd)}` failed", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    runner = [os.path.join(release, "ccr-perfbench"), "--ccr", os.path.join(release, "ccr")]
    return subprocess.run(runner + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
