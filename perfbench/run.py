#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sieve_fleet --seed 1 --seconds 10 --trace 0

Cargo's output goes to stderr; the benchmark's own stdout passes through,
ending with the one-line JSON result. The build honours CARGO_TARGET_DIR
(default: perfbench/target). A failed build or a failed correctness check
exits non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env={**os.environ, "CARGO_TARGET_DIR": target},
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(target, "release", "perfbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
