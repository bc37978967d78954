#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <sort60|daemon_replay> \
        --seed <n> --seconds <s> --trace <0|1> [--size full|small]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with
path dependencies on the repository's crates. It is built with
`cargo build --release --offline` into $CARGO_TARGET_DIR (default
perfbench/target), then run with the given arguments; its standard output
is passed through, and its last line is the JSON result. Cargo's own
output goes to standard error. Exits with the build's or the run's
non-zero code on failure, without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
