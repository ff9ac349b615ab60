#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default: perfbench/target); build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. The exit code
is the benchmark's, or cargo's when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print(f"run.py: build failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    return subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
