#!/usr/bin/env python3
"""Build and run the svt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds, in release mode and offline, the
repository's `svtd` daemon and the benchmark package next to this file,
into $CARGO_TARGET_DIR (default: .bench_build at the repository root).
Then runs the benchmark with the given arguments. Build output goes to
standard error. The last line of standard output is the benchmark's JSON
result, and the exit code is the benchmark's.

Workloads: table2, large_signoff_eco, svtd_mixed (see src/main.rs).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def build(target: Path) -> None:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        # The daemon exactly as the repository ships it.
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(ROOT / "Cargo.toml"),
         "-p", "svt-serve", "--bin", "svtd"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(BENCH / "Cargo.toml")],
    ]
    for cmd in steps:
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        build(target)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    release = target / "release"
    cmd = [str(release / "svt-perfbench"), *sys.argv[1:],
           "--svtd", str(release / "svtd"),
           "--out", str(ROOT / ".bench_out")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
