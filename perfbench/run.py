#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <aggregate_mst|cold_sharded|churn_service> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the root).
Build output goes to standard error; standard output carries the run's
header line, then the result object as the last line. A traced run also
writes its chrome trace under perfbench/out/. Exits non-zero, without a
result, when the build or the run fails.
"""

import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
REPO = BENCH.parent


def commit():
    """The repository's commit, or "unknown" outside a git checkout.

    The search for a .git directory stops at the repository root.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run(
        [str(target / "release" / "wagg-perfbench"), *sys.argv[1:],
         "--commit", commit(), "--trace-dir", str(BENCH / "out")],
        cwd=REPO,
        check=False,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
