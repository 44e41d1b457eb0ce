#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload <sim_steady|sim_recovery|tcp_durable> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build in the current directory);
Cargo's output goes to stderr. The benchmark's stdout is passed through:
a table of metrics, then one JSON line with `correct`, `attempted`,
`failed` and `metrics`. The exit code is non-zero if the build or the run
fails, for example when the repository's crates are not next to this
directory.
"""

import os
import subprocess
import sys

# A run measures for --seconds and then finishes its last repetition;
# anything far beyond that is a hang.
RUN_TIMEOUT_S = 170


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe, *sys.argv[1:]], timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
