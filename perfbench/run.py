#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); build output goes to standard error, so the last
line of standard output is the benchmark's result. Spans of each run are
written under the build directory. Exits non-zero without a result when
the build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(target, "perfbench-spans")
    return subprocess.run([exe, *sys.argv[1:], "--out-dir", out_dir], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
