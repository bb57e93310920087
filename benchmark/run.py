#!/usr/bin/env python3
"""Build the ndflow benchmark from source and run it.

Run from the repository root:

    python3 benchmark/run.py --workload cold-mix --seed 1 --seconds 20 --trace 0

The arguments go to the benchmark unchanged (see benchmark/README.md).
The binary and the Go build cache are kept under .bench_build/ in the
current directory, so nothing is written outside it. Build output goes to
standard error; the benchmark's own output, whose last line is its JSON
result, goes to standard output. The exit code is the build's when the
build fails, the benchmark's otherwise.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    exe = os.path.join(out, "ndflow-benchmark")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=src, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("benchmark: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
