#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload served-churn --seed 1 --seconds 20 --trace 0

The program is built into .bench_build/ with the Go build cache there too,
so a run reads and writes nothing outside the checkout but the Go
toolchain it reads. Build output goes to stderr; the program's stdout is
passed through, and its last line is the result object. The exit code is
the program's: non-zero when a correctness check fails, when the build
fails (for example in a directory without the repository's sources), or
when the run overruns its time limit.
"""

import argparse
import os
import subprocess
import sys
import time

WORKLOADS = ("served-churn", "served-reneg", "continuous-rcbr", "impulsive-ensemble")
RUN_LIMIT_S = 175  # a run must end within 180 s of its start


def go_env(root):
    """Environment for the go tool, with every cache inside the checkout."""
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    binary = os.path.join(root, ".bench_build", "perfbench", "perfbench")
    env = go_env(root)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    start = time.monotonic()
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", os.path.join(root, ".bench_build", "perfbench")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s after %.0f s" % (RUN_LIMIT_S, time.monotonic() - start),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
