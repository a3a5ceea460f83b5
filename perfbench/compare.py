#!/usr/bin/env python3
"""Compare two sets of perfbench result records.

Each run stores a record (environment, checks, result) as
.bench_build/perfbench/<workload>-seed<N>-trace<T>.json. Copy the records
of the parent commit and of the change into two directories, then run

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

For every workload and end-to-end metric it prints both medians, the
relative change and whether the change is worse than the bound in
BENCHMARK.json. It refuses to compare records whose environments differ
(GOMAXPROCS, CPU count or model, Go version, OS or architecture): numbers
from different machines are not a comparison. Exit status: 0 when no
metric regressed past its bound, 1 when one did, 2 when the records cannot
be compared.
"""

import glob
import json
import os
import statistics
import sys

ENV_KEYS = ("gomaxprocs", "num_cpu", "cpu_model", "go_version", "goos", "goarch")


def load(directory):
    recs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if not rec.get("trace"):
            recs.append(rec)
    return recs


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, head = load(sys.argv[1]), load(sys.argv[2])
    if not base or not head:
        print("compare: no untraced records in one of the directories", file=sys.stderr)
        return 2
    # Workloads may pin their own GOMAXPROCS, so environments are compared
    # per workload.
    for w in sorted({r["workload"] for r in base + head}):
        envs = {tuple(r["env"][k] for k in ENV_KEYS) for r in base + head if r["workload"] == w}
        if len(envs) != 1:
            print("compare: refusing to compare %s records from different environments:" % w, file=sys.stderr)
            for e in sorted(envs):
                print("  " + ", ".join("%s=%s" % kv for kv in zip(ENV_KEYS, e)), file=sys.stderr)
            return 2
    bad = [r for r in base + head if not r["result"]["correct"]]
    if bad:
        print("compare: %d records failed their correctness checks" % len(bad), file=sys.stderr)
        return 2

    regressed = False
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in head})
    print("%-20s %-16s %12s %12s %8s  %s" % ("workload", "metric", "base", "head", "change", "verdict"))
    for w in workloads:
        for name, m in spec.items():
            b = [r["result"]["metrics"][name]["value"] for r in base if r["workload"] == w]
            h = [r["result"]["metrics"][name]["value"] for r in head if r["workload"] == w]
            mb, mh = statistics.median(b), statistics.median(h)
            change = (mh - mb) / mb if mb else float("nan")
            worse = change if m["better"] == "lower" else -change
            verdict = "worse than bound %.2f" % m["bound"] if worse > m["bound"] else "within bound"
            regressed = regressed or worse > m["bound"]
            print("%-20s %-16s %12.6g %12.6g %+7.1f%%  %s (n=%d/%d)" % (w, name, mb, mh, 100 * change, verdict, len(b), len(h)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
