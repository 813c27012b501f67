"""Compare saved benchmark records of two versions, like for like.

    python3 perfbench/compare.py --base a1.json a2.json --new b1.json b2.json

Each file holds a record written by ``run.py --out`` (a list of records for
``--workload all``).  Untraced records are grouped by workload; for every
end-to-end metric in BENCHMARK.json the medians of the two sides are
compared against the metric's bound.  Records whose scalar backend or
Python minor version differ are refused: a Fraction run and a gmpy2 run, or
two interpreters, do not measure the same program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
EXIT_REFUSED = 2


def load(paths):
    out = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        out.extend(data if isinstance(data, list) else [data])
    return [r for r in out if not r["trace"]]


def environment(record):
    meta = record["meta"]
    return meta["backend"], ".".join(meta["python"].split(".")[:2])


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    envs = {environment(r) for r in base + new}
    if len(envs) != 1:
        sys.stderr.write("refusing to compare: backend / Python differ: %s\n"
                         % sorted(envs))
        return EXIT_REFUSED
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    print("backend %s, Python %s" % envs.pop())
    worse = 0
    for workload in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            print("%s: missing on one side" % workload)
            continue
        for m in metrics:
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            nv = [r["metrics"][m["name"]]["value"] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm
            if m["better"] == "higher":
                change = -change
            if change > m["bound"]:
                verdict = "WORSE"
                worse += 1
            elif spread(bv) > m["bound"]:
                verdict = "unresolved (base spread %.3f)" % spread(bv)
            else:
                verdict = "ok"
            print("%-8s %-14s base %12.4f new %12.4f %s, %+6.1f%% worse, "
                  "bound %.0f%%: %s" % (workload, m["name"], bm, nm, m["unit"],
                                        100 * change, 100 * m["bound"], verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
