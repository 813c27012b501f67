"""Benchmark for reptilt: complement fans, tilting quivers and Ext tables.

Run one workload::

    python3 perfbench/run.py --workload fans --seed 1 --seconds 40 --trace 0

or every workload, untraced and traced, with the tracing overhead::

    python3 perfbench/run.py --workload all --seed 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` one traced pass runs
and the metrics are the per-layer ones (see ``tracer.py``).  The line above
it, starting with ``record:``, holds the run metadata and every op's answer;
``--out FILE`` also writes that record to FILE for ``compare.py``.

The benchmark imports reptilt from ``src/`` next to this directory and runs
in one thread.  A pass runs every op of the workload once, on input variant
k for pass k, and builds its algebras and modules afresh.  Passes repeat
while the median pass still fits in ``--seconds``, at least one; ``run_s``
is the median time of the passes after the first, which warms up.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MODULES = ("field", "catalog", "linalg", "replicated", "homological",
           "krullschmidt", "approx", "tilting", "tiltquiver", "arknit")
SETUP_REPEATS = 15
EXIT_NO_SOURCE = 2


def load_reptilt(fresh):
    """Import reptilt from ``src/``; with ``fresh`` drop any loaded copy
    first, so the import itself is repeated and timed."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules
                     if n == "reptilt" or n.startswith("reptilt.")]:
            del sys.modules[name]
    mods = {name: importlib.import_module("reptilt." + name) for name in MODULES}
    origin = Path(mods["field"].__file__).resolve()
    if SRC not in origin.parents:
        raise FileNotFoundError("reptilt was imported from %s, not %s"
                                % (origin, SRC))
    return SimpleNamespace(**mods)


def metadata(rt):
    """What a comparison must hold equal, and where the numbers came from."""
    zero = rt.field.QQ.zero
    digest = hashlib.sha256()
    for path in sorted((SRC / "reptilt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"backend": "%s.%s" % (type(zero).__module__,
                                  type(zero).__qualname__),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit,
            "source_sha256": digest.hexdigest()}


def run_pass(rt, workload, variant, tracer=None):
    """One pass over every op, then the checks of its answers.  Returns
    (pass seconds, op records); the pass time covers the ops and the pass's
    own set-up, not the checks."""
    _, ops, check = WORKLOADS[workload]
    gc.collect()
    results = []
    busy = 0.0
    if tracer is not None:
        tracer.install()
    try:
        gen = ops(rt, variant)
        while True:
            t0 = time.perf_counter()
            try:
                name, thunk = next(gen)
            except StopIteration:
                busy += time.perf_counter() - t0
                break
            t1 = time.perf_counter()
            try:
                result, error = thunk(), None
            except Exception as exc:  # a failing op is counted, not fatal
                result, error = None, "%s: %s" % (type(exc).__name__, exc)
            t2 = time.perf_counter()
            busy += t2 - t0
            results.append((name, t2 - t1, result, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
    records = []
    for name, seconds, result, error in results:
        answer, bad = None, []
        if error is None:
            try:
                answer, bad = check(rt, variant, name, result)
            except Exception as exc:
                bad = ["%s: check raised %s: %s" % (name, type(exc).__name__, exc)]
        else:
            bad = ["%s: %s" % (name, error)]
        records.append({"op": name, "seconds": seconds, "answer": answer,
                        "mismatches": bad})
    return busy, records


def measure(workload, seed, seconds, trace, fresh=True):
    """Set up, run, check; returns the result record.  ``fresh=False``
    reuses an imported reptilt, for callers that hold references into it.

    Untraced, passes repeat while the median pass still fits in the
    ``seconds`` left, at least one; pass k runs input variant k.  The first
    pass warms the interpreter up and is left out of ``run_s`` unless it is
    the only one.  Each pass's answers are checked and dropped before the
    next pass starts, so the peak RSS is that of one pass, not of the number
    of passes."""
    make_inputs = WORKLOADS[workload][0]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rt = load_reptilt(fresh)
        variants = make_inputs(rt, seed)
        setups.append(time.perf_counter() - t0)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "meta": metadata(rt)}
    passes, ops = [], []
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        busy, records = run_pass(rt, workload, variants[0], tracer)
        passes.append(busy)
        ops.extend(records)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics().items()}
        metrics["trace.run_s"] = {"value": busy, "unit": "s"}
    else:
        deadline = time.perf_counter() + seconds
        while not passes or (time.perf_counter() + statistics.median(passes)
                             <= deadline):
            variant = variants[len(passes) % len(variants)]
            busy, records = run_pass(rt, workload, variant)
            passes.append(busy)
            ops.extend(records)
        warm = passes[1:] or passes
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(warm), "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
        }
        # Op latency is printed but is not a BENCHMARK.json metric: an op is
        # one fixture or one pair, and the ops of a workload differ in cost
        # by up to 50x, so the median op says little.  p90 only where ten
        # samples lie beyond it.
        lat = [r["seconds"] for r in ops]
        record["op_p50_ms"] = 1000 * statistics.median(lat)
        if len(lat) >= 100:
            record["op_p90_ms"] = 1000 * statistics.quantiles(lat, n=10)[-1]
    failed = sum(1 for r in ops if r["mismatches"])
    record.update({"passes": passes, "setups": setups, "ops": ops,
                   "attempted": len(ops), "failed": failed,
                   "metrics": metrics})
    return record


def print_report(record):
    w = record["workload"]
    meta = record["meta"]
    print("workload %s seed %d trace %d: %d pass(es), %d ops; backend %s, "
          "Python %s, nproc %d, commit %s"
          % (w, record["seed"], record["trace"], len(record["passes"]),
             record["attempted"], meta["backend"], meta["python"],
             meta["nproc"], meta["commit"] or "unknown"))
    for r in record["ops"]:
        for line in r["mismatches"]:
            print("  FAIL %s" % line)
    print("  check: %s (%d of %d ops failed, fail_rate %.4f)"
          % ("PASS" if not record["failed"] else "FAIL", record["failed"],
             record["attempted"], record["failed"] / record["attempted"]))
    for name, m in sorted(record["metrics"].items()):
        print("  %-32s %14.6f %s" % (name, m["value"], m["unit"]))
    if not record["trace"]:
        n = record["attempted"]
        print("  %-32s %14.6f ms (%d samples)" % ("op_p50_ms", record["op_p50_ms"], n))
        if "op_p90_ms" in record:
            print("  %-32s %14.6f ms (%d samples)"
                  % ("op_p90_ms", record["op_p90_ms"], n))
        else:
            print("  op_p90_ms: not reported, %d samples (needs 100)" % n)


def result_line(record):
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": record["metrics"]}, sort_keys=True)


def run_all(args):
    """Every workload in its own process, untraced then traced."""
    records = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout.rpartition("\nrecord: ")[0] + "\n")
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                raise SystemExit("%s --trace %d exited with %d"
                                 % (workload, trace, proc.returncode))
            line = next(ln for ln in proc.stdout.splitlines()
                        if ln.startswith("record: "))
            records.append(json.loads(line[len("record: "):]))
    print("\n".join(overhead_lines(records)))
    return records


def overhead_lines(records):
    """Tracing overhead per workload: traced minus untraced run_s."""
    plain = {r["workload"]: r for r in records if not r["trace"]}
    lines = ["tracing overhead (traced minus untraced run_s):"]
    for r in records:
        if r["trace"] and r["workload"] in plain:
            base = plain[r["workload"]]["metrics"]["run_s"]["value"]
            extra = r["metrics"]["trace.run_s"]["value"] - base
            lines.append("  %-8s %10.3f s (%+.1f%%)"
                         % (r["workload"], extra, 100 * extra / base))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record(s) here")
    args = parser.parse_args(argv)
    if not (SRC / "reptilt" / "__init__.py").is_file():
        sys.stderr.write("error: reptilt sources not found under %s\n" % SRC)
        return EXIT_NO_SOURCE
    if args.workload == "all":
        records = run_all(args)
        failed = sum(r["failed"] for r in records)
        metrics = {"%s.%s" % (r["workload"], name): m for r in records
                   for name, m in r["metrics"].items() if not r["trace"]}
        summary = {"correct": failed == 0,
                   "attempted": sum(r["attempted"] for r in records),
                   "failed": failed, "metrics": metrics}
        if args.out:
            Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
        print(json.dumps(summary, sort_keys=True))
        return 0
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    print_report(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("record: " + json.dumps(record, sort_keys=True))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
