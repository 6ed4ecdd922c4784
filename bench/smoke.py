"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload on its tiny input with tracing off and on, and checks
that every metric BENCHMARK.json names is reported with its unit, that the
pinned references agree with themselves and with acceptance criterion 07,
that a deliberately altered reference makes the error rate non-zero, and
that the benchmark refuses to run without the program's sources.  Prints
one line per check and exits 1 if any fails.  Takes about half a minute.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import run
import workloads
from workloads import BY_NAME, WORKLOADS

SEED = 7
failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == [w.name for w in WORKLOADS],
           "BENCHMARK.json lists the workloads run.py defines")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
           == list(run.END_TO_END),
           "BENCHMARK.json end_to_end metrics are the ones run.py reports")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == run.per_layer_spec(),
           "BENCHMARK.json per_layer metrics are the ones run.py reports")


def check_references():
    ring = workloads.expected_scan("ring", 1001, 2999)
    parker = tuple(n for n, line in ring.items() if line.endswith(": Parker"))
    expect(parker == workloads.RING_PARKER_1001_2999,
           "pinned ring lines give the Parker list of acceptance criterion 07")
    for kind, lo, hi in (("ring", 1001, 2999), ("field", 730, 5000)):
        with open(os.path.join(workloads.REF_DIR, f"{kind}-scan.stdout"),
                  encoding="utf-8") as fh:
            pinned_trailer = fh.read().splitlines()[-1]
        lines = workloads.expected_scan(kind, lo, hi).values()
        expect(workloads.record_breakers_line(lines) == pinned_trailer,
               f"{kind} record-breaker line recomputes from the pinned lines")


def check_runs():
    for w in WORKLOADS:
        result = run.run_one(w, SEED, 0.1, 0, "tiny")
        m = result["metrics"]
        expect(result["correct"] and result["attempted"] > 0,
               f"{w.name} tiny, untraced: correct, {result['attempted']} ops")
        expect(list(m) == [n for n, _ in run.END_TO_END]
               and all(v["value"] > 0 for v in m.values()),
               f"{w.name} tiny, untraced: every end-to-end metric, non-zero")
    result = run.run_one(BY_NAME["ring-scan"], SEED, 0.1, 1, "tiny")
    expect(result["correct"], "traced tiny run: correct")
    expect(list(result["metrics"]) == [n for n, _ in run.per_layer_spec()],
           "traced tiny run: every per-layer metric")
    spans = os.path.join(run.ROOT, result["details"]["spans"])
    expect(os.path.getsize(spans) > 0, "traced tiny run: spans written")


def check_altered_reference():
    for w in WORKLOADS:
        if w.kind == "hourglass":
            saved = workloads.HOURGLASS_HITS
            workloads.HOURGLASS_HITS = 1
            restore = lambda: setattr(workloads, "HOURGLASS_HITS", saved)
        else:
            pinned = workloads.reference_lines
            order = run.scan_orders(w, "tiny")[0]

            def altered(kind, pinned=pinned, order=order):
                ref = pinned(kind)
                ref[order] = ref[order].replace(": ", ": 1", 1)
                return ref
            workloads.reference_lines = altered
            restore = lambda pinned=pinned: setattr(
                workloads, "reference_lines", pinned)
        try:
            result = run.run_one(w, SEED, 0.1, 0, "tiny")
        finally:
            restore()
        expect(result["failed"] > 0 and not result["correct"],
               f"{w.name}: an altered reference line gives error_rate "
               f"{result['failed']}/{result['attempted']} > 0")

    def failing_run(workload, *args):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "provenance": {}, "workload": workload.name, "trace": 0}
    saved_run_one = run.run_one
    run.run_one = failing_run
    try:
        with redirect_stdout(io.StringIO()):
            code = run.main(["--seconds", "0"])
    finally:
        run.run_one = saved_run_one
    expect(code != 0, "the all-workloads command exits non-zero on an error")


def check_bare_directory():
    bare = os.path.join(run.ROOT, ".bench_tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "ring-scan",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the benchmark exits non-zero and prints no result")


def main():
    sys.path.insert(0, run.SRC)
    check_benchmark_json()
    check_references()
    check_runs()
    check_altered_reference()
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
