"""Benchmark of the parker command: published scans and hourglass searches.

    python3 bench/run.py --workload ring-scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                 # every workload, exit 1 on any error

Run from the root of a source checkout; the program is `python3 -m
parker.cli` with `src` on PYTHONPATH, in a fresh process per command.

--trace 0 runs the workload's commands in a closed loop (one command at a
time, the next after the previous exits) until --seconds have passed.  It
reports wall_s and cpu_s, each command's fastest run summed over the
workload's commands; setup_s, the median wall time of the same commands on
their smallest input; and the median peak_rss_mb.  The three times are
given at a reference machine speed (see SpeedProbe and fastest); the raw
medians go to the details.  --trace 1 runs the traced pass described in
tracing.py over every workload and reports the per-layer metrics; see
NOTES.md.

Every command's output is checked against the references in ref/.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
Details, the provenance record and the spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field

import tracing
import workloads
from workloads import BY_NAME, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 11         # set-up commands per run; setup_s is their median
IMPORT_REPS = 5         # fresh `import parker.cli` per traced run
SUB_SAMPLES = 40_000    # carrier.sub calls per algebra.sub_ns repetition
SUB_REPS = 5
SUB_RING_CARRIERS = 16  # ring moduli sampled for algebra.sub_ns
OVERHEAD_PAIRS = 7      # untraced/traced pairs behind trace.overhead
SPEED_PERIOD_S = 0.025  # the speed probe runs one chunk this often, per CPU
PROBED_CPUS = 2         # the most CPUs a command uses (ring scan, --jobs 2)
REFERENCE_CHUNK_S = 0.45e-3   # a probe chunk's CPU time at reference speed
RUN_BUDGET_S = 150      # no new iteration starts past this; the run ends < 180 s
KILL_AFTER_S = 170      # a command still running then is killed and fails

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    measured_outside = {
        "ring-scan": (("algebra.sub_ns", "ns"),
                      ("survey.worker_busy_s", "s"),
                      ("survey.max_order_s", "s"),
                      ("survey.pool_utilization", "ratio"),
                      ("survey.checkpoint_bytes", "bytes"),
                      ("cli.stdout_bytes", "bytes")),
        "field-scan": (("algebra.sub_ns", "ns"), ("cli.stdout_bytes", "bytes")),
        "hourglass": (),
    }
    from_spans = {
        "ring-scan": tracing.SCAN_METRICS + tracing.RING_ONLY,
        "field-scan": tracing.SCAN_METRICS + tracing.FIELD_ONLY,
        "hourglass": tracing.HOURGLASS_METRICS,
    }
    spec = [("cli.import_s", "s"), ("trace.overhead", "ratio"),
            ("trace.replay_s", "s")]
    for w in WORKLOADS:
        spec += [(f"{w.name}.{n}", u)
                 for n, u in from_spans[w.name] + measured_outside[w.name]]
    return spec


# ---------------------------------------------------------------------------
# Running commands.


@dataclass
class Sample:
    """One pass over a workload's commands."""

    wall: float = 0.0
    cpu: float = 0.0
    ref_walls: list = field(default_factory=list)  # per command, at the
    ref_cpus: list = field(default_factory=list)   # reference speed
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    stdout_bytes: int = 0

    def add_checked(self, workload, argv, out, err, code):
        a, f = workloads.check(workload, argv, out, err, code)
        self.attempted += a
        self.failed += f
        self.stdout_bytes += len(out.encode())


def _speed_chunk():
    """A fixed slice of interpreter work: integer arithmetic, dict stores."""
    table, acc = {}, 0
    for i in range(3000):
        acc += i * i % 7
        table[i & 255] = acc
    return acc


class SpeedProbe:
    """Samples the speed of the CPUs the commands run on, while they run.

    The host's other tenants slow each CPU by up to half, in spells that
    last from seconds to minutes, so a median over one run still follows
    them (NOTES.md, "Noise").  One daemon thread per CPU, pinned to it,
    runs a fixed chunk of work every SPEED_PERIOD_S (about 2% of the CPU)
    and records the CPU time the chunk took.  A command's times, scaled by
    REFERENCE_CHUNK_S over the median chunk time sampled on its CPUs while
    it ran, are its times at the reference speed.  The chunk runs no
    parker code, so a change to the program cannot move it.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))[:PROBED_CPUS]
        self.samples = []       # (perf_counter, cpu, chunk CPU seconds)
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(cpu,),
                                          daemon=True) for cpu in self.cpus]
        for thread in self._threads:
            thread.start()

    def _sample(self, cpu):
        os.sched_setaffinity(0, {cpu})    # this thread only
        while not self._stop.wait(SPEED_PERIOD_S):
            t0 = time.thread_time()
            _speed_chunk()
            self.samples.append((time.perf_counter(), cpu,
                                 time.thread_time() - t0))

    def factor(self, start, end, cpus) -> float:
        """REFERENCE_CHUNK_S over the median chunk time on `cpus` in
        [start, end]; a command too short to hold a sample takes the
        latest ones."""
        mine = [(t, c) for t, cpu, c in self.samples if cpu in cpus]
        costs = ([c for t, c in mine if start <= t <= end]
                 or [c for _, c in mine[-8:]])
        return REFERENCE_CHUNK_S / statistics.median(costs)

    def close(self):
        self._stop.set()
        for thread in self._threads:
            thread.join()


class Runner:
    """Scratch files, environment and the run's deadline."""

    def __init__(self):
        self.probe = None   # a SpeedProbe while the untraced loop runs
        self.start = time.perf_counter()
        self.tmp = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
        os.makedirs(self.tmp, exist_ok=True)
        self.files = {"ckpt": os.path.join(self.tmp, "scan.ckpt"),
                      "out": os.path.join(self.tmp, "scan.csv")}
        self.env = dict(os.environ, PYTHONPATH=SRC)
        # the field scan and hourglass run serially whatever the caller set
        self.env.pop("PARKER_JOBS", None)

    def elapsed(self):
        return time.perf_counter() - self.start

    def clear_files(self):
        for path in self.files.values():
            if os.path.exists(path):
                os.remove(path)

    def close(self):
        shutil.rmtree(os.path.dirname(self.tmp), ignore_errors=True)

    def spawn(self, cmd, cpus=None):
        """(wall, cpu, peak_rss_mb, code, stdout, stderr) of a fresh process,
        on the given CPUs if any (its pool workers inherit them).

        CPU time and peak RSS come from wait4, which covers the process and
        the children it reaped (the scan's pool workers).
        """
        out_path = os.path.join(self.tmp, "stdout")
        err_path = os.path.join(self.tmp, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            # its own process group, so a kill also reaches the pool workers
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT, start_new_session=True)
            if cpus:
                os.sched_setaffinity(proc.pid, cpus)
            killer = threading.Timer(
                max(1.0, KILL_AFTER_S - self.elapsed()),
                os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:  # interrupted while waiting
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                proc.returncode, stdout, stderr)

    def run_commands(self, workload, scale) -> Sample:
        """Run each command of the workload once, in order, and check it."""
        self.clear_files()
        sample = Sample()
        for argv in workload.commands(scale, self.files):
            # a command with --jobs k runs on the first k probed CPUs
            cpus = None
            if self.probe:
                jobs = (int(argv[argv.index("--jobs") + 1])
                        if "--jobs" in argv else 1)
                cpus = set(self.probe.cpus[:jobs])
            t0 = time.perf_counter()
            wall, cpu, rss, code, out, err = self.spawn(
                [sys.executable, "-m", "parker.cli", *argv], cpus)
            speed = (self.probe.factor(t0, time.perf_counter(), cpus)
                     if self.probe else 1.0)
            sample.wall += wall
            sample.cpu += cpu
            sample.ref_walls.append(wall * speed)
            sample.ref_cpus.append(cpu * speed)
            sample.rss_mb = max(sample.rss_mb, rss)
            sample.add_checked(workload, argv, out, err, code)
        return sample

    def run_inprocess(self, workload, scale) -> Sample:
        """The workload's commands through parker.cli.main in this process,
        serially (a scan's --jobs set to 1), with stdout and stderr captured."""
        from parker import cli
        self.clear_files()
        sample = Sample()
        for argv in workload.commands(scale, self.files, jobs=1):
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception:  # a crash fails the command's operations
                    traceback.print_exc()
                    code = -1
            sample.wall += time.perf_counter() - t0
            sample.add_checked(workload, argv, out.getvalue(),
                               err.getvalue(), code)
        return sample

    def time_import(self) -> float:
        probe = ("import time; t = time.perf_counter(); import parker.cli; "
                 "print(repr(time.perf_counter() - t))")
        _, _, _, code, out, _ = self.spawn([sys.executable, "-c", probe])
        if code != 0:
            raise RuntimeError("import parker.cli failed")
        return float(out.strip())


# ---------------------------------------------------------------------------
# The two kinds of run.


def end_to_end(workload, seconds, scale, runner):
    """(metrics, attempted, failed, details) of the untraced closed loop."""
    runner.probe = SpeedProbe()
    try:
        runner.run_commands(workload, "setup")  # warm-up: bytecode, page cache
        setups = [runner.run_commands(workload, "setup")
                  for _ in range(SETUP_REPS)]
        iterations = []
        loop_start = time.perf_counter()
        while True:
            it = runner.run_commands(workload, scale)
            iterations.append(it)
            looped = time.perf_counter() - loop_start
            if looped >= seconds or runner.elapsed() + it.wall > RUN_BUDGET_S:
                break
    finally:
        runner.probe.close()
    samples = setups + iterations
    metrics = {
        "wall_s": fastest(iterations, "ref_walls"),
        "setup_s": statistics.median(sum(s.ref_walls) for s in setups),
        "cpu_s": fastest(iterations, "ref_cpus"),
        "peak_rss_mb": statistics.median(s.rss_mb for s in iterations),
    }
    details = {"iterations": [asdict(s) for s in iterations],
               "setups": [asdict(s) for s in setups],
               "raw_medians": {
                   "wall_s": statistics.median(s.wall for s in iterations),
                   "setup_s": statistics.median(s.wall for s in setups),
                   "cpu_s": statistics.median(s.cpu for s in iterations)},
               "probe_chunks": len(runner.probe.samples)}
    return (metrics, sum(s.attempted for s in samples),
            sum(s.failed for s in samples), details)


def fastest(iterations, attr) -> float:
    """Sum over the workload's commands of each command's fastest run.

    The probe divides out the spells that slow every kind of work alike.
    Some spells slow the program by a quarter and the probe's chunk by a
    twentieth; they only ever add time, so the fastest run is the one they
    touched least.
    """
    per_command = zip(*(getattr(s, attr) for s in iterations))
    return sum(min(runs) for runs in per_command)


def sub_ns(kind, orders, rng) -> float:
    """ns per carrier.sub on seeded operand pairs over the given orders."""
    from parker.algebra import make_carrier
    carriers = [make_carrier(kind, n) for n in orders]
    per = SUB_SAMPLES // len(carriers)
    plan = [(c.sub, [(rng.randrange(c.order), rng.randrange(c.order))
                     for _ in range(per)]) for c in carriers]
    times = []
    for _ in range(SUB_REPS):
        t0 = time.perf_counter()
        for sub, pairs in plan:
            for a, b in pairs:
                sub(a, b)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / (per * len(carriers)) * 1e9


def scan_orders(workload, scale):
    argv = workload.commands(scale, {"ckpt": "", "out": ""})[0]
    lo = int(argv[argv.index("--from") + 1])
    hi = int(argv[argv.index("--to") + 1])
    return list(workloads.expected_scan(workload.kind, lo, hi))


def traced(workload, seed, scale, runner):
    """(metrics, attempted, failed, details) of the traced run.

    In order: fresh imports of parker.cli; the ring-scan command once,
    untraced, for the pool figures; trace.overhead on the requested
    workload's tiny input; the traced in-process pass over every workload;
    last, the seeded algebra.sub_ns samples.
    """
    from parker import survey
    rng = random.Random(seed)
    metrics: dict[str, float] = {}
    attempted = failed = 0

    runner.time_import()
    metrics["cli.import_s"] = statistics.median(
        runner.time_import() for _ in range(IMPORT_REPS))

    ring = BY_NAME["ring-scan"]
    pool = runner.run_commands(ring, scale)
    attempted, failed = pool.attempted, pool.failed
    argv = ring.commands(scale, runner.files)[0]
    jobs = int(argv[argv.index("--jobs") + 1])
    try:
        with open(runner.files["out"], encoding="utf-8", newline="") as fh:
            elapsed = [int(row["elapsed_ms"]) / 1000.0
                       for row in csv.DictReader(fh)]
    except (OSError, KeyError, ValueError):  # the run failed; counted above
        elapsed = []
    busy = sum(elapsed)
    metrics.update({
        "ring-scan.survey.worker_busy_s": busy,
        "ring-scan.survey.max_order_s": max(elapsed, default=0.0),
        "ring-scan.survey.pool_utilization": busy / (jobs * pool.wall),
    })

    overhead, checked = tracing_overhead(workload, runner)
    attempted += checked.attempted
    failed += checked.failed

    tracer = tracing.Tracer()
    load_checkpoint = survey.load_checkpoint
    passes = {}
    with tracing.patched(tracing.instrument(tracer)):
        for w in WORKLOADS:
            with tracer.span("workload", workload=w.name):
                passes[w.name] = runner.run_inprocess(w, scale)
                if w.kind == "ring":
                    metrics["ring-scan.survey.checkpoint_bytes"] = \
                        os.path.getsize(runner.files["ckpt"])
                    with tracer.span("survey.load_checkpoint", replay=True):
                        load_checkpoint(runner.files["ckpt"])
    for s in passes.values():
        attempted += s.attempted
        failed += s.failed

    layers, problems = tracing.layer_metrics(tracer)
    spec = per_layer_spec()
    for name, _ in spec:
        wname, _, metric = name.partition(".")
        if wname in BY_NAME and name not in metrics:
            # a layer the pass never entered did no work
            metrics[name] = layers.get(wname, {}).get(metric, 0)
    for w in WORKLOADS:
        attempted += 1            # the replayed counts and hits of the pass
        failed += problems.get(w.name, 0) > 0
        if w.kind != "hourglass":
            metrics[f"{w.name}.cli.stdout_bytes"] = passes[w.name].stdout_bytes
            metrics[f"{w.name}.algebra.sub_ns"] = sub_ns(
                w.kind, _sample_orders(w, scale, rng), rng)

    roots = {s[tracing.ATTRS]["workload"]: i for i, s in enumerate(tracer.spans)
             if s[tracing.NAME] == "workload"}
    dur, _, replay = tracer.durations()[roots[workload.name]]
    metrics["trace.overhead"] = overhead
    metrics["trace.replay_s"] = replay

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.json")
    tracer.write(spans_path)
    details = {"spans": os.path.relpath(spans_path, ROOT),
               "span_count": len(tracer.spans),
               "traced_inprocess_s": dur - replay,
               "replayed": ["core.dihedral_canonical after each msos call",
                            "survey.load_checkpoint of the finished ring scan"],
               "ring_pool_command": asdict(pool)}
    return metrics, attempted, failed, details


def tracing_overhead(workload, runner):
    """(overhead, checked sample) of tracing the workload's tiny input.

    Untraced and traced in-process passes alternate, so that the machine's
    speed drifts equally over both; the overhead is the median ratio of
    traced (less replays) to untraced time, minus 1.
    """
    runner.run_inprocess(workload, "tiny")   # warm-up of the in-process path
    checked, ratios = Sample(), []
    for _ in range(OVERHEAD_PAIRS):
        base = runner.run_inprocess(workload, "tiny")
        tracer = tracing.Tracer()
        with tracing.patched(tracing.instrument(tracer)):
            with tracer.span("workload", workload=workload.name):
                traced_pass = runner.run_inprocess(workload, "tiny")
        dur, _, replay = tracer.durations()[0]
        ratios.append((dur - replay) / base.wall)
        for sample in (base, traced_pass):
            checked.attempted += sample.attempted
            checked.failed += sample.failed
    return statistics.median(ratios) - 1.0, checked


def _sample_orders(workload, scale, rng):
    orders = scan_orders(workload, scale)
    if workload.kind == "ring" and len(orders) > SUB_RING_CARRIERS:
        return sorted(rng.sample(orders, SUB_RING_CARRIERS))
    return orders


# ---------------------------------------------------------------------------
# Provenance and output.


def provenance(seed) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "parker")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"seed": seed, "git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "cpu_model": cpu, "loadavg_1m": os.getloadavg()[0],
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run_one(workload, seed, seconds, trace, scale="full"):
    """Result dict of one run: the four result keys plus provenance."""
    prov = provenance(seed)
    runner = Runner()
    try:
        if trace:
            values, attempted, failed, details = traced(
                workload, seed, scale, runner)
            units = dict(per_layer_spec())
        else:
            values, attempted, failed, details = end_to_end(
                workload, seconds, scale, runner)
            units = dict(END_TO_END)
    finally:
        runner.close()
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "provenance": prov,
            "workload": workload.name, "trace": trace, "details": details}


def print_result(result):
    w = result["workload"]
    for name, m in result["metrics"].items():
        print(f"{w:<10} {name:<40} {m['value']:>16.6f} {m['unit']}")
    raw = result.get("details", {}).get("raw_medians", {})
    for name, value in raw.items():
        print(f"{w:<10} {name + ' (raw)':<40} {value:>16.6f} s")
    rate = result["failed"] / max(result["attempted"], 1)
    print(f"{w:<10} {'error_rate':<40} {rate:>16.6f} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="one workload; default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so the command it is waiting on is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "parker", "cli.py")):
        print(f"bench: no parker sources at {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    chosen = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    os.makedirs(OUT_DIR, exist_ok=True)
    failed = 0
    for workload in chosen:
        result = run_one(workload, args.seed, args.seconds, args.trace)
        path = os.path.join(OUT_DIR, f"{workload.name}-trace{args.trace}"
                                     f"-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        print_result(result)
        failed += result["failed"] or not result["correct"]
        if args.workload:
            print(json.dumps({k: result[k] for k in
                              ("correct", "attempted", "failed", "metrics")}))
    return 1 if failed and not args.workload else 0


if __name__ == "__main__":
    sys.exit(main())
