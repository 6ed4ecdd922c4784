"""Range scans over field orders and ring moduli, with persistence.

Scans classify each qualifying order as Parker or not, collect per-order
counts into ScanRecords, and maintain the running record-breaker table
(orders whose magic-square count exceeds every smaller scanned order).
The counts come from search.count_field and count_ring, so a scan never
builds a tuple.  Each completed order is logged at INFO on the
"parker.survey" logger, when logging is loaded and INFO is on.
Scans are deterministic: records come back ascending by order no matter how
many worker processes run, and a checkpoint file replays completed orders so
an interrupted scan resumes to identical output.  Every scan runs its orders
serially in this process first; a process pool starts only for the orders
still pending once the scan has run SERIAL_MS, so a short scan never pays
for one.  A scan opens its checkpoint, in append mode, and its report
before any order runs, so an unwritable path fails before any work; each
checkpoint record is written and flushed as its order completes, the report
once all are done.  A ring modulus is factored once, for both its counts.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import nullcontext
from itertools import compress
from typing import NamedTuple

from . import _info_logger
from .algebra import check_order, factorize, make_carrier
from .limits import SERIAL_MS
from .search import (PREFILTER_REASONS, _count_ring, _ring_square_count,
                     count_field, prefilter_field)

# records and reports are written from templates, so json loads only to
# read a checkpoint; logging loads only for the corrupt-checkpoint warning
# (see _info_logger)

CSV_COLUMNS = ("order", "kind", "square_count", "msos_count",
               "dihedral_class_count", "parker", "prefilter_reason",
               "elapsed_ms")
_INTEGER_COLUMNS = ("order", "square_count", "msos_count",
                    "dihedral_class_count", "elapsed_ms")


class ScanRecord(NamedTuple):
    """Per-order survey result; its Parker flag and dihedral class count
    derive from msos_count, as on SearchResult."""

    order: int
    kind: str  # "field" or "ring"
    square_count: int
    msos_count: int
    prefilter_reason: str | None
    elapsed_ms: int

    @property
    def dihedral_class_count(self) -> int:
        return self.msos_count

    @property
    def parker(self) -> bool:
        return not self.msos_count


def record_breakers(records) -> tuple[tuple[int, int], ...]:
    """The record-breaker rows (order, count), ascending: the orders whose
    count strictly exceeds every smaller order's among records."""
    rows = []
    best = -1
    for rec in sorted(records, key=lambda r: r.order):
        if rec.msos_count > best:
            rows.append((rec.order, rec.msos_count))
            best = rec.msos_count
    return tuple(rows)


# ---------------------------------------------------------------------------
# Workers (top level so process pools can pickle the call).


def _now_ms() -> float:
    return time.perf_counter() * 1000.0


def scan_field_order(order: int) -> ScanRecord:
    """Classify one field order by the counting search.

    A Parker order then gets the prefilter's reason, if any, as its label.
    Every prefilter verdict implies an empty search, so the prefilter never
    decides an order on its own.  An even field order is a power of 2.  In
    characteristic 2 squaring is the Frobenius automorphism, a bijection,
    so all `order` elements are squares; the even-order verdict is settled
    before any carrier or square set is built.
    """
    t0 = _now_ms()
    check_order(order)
    if order > 1 and order & (order - 1) == 0:
        return ScanRecord(order, "field", order, 0, prefilter_field(order),
                          round(_now_ms() - t0))
    carrier = make_carrier("field", order)
    square_count = carrier.square_set()[0].bit_count()
    count = count_field(carrier)
    reason = None if count else prefilter_field(carrier)
    return ScanRecord(order, "field", square_count, count, reason,
                      round(_now_ms() - t0))


def scan_ring_order(order: int) -> ScanRecord:
    """Classify one ring modulus by the counting search.

    make_carrier validates the modulus.  The square count and the count
    come from the prime-power factors of the modulus (ring_square_count
    and count_ring, whose vectors each prime power computes once per
    process), so no square set or pair kernel over Z/nZ is built.  The
    modulus is factored once, for both.
    """
    t0 = _now_ms()
    make_carrier("ring", order)
    factors = factorize(order)
    square_count = _ring_square_count(factors)
    count = _count_ring(order, factors)
    return ScanRecord(order, "ring", square_count, count, None,
                      round(_now_ms() - t0))

# ---------------------------------------------------------------------------
# Order selection.


def _order_range(lo: int, hi: int) -> range:
    """The orders from max(lo, 2) to hi; lo above hi raises ValueError."""
    if lo > hi:
        raise ValueError(f"inverted range: lo {lo} is above hi {hi}")
    return range(max(lo, 2), hi + 1)


def _prime_flags(n: int) -> bytearray:
    """Byte i is 1 when i is prime and 0 otherwise, for i from 0 to
    max(n, 1): the sieve of Eratosthenes."""
    n = max(n, 1)
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return flags


def field_orders(lo: int, hi: int, order_filter: str = "all") -> list[int]:
    """Field orders in [lo, hi]: every prime power, primes only, or strict powers.

    The strict powers p**k, k >= 2, are the powers of the primes up to
    sqrt(hi), so one sieve, to hi when primes are wanted and to sqrt(hi)
    otherwise, gives both the prime orders and the bases.  It holds a byte
    per integer; scan_fields bounds hi by MAX_ORDER before it asks.  An
    unknown filter or lo above hi raises ValueError; hi below 2 gives [].
    """
    if order_filter not in ("all", "primes-only", "prime-powers-only"):
        raise ValueError(f"unknown field filter {order_filter!r}")
    orders = _order_range(lo, hi)
    root = math.isqrt(max(hi, 0))
    flags = _prime_flags(root if order_filter == "prime-powers-only" else hi)
    out = []
    if order_filter != "prime-powers-only":
        out = list(compress(orders, flags[orders.start:]))
    if order_filter != "primes-only":
        for p in compress(range(root + 1), flags):
            power = p * p
            while power <= hi:
                if power >= lo:
                    out.append(power)
                power *= p
        out.sort()
    return out


def ring_orders(lo: int, hi: int, order_filter="all") -> list[int]:
    """Ring moduli in [lo, hi]: all, odd only, or a congruence (mod M, res R).

    A modulus M below 1 or lo above hi raises ValueError.
    """
    ns = _order_range(lo, hi)
    if order_filter == "all":
        return list(ns)
    if order_filter == "odd":
        return [n for n in ns if n % 2]
    if isinstance(order_filter, tuple) and len(order_filter) == 2:
        mod, res = order_filter
        if mod < 1:
            raise ValueError(f"congruence modulus must be at least 1, "
                             f"got {mod}")
        return [n for n in ns if n % mod == res % mod]
    raise ValueError(f"unknown ring filter {order_filter!r}")


# ---------------------------------------------------------------------------
# Scan driver.

_BATCHES_PER_WORKER = 8


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the CPU count, else 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_scan(kind, orders, worker, jobs, checkpoint, out, fmt):
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if out and fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown report format {fmt!r}")
    done = load_checkpoint(checkpoint) if checkpoint else {}
    # opened before any order runs, so an unwritable path fails first
    with _opened(checkpoint, "a") as fh, _opened(out, "w") as report:
        computed = _compute(kind, orders, done, worker, jobs, fh)
        records = [done.get((kind, n)) or computed[n] for n in orders]
        if report is not None:
            report.write(render_report(records, fmt))
    return records, record_breakers(records)


def _opened(path, mode):
    """The file at path opened in mode, or no file (None) for no path."""
    return open(path, mode, encoding="utf-8") if path else nullcontext()


def _compute(kind, orders, done, worker, jobs, fh):
    """{order: record} of the orders not done, each appended to the open
    checkpoint fh, if any, as it completes.

    The orders run serially, ascending, until SERIAL_MS have passed; with
    jobs > 1 the rest then go to a pool of at most jobs workers.
    """
    pending = [n for n in orders if (kind, n) not in done]
    computed = {}
    non_parker = sum(not done[kind, n].parker for n in orders
                     if (kind, n) in done)
    log = _info_logger("parker.survey")
    start = _now_ms()

    def complete(rec):
        nonlocal non_parker
        computed[rec.order] = rec
        if fh is not None:
            append_checkpoint(fh, rec)
        non_parker += not rec.parker
        if log is None:
            return
        # the rate counts only the orders computed in this run
        rate = len(computed) * 1000.0 / max(_now_ms() - start, 1e-6)
        log.info("%s %d: %d magic squares in %d ms; %d/%d done, %d not "
                 "Parker; %.2f orders/s, ETA %.1f s",
                 kind, rec.order, rec.msos_count, rec.elapsed_ms,
                 len(orders) - len(pending) + len(computed), len(orders),
                 non_parker, rate, (len(pending) - len(computed)) / rate)

    cpus = min(jobs, _usable_cpus())
    for n in pending:
        workers = min(cpus, len(pending) - len(computed))
        # the clock is read only where a pool of two or more could take over
        if workers > 1 and _now_ms() - start >= SERIAL_MS:
            break
        complete(worker(n))
    else:
        return computed
    rest = pending[len(computed):]
    # a few batches per worker: one order per task spends the cheap orders'
    # time on task round trips, while batches that are too large leave a
    # worker idle at the end
    chunksize = max(1, len(rest) // (_BATCHES_PER_WORKER * workers))
    if log is not None:
        log.info("%s scan: pool of %d workers for %d orders, %d done "
                 "serially in %d ms", kind, workers, len(rest), len(computed),
                 _now_ms() - start)
    # imported here: only a scan that outlasts the serial pass loads it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        for rec in pool.map(worker, rest, chunksize=chunksize):
            complete(rec)
    return computed


def scan_fields(lo: int, hi: int, order_filter: str = "all", jobs: int = 1,
                checkpoint: str | None = None, out: str | None = None,
                fmt: str = "csv"):
    """Classify every qualifying field order in [lo, hi].

    Returns (records ascending by order, record-breaker rows), and writes
    them to out, if given, as a "csv" or "jsonl" report (fmt).  The orders
    run serially, ascending, in this process.  With jobs > 1, the orders
    still pending once the scan has run SERIAL_MS (250 ms) go to a process
    pool of at most jobs workers, capped by those orders and by the CPUs
    this process may run on; a scan that ends sooner starts no pool.
    Output order and content do not depend on jobs.  jobs below 1, hi above
    MAX_ORDER, an inverted range or an unknown fmt raises ValueError before
    any order is scanned or any file opened.
    """
    check_order(hi)
    orders = field_orders(lo, hi, order_filter)
    return _run_scan("field", orders, scan_field_order, jobs, checkpoint,
                     out, fmt)


def scan_rings(lo: int, hi: int, order_filter="all", jobs: int = 1,
               checkpoint: str | None = None, out: str | None = None,
               fmt: str = "csv"):
    """Classify every qualifying ring modulus in [lo, hi]; see scan_fields."""
    check_order(hi)
    orders = ring_orders(lo, hi, order_filter)
    return _run_scan("ring", orders, scan_ring_order, jobs, checkpoint,
                     out, fmt)


# ---------------------------------------------------------------------------
# Persistence.


# A record's JSON line, keys sorted, and its CSV row.  For a record a scan
# makes, with integer counts and a kind and reason of plain ASCII letters and
# hyphens, they are byte for byte json.dumps(..., sort_keys=True) of its
# CSV_COLUMNS and csv.writer(lineterminator="\n") of its row.
_JSON_LINE = ('{"dihedral_class_count": %s, "elapsed_ms": %s, "kind": "%s", '
              '"msos_count": %s, "order": %s, "parker": %s, '
              '"prefilter_reason": %s, "square_count": %s}')
_CSV_ROW = "%s,%s,%s,%s,%s,%s,%s,%s\n"


def record_to_json(rec: ScanRecord) -> str:
    """rec's checkpoint and JSONL line, without its newline."""
    order, kind, square_count, msos_count, reason, elapsed_ms = rec
    return _JSON_LINE % (msos_count, elapsed_ms, kind, msos_count, order,
                         "false" if msos_count else "true",
                         "null" if reason is None else f'"{reason}"',
                         square_count)


def record_from_json(line: str) -> ScanRecord:
    """Parse one JSONL record, a JSON object of a record a scan could have
    computed: nonnegative integer counts, order and time, a kind of "field"
    or "ring", a boolean Parker flag and a dihedral class count that agree
    with the msos count, and a prefilter reason that is None or one the
    prefilter gives.  ValueError, KeyError, TypeError or (nested too deep)
    RecursionError if malformed."""
    import json

    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    # records from before the assignment policy was retired carry it; only
    # the canonical policy counted what the search counts now
    if obj.get("policy", "canonical") != "canonical":
        raise ValueError(f"record from policy {obj['policy']!r}")
    for key in _INTEGER_COLUMNS:
        value = obj[key]
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            raise ValueError(f"{key} {value!r} is not a nonnegative integer")
    if obj["kind"] not in ("field", "ring"):
        raise ValueError(f"unknown record kind {obj['kind']!r}")
    if not isinstance(obj["parker"], bool):
        raise ValueError(f"parker flag {obj['parker']!r} is not a boolean")
    if obj["prefilter_reason"] is not None \
            and obj["prefilter_reason"] not in PREFILTER_REASONS:
        raise ValueError(f"unknown prefilter reason "
                         f"{obj['prefilter_reason']!r}")
    if obj["parker"] != (obj["msos_count"] == 0):
        raise ValueError("parker flag disagrees with msos_count")
    if obj["dihedral_class_count"] != obj["msos_count"]:
        raise ValueError("dihedral_class_count differs from msos_count")
    return ScanRecord(**{k: obj[k] for k in ScanRecord._fields})


def render_report(records, fmt: str) -> str:
    """records as a CSV (fixed column order) or JSONL report."""
    if fmt == "csv":
        return ",".join(CSV_COLUMNS) + "\n" + "".join(
            _CSV_ROW % (order, kind, square_count, msos_count, msos_count,
                        "false" if msos_count else "true", reason or "",
                        elapsed_ms)
            for order, kind, square_count, msos_count, reason, elapsed_ms
            in records)
    if fmt == "jsonl":
        return "".join(record_to_json(rec) + "\n" for rec in records)
    raise ValueError(f"unknown report format {fmt!r}")


def append_checkpoint(fh, rec: ScanRecord) -> None:
    """Append one completed record to fh, the checkpoint file the scan
    holds open in append mode; one JSON object per line, flushed."""
    fh.write(record_to_json(rec) + "\n")
    fh.flush()


def load_checkpoint(path) -> dict[tuple[str, int], ScanRecord]:
    """Completed records keyed by (kind, order); corrupt lines are skipped.

    The key set doubles as the completed-order set when resuming.
    """
    done: dict[tuple[str, int], ScanRecord] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = record_from_json(line)
                # json.JSONDecodeError is a ValueError
                except (KeyError, TypeError, ValueError, RecursionError):
                    import logging

                    logging.getLogger("parker.survey").warning(
                        "skipping corrupt checkpoint line %d in %s",
                        lineno, path)
                    continue
                done[(rec.kind, rec.order)] = rec
    except FileNotFoundError:
        pass
    return done
