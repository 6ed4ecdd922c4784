"""The benchmark's workloads and the references their output must match.

Each workload is one or more `parker` commands, given here as argument
templates at three sizes: the published computation ("full"), a small
input for the smoke test ("tiny"), and the smallest input the command
accepts ("setup"), whose wall time is the set-up cost.  The scan ranges and
norm bounds are fixed by the published computations; nothing here depends
on the benchmark seed.

A command's output is checked from its own arguments: the order range of a
scan selects the pinned stdout lines it must print, and the mode and norm
bound of an hourglass search say which summary line it must write.  One
operation is one scanned order or one hourglass mode.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")

# Acceptance criterion 07: the Parker rings n = 0 (mod 4) in [1001, 2999].
RING_PARKER_1001_2999 = (1032, 1072, 1104, 1128, 1488, 1608, 2064, 2256)

# stdout of the set-up inputs (order 4) at the seed commit
SETUP_LINES = {
    "ring": {4: "ring 4: Parker"},
    "field": {4: "field 4: Parker (even-order)"},
}

_ORDER_LINE = re.compile(r"^(ring|field) (\d+): (Parker|(\d+) squares)")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str            # "ring", "field" or "hourglass"
    full: tuple          # argument templates, one per command
    tiny: tuple
    setup: tuple

    def commands(self, scale: str, files: dict, jobs: int | None = None):
        """Concrete argument lists; `files` maps {ckpt}/{out} to paths.

        `jobs` overrides the worker count of a scan that sets one, for the
        serial in-process passes of the traced run.
        """
        out = []
        for template in getattr(self, scale):
            argv = [a.format(**files) for a in template]
            if jobs is not None and "--jobs" in argv:
                argv[argv.index("--jobs") + 1] = str(jobs)
            out.append(argv)
        return out


_RING = ("scan-rings", "--from", "{lo}", "--to", "{hi}", "--mod", "4",
         "--res", "0", "--jobs", "2", "--checkpoint", "{ckpt}",
         "--out", "{out}")
_FIELD = ("scan-fields", "--from", "{lo}", "--to", "{hi}", "--prime-powers")


def _scan(template, lo, hi):
    return tuple(a.replace("{lo}", str(lo)).replace("{hi}", str(hi))
                 for a in template)


def _hourglass(exhaustive_norm, product_norm):
    return (("hourglass", "--mode", "exhaustive",
             "--max-norm", str(exhaustive_norm)),
            ("hourglass", "--mode", "product-first",
             "--max-norm", str(product_norm)))


WORKLOADS = (
    Workload(
        "ring-scan",
        "the published div-4 ring list below 3000 on 2 workers; the only "
        "workload using the pool, the checkpoint and the report writer",
        "ring",
        full=(_scan(_RING, 1001, 2999),),
        tiny=(_scan(_RING, 1001, 1100),),
        setup=(_scan(_RING, 4, 4),)),
    Workload(
        "field-scan",
        "serial scan of prime-power field orders; extension-field "
        "arithmetic and the prefilter, no pool",
        "field",
        full=(_scan(_FIELD, 730, 5000),),
        tiny=(_scan(_FIELD, 730, 1000),),
        setup=(_scan(_FIELD, 4, 4),)),
    Workload(
        "hourglass",
        "both hourglass search modes to the ROADMAP norm bounds; the only "
        "workload running the Gaussian-integer layer",
        "hourglass",
        full=_hourglass(800, 100_000),
        tiny=_hourglass(60, 2_000),
        setup=_hourglass(1, 1)),
)

BY_NAME = {w.name: w for w in WORKLOADS}


# ---------------------------------------------------------------------------
# References.


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _verdict(line) -> tuple[bool, int]:
    """(parker, msos_count) of a per-order stdout line."""
    m = _ORDER_LINE.match(line)
    count = int(m.group(4)) if m.group(4) else 0
    return count == 0, count


def reference_lines(kind: str) -> dict[int, str]:
    """Pinned per-order stdout lines for a scan kind, keyed by order."""
    with open(os.path.join(REF_DIR, f"{kind}-scan.stdout"),
              encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    ref = dict(SETUP_LINES[kind])
    for line in lines:
        m = _ORDER_LINE.match(line)
        if m:
            ref[int(m.group(2))] = line
    return ref


def record_breakers_line(lines) -> str:
    """The scan's trailer line, recomputed from its per-order lines."""
    rows, best = [], -1
    for line in lines:
        count = _verdict(line)[1]
        if count > best:
            rows.append(f"{_ORDER_LINE.match(line).group(2)}:{count}")
            best = count
    return "record breakers: " + ", ".join(rows)


def expected_scan(kind: str, lo: int, hi: int) -> dict[int, str]:
    """The pinned lines a scan of [lo, hi] must print, ascending by order."""
    ref = reference_lines(kind)
    return {n: line for n, line in sorted(ref.items()) if lo <= n <= hi}


def _parse_order_lines(text):
    got, trailer, extra = {}, None, 0
    for line in text.splitlines():
        m = _ORDER_LINE.match(line)
        if m and int(m.group(2)) not in got:
            got[int(m.group(2))] = line
        elif line.startswith("record breakers:") and trailer is None:
            trailer = line
        else:
            extra += 1
    return got, trailer, extra


def _report_rows(path):
    """{order: (parker, msos_count)} from a CSV report, or None."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {int(r["order"]): (r["parker"] == "true", int(r["msos_count"]))
                for r in rows}
    except (OSError, KeyError, ValueError):
        return None


def _checkpoint_rows(path):
    """{order: (parker, msos_count)} from a checkpoint, or None.

    Lines that are not order records (a header, say) are skipped.
    """
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if isinstance(rec, dict) and "order" in rec:
                    out[rec["order"]] = (rec["parker"], rec["msos_count"])
    except (OSError, KeyError, TypeError, ValueError):
        return None
    return out


def check_scan(kind, argv, stdout, code):
    """(attempted, failed) for one scan command's output.

    An order fails when its stdout line differs from the reference, or when
    the CSV report or checkpoint the command was asked to write disagrees
    with the reference.  A wrong trailer line fails one more order; a
    non-zero exit fails them all.
    """
    lo, hi = int(_option(argv, "--from")), int(_option(argv, "--to"))
    expected = expected_scan(kind, lo, hi)
    attempted = len(expected)
    if code != 0:
        return attempted, attempted
    got, trailer, extra = _parse_order_lines(stdout)
    written = []
    if _option(argv, "--out"):
        written.append(_report_rows(_option(argv, "--out")))
    if _option(argv, "--checkpoint"):
        written.append(_checkpoint_rows(_option(argv, "--checkpoint")))
    failed = extra + sum(1 for n in got if n not in expected)
    for n, line in expected.items():
        want = _verdict(line)
        failed += got.get(n) != line or any(
            rows is None or rows.get(n) != want for rows in written)
    if trailer != record_breakers_line(expected.values()):
        failed += 1
    return attempted, min(failed, attempted)


# hourglass reference: the problem is open, so every bound gives no hit
HOURGLASS_HITS = 0

# only the mode, the hit count and the bound are pinned; the counters
# between them may be redefined
_SUMMARY = re.compile(r"^(\S+): (\d+) hits, .*\(max norm (\d+)\)$")


def check_hourglass(argv, stdout, stderr, code):
    """(1, failed) for one hourglass mode: exit 0, no hit, summary line."""
    mode, bound = _option(argv, "--mode"), _option(argv, "--max-norm")
    ok = code == 0 and not stdout.strip() and any(
        m and m.groups() == (mode, str(HOURGLASS_HITS), bound)
        for m in map(_SUMMARY.match, stderr.splitlines()))
    return 1, 0 if ok else 1


def check(workload: Workload, argv, stdout, stderr, code):
    """(attempted, failed) for one command of the workload."""
    if workload.kind == "hourglass":
        return check_hourglass(argv, stdout, stderr, code)
    return check_scan(workload.kind, argv, stdout, code)

