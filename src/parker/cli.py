"""Command-line interface.

All data goes to stdout (machine-readable with --json); diagnostics and
progress stay on stderr.  Exit codes: 0 success (including empty search
results), 1 usage or input error, 2 verification failure, 3 internal
invariant violation.  main() runs a command in this process and returns its
status; entry(), the process entry of `python -m parker.cli` and of the
`parker` script, ends the process once main's output is flushed.
"""

from __future__ import annotations

import errno
import os
import sys
from itertools import islice
from types import SimpleNamespace

from .limits import MAX_BOUND, MAX_ORDER, SERIAL_MS

# Each subcommand imports the modules it runs inside its handler, so a
# command loads only what it uses: no scan loads hourglass or gaussian, an
# hourglass search loads hourglass, never survey or search, and gaussian
# only to verify a hit, only field and ring with --list load listing, and
# only a field of order p**r, r >= 2, loads extension.  The same goes for
# the standard library.
# main reads a canonical command line (see _canonical) without argparse;
# argparse, with gettext and locale, loads only for --help, a usage error
# and every other line.  Past the interpreter's own start-up the records
# are typing.NamedTuples.  Then
#   field, ring     json with --json
#   scan-*          json only to resume from a checkpoint that has records
#                   (records and reports are written from templates), and
#                   concurrent.futures (with logging) only when orders are
#                   left for a pool after the serial pass
#   hourglass       json only to print a hit
#   verify          json
# Any command loads logging with -v, and a scan loads it for the warning
# on a corrupt checkpoint line.  None loads dataclasses or inspect.  Run as
# a process, a command then ends as soon as its output is flushed (entry),
# so what it loaded is never torn down.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# Subcommands.


# a command's output lines go to stdout this many at a time, so that a
# listing is neither held whole nor written one system call per line
_WRITE_BATCH = 1000


def _write(pieces):
    """Write the iterable pieces, nonempty strings, to stdout in batches.

    A process started with fd 1 closed has no sys.stdout; that is an
    OSError, which _run reports like a write to a closed pipe.
    """
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    pieces = iter(pieces)
    while batch := "".join(islice(pieces, _WRITE_BATCH)):
        sys.stdout.write(batch)


def _cmd_single(args):
    from .algebra import make_carrier

    # only a listing needs the tuples, and with them parker.listing, and
    # only --json the square count and the payload; a count needs no
    # tuple, and a ring count no square set of Z/nZ
    kind = args.kind
    carrier = make_carrier(kind, args.order)
    if args.list:
        from .listing import json_rows, msos_field, msos_ring, text_rows

        tuples = (msos_field if kind == "field" else msos_ring)(carrier).tuples
        count = len(tuples)
        rows = (json_rows if args.json else text_rows)(carrier, tuples)
    else:
        from .search import count_field, count_ring

        count = (count_field if kind == "field" else count_ring)(carrier)
        rows = ()
    if args.json:
        _write(_json_lines(args, carrier, count, rows))
    else:
        _write(_text_lines(carrier, count, rows))
    return EXIT_OK


def _json_lines(args, carrier, count, rows):
    """json.dumps(payload, sort_keys=True) and a newline, in pieces: the
    tuples, whose key sorts last, follow the rest one row at a time."""
    import json

    from .search import ring_square_count

    payload = {
        "kind": args.kind,
        "order": args.order,
        "square_count": ring_square_count(args.order) if args.kind == "ring"
        else carrier.square_set()[0].bit_count(),
        "tuple_count": count,
        "dihedral_class_count": count,
        "parker": not count,
    }
    if carrier.kind == "extension-field":
        payload["modulus_poly"] = list(carrier.modulus_poly)
    head = json.dumps(payload, sort_keys=True)
    if not args.list:
        yield head + "\n"
        return
    yield head[:-1] + ', "tuples": ['
    for i, row in enumerate(rows):
        yield (", " if i else "") + row
    yield "]}\n"


def _text_lines(carrier, count, rows):
    yield (f"{carrier}: {count} magic squares of squares "
           f"({count} dihedral classes), "
           f"{'not Parker' if count else 'Parker'}\n")
    yield from rows


def _cmd_scan(args):
    from . import survey

    if args.format is not None and args.out is None:
        raise ValueError("--format needs --out")
    if args.kind == "field":
        order_filter = ("primes-only" if args.primes
                        else "prime-powers-only" if args.prime_powers
                        else "all")
        records, breakers = survey.scan_fields(
            args.lo, args.hi, order_filter, jobs=args.jobs,
            checkpoint=args.checkpoint)
    else:
        if args.res is not None and args.mod is None:
            raise ValueError("--res needs --mod")
        order_filter = ("odd" if args.odd
                        else (args.mod, args.res or 0) if args.mod is not None
                        else "all")
        records, breakers = survey.scan_rings(
            args.lo, args.hi, order_filter, jobs=args.jobs,
            checkpoint=args.checkpoint)
    if args.out:
        survey.write_report(records, args.format or "csv", args.out)
        print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    # stdout stays timing-free so identical invocations print identical bytes
    lines = []
    for rec in records:
        reason = f" ({rec.prefilter_reason})" if rec.prefilter_reason else ""
        status = "Parker" if rec.parker else f"{rec.msos_count} squares"
        lines.append(f"{rec.kind} {rec.order}: {status}{reason}\n")
    lines.append("record breakers: "
                 + ", ".join(f"{o}:{c}" for o, c in breakers) + "\n")
    _write(lines)
    return EXIT_OK


def search_hourglass(mode, bound):
    """The hourglass command's one call into parker.hourglass, loaded on
    first use; bench/tracing.py times the search by wrapping this name."""
    from .hourglass import search_hourglass

    return search_hourglass(mode, bound)


def _cmd_hourglass(args):
    result = search_hourglass(args.mode, args.max_norm)
    if result.hits:
        import json
    for hit in result.hits:
        print(json.dumps({"x": [hit.x.re, hit.x.im],
                          "y": [hit.y.re, hit.y.im],
                          "z": [hit.z.re, hit.z.im],
                          "cells": list(hit.cells)}, sort_keys=True))
    print(f"{result.mode}: {len(result.hits)} hits, "
          f"{result.triples_tested} triples tested, "
          f"{result.candidates_enumerated} candidates enumerated "
          f"(max norm {result.bound})", file=sys.stderr)
    return EXIT_OK


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _load_square_file(path):
    import json

    from .algebra import make_carrier

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        info = doc["carrier"]
        kind = info["kind"]
        order = info.get("order")
        modulus = info.get("modulus_poly")
        cells = doc["cells"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed square file {path}: {exc}") from None
    if not (order is None or _is_int(order)):
        raise ValueError(f"malformed square file {path}: order {order!r} "
                         f"is not an integer")
    if not (modulus is None or isinstance(modulus, list)
            and all(map(_is_int, modulus))):
        raise ValueError(f"malformed square file {path}: modulus_poly "
                         f"{modulus!r} is not a list of integers")
    carrier = make_carrier(kind, order, modulus)
    if not isinstance(cells, list) or len(cells) != 9:
        raise ValueError("square file needs exactly 9 cells")
    return carrier, [carrier.element_from_json(c) for c in cells]


def _cmd_verify(args):
    from .core import validate_square

    carrier, cells = _load_square_file(args.file)
    report = validate_square(cells, carrier)
    payload = {
        "carrier": str(carrier),
        "line_sums": {lbl: carrier.element_to_json(s) for lbl, s
                      in zip(report.line_labels, report.line_sums)},
        "sums_equal_count": report.sums_equal_count,
        "distinct_entries": report.distinct_entries,
        "all_entries_square": report.all_entries_square,
        "is_magic_square_of_squares": report.is_magic,
    }
    if report.common_total is not None:
        payload["common_total"] = carrier.element_to_json(report.common_total)
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"carrier: {payload['carrier']}")
        for lbl, s in zip(report.line_labels, report.line_sums):
            print(f"  {lbl:5s} sum = {carrier.element_repr(s)}")
        print(f"sums agreeing: {report.sums_equal_count}/8, "
              f"distinct entries: {report.distinct_entries}/9, "
              f"all squares: {report.all_entries_square}")
        if report.mismatched_lines():
            mism = ", ".join(f"{lbl}={carrier.element_repr(s)}"
                             for lbl, s in report.mismatched_lines())
            print(f"disagreeing lines: {mism}")
        print("verdict: " + ("magic square of squares"
                             if report.is_magic else "NOT magic"))
    return EXIT_OK if report.is_magic else EXIT_VERIFY_FAILED


def _cmd_congruum(args):
    from .gaussian import congruum_triple

    t = congruum_triple(args.m, args.n, args.k)
    print(f"r={t.r} s={t.s} t={t.t} congruum={t.congruum}")
    return EXIT_OK


def _cmd_chi(args):
    from .gaussian import GaussianInt, chi

    r, s, t = chi(GaussianInt(args.re, args.im))
    print(f"r={r} s={s} t={t}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# The command line.

# The top-level option, and each subcommand by name: its help, its
# set_defaults (run, its handler, and kind where two share one) and its
# arguments.  An argument is its one name and the keywords of add_argument;
# a tuple of arguments is a mutually exclusive group.  build_parser builds
# argparse's parser from these, and _canonical reads them alone.
_VERBOSE = (("-v", "--verbose"),
            dict(action="store_true", help="log the progress of scans and "
                                           "hourglass searches on stderr"))


def _single(help_text, kind):
    return (help_text, dict(run=_cmd_single, kind=kind), (
        ("order", dict(type=int, help=f"at most {MAX_ORDER}")),
        ("--list", dict(action="store_true",
                        help="include the tuples themselves")),
        ("--json", dict(action="store_true"))))


_RANGE = (("--from", dict(dest="lo", type=int, required=True)),
          ("--to", dict(dest="hi", type=int, required=True,
                        help=f"at most {MAX_ORDER}")))
_SCAN_COMMON = (
    ("--jobs", dict(type=int, default=1,
                    help="worker processes, at least 1 (default 1); a pool "
                         "starts only for the orders left after "
                         f"{SERIAL_MS} ms of serial work, capped by their "
                         "count and the usable CPUs")),
    ("--checkpoint", dict(default=None,
                          help="JSONL checkpoint file for resume")),
    ("--out", dict(default=None, help="report file")),
    ("--format", dict(choices=("csv", "jsonl"), default=None,
                      help="report format, with --out (default csv)")))

_COMMANDS = {
    "field": _single("search one finite field F_q", "field"),
    "ring": _single("search one ring Z/nZ", "ring"),
    "scan-fields": ("classify a range of field orders",
                    dict(run=_cmd_scan, kind="field"), (
        *_RANGE,
        (("--primes", dict(action="store_true", help="prime orders only")),
         ("--prime-powers", dict(action="store_true",
                                 help="strict prime powers only"))),
        *_SCAN_COMMON)),
    "scan-rings": ("classify a range of ring moduli",
                   dict(run=_cmd_scan, kind="ring"), (
        *_RANGE,
        (("--odd", dict(action="store_true", help="odd moduli only")),
         ("--mod", dict(type=int, help="restrict to n = RES (mod MOD)"))),
        ("--res", dict(type=int, default=None,
                       help="residue for --mod (default 0)")),
        *_SCAN_COMMON)),
    "hourglass": ("search for magic hourglass triples",
                  dict(run=_cmd_hourglass), (
        ("--mode", dict(choices=tuple(MAX_BOUND), required=True)),
        ("--max-norm", dict(
            type=int, required=True,
            help="norm bound, at most " + " / ".join(
                f"{n} ({m})" for m, n in MAX_BOUND.items()))))),
    "verify": ("validate a square file", dict(run=_cmd_verify), (
        ("file", {}),
        ("--json", dict(action="store_true")))),
    "congruum": ("three-square progression parameters",
                 dict(run=_cmd_congruum),
                 tuple((name, dict(type=int)) for name in ("m", "n", "k"))),
    "chi": ("square progression of a Gaussian integer", dict(run=_cmd_chi),
            tuple((name, dict(type=int)) for name in ("re", "im"))),
}


def build_parser():
    """argparse's parser for the table above; main needs it only for a line
    that is not canonical."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # argparse exits 2 on usage errors; the CLI contract wants 1
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    parser = Parser(prog="parker",
                    description="Magic squares of squares over finite fields "
                                "and rings, and magic-hourglass search over "
                                "the Gaussian integers.")
    parser.add_argument(*_VERBOSE[0], **_VERBOSE[1])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, defaults, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(**defaults)
        for entry in arguments:
            if isinstance(entry[0], str):
                p.add_argument(entry[0], **entry[1])
                continue
            group = p.add_mutually_exclusive_group()
            for flag, keywords in entry:
                group.add_argument(flag, **keywords)
    return parser


def _canonical(argv):
    """The namespace build_parser().parse_args(argv) gives, read without
    argparse, if argv is canonical; else None.

    Canonical is at most one leading -v or --verbose, then a subcommand by
    its exact name and its arguments: each option by its exact string, at
    most once, and no --opt=value; each value a token that does not start
    with "-" and that the argument's type and choices accept; every
    positional and required option given, and no two options of one
    exclusive group.  Any other line (--help, an abbreviation, a negative
    number, a usage error) is argparse's alone.
    """
    verbose = bool(argv) and argv[0] in _VERBOSE[0]
    name, *tokens = argv[verbose:] or ("",)
    if name not in _COMMANDS:
        return None
    _, defaults, arguments = _COMMANDS[name]
    values = {"command": name, "verbose": verbose, **defaults}
    positionals, options = [], {}
    for group, entry in enumerate(arguments):
        single = isinstance(entry[0], str)
        for flag, keywords in (entry,) if single else entry:
            switch = keywords.get("action") == "store_true"
            dest = keywords.get("dest", flag.lstrip("-").replace("-", "_"))
            values[dest] = keywords.get("default", False if switch else None)
            spec = dest, keywords, switch, None if single else group
            if flag[0] == "-":
                options[flag] = spec
            else:
                positionals.append(spec)
    seen = {}  # option string -> its exclusive group, or None
    tokens = iter(tokens)
    for token in tokens:
        if token[:1] == "-":
            if token not in options or token in seen:
                return None
            dest, keywords, switch, group = options[token]
            seen[token] = group
            if switch:
                values[dest] = True
                continue
            token = next(tokens, "-")
            if token[:1] == "-":
                return None
        elif positionals:
            dest, keywords, _, _ = positionals.pop(0)
        else:
            return None
        try:
            value = keywords.get("type", str)(token)
        except (TypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    groups = [g for g in seen.values() if g is not None]
    if positionals or len(set(groups)) < len(groups) or any(
            keywords.get("required") and flag not in seen
            for flag, (_, keywords, _, _) in options.items()):
        return None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _canonical(argv) or build_parser().parse_args(argv)
    if not args.verbose:
        return _run(args)
    # scans and hourglass searches log their progress; only here does a
    # command load logging
    import logging

    logger = logging.getLogger("parker")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("parker: %(message)s"))
    logger.addHandler(handler)
    level = logger.level
    logger.setLevel(logging.INFO)
    try:
        return _run(args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _run(args) -> int:
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"parker: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:  # pragma: no cover
        print(f"parker: internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    """Run main() on sys.argv and end the process with its status.

    Once main returns, its stdout and stderr are flushed and the process
    ends at once (os._exit), without tearing the interpreter down: no
    module teardown, final garbage collection or atexit callback, which
    took about a tenth of a short command's time.  Nothing a command leaves
    needs them.  Its files are closed by their with blocks, and a
    checkpoint is also flushed after each record; the process pool's with
    block joins its workers and threads; main's finally removes the -v
    handler.  After a -v pool scan, atexit holds logging's shutdown and
    multiprocessing's exit function, and threading holds the pool's exit
    hook, but no thread or child process is left for them to act on.

    A final flush of stdout that fails (its pipe's reader has gone, a full
    disk, a closed stream) ends as a write that fails in main does: one
    "parker: error:" line on stderr, if stderr takes it, and status 1.

    Every other ending is the interpreter's own, as for a plain
    SystemExit(main()): a usage error or --help (argparse's SystemExit),
    an interrupt or an uncaught exception raised by main; a flush of
    stderr that fails; and any run under a tracer or profiler (cProfile,
    coverage), whose report an atexit callback or the code after this call
    writes.
    """
    status = main()
    if _observed():
        raise SystemExit(status)
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except (OSError, ValueError) as exc:  # as _run reports a failed write
        status = EXIT_USAGE
        try:
            print(f"parker: error: {exc}", file=sys.stderr)
        except (OSError, ValueError):
            pass
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except (OSError, ValueError):
        raise SystemExit(status)
    os._exit(status)


def _observed() -> bool:
    """Whether a tracer or profiler watches this process: sys.settrace or
    sys.setprofile, or from Python 3.12 a sys.monitoring tool, which is
    what cProfile registers there."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(i) is not None for i in range(6))  # ids 0-5


if __name__ == "__main__":
    entry()
