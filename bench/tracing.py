"""Spans around the calls into each parker layer, recorded from outside.

The traced run patches the module-level names through which one layer
calls the next (`parker.survey.msos_ring`, `parker.search.center_pairs`,
...) with wrappers that open a span, call the original and close the span.
Nothing under src/ changes.  Spans are kept in memory as
[name, start, end, parent, attrs] and written out when the run ends.

Two measurements are replays: after each msos call the benchmark recounts
the dihedral classes of the returned tuples with `dihedral_canonical`, and
after the ring scan it reloads the finished checkpoint with
`load_checkpoint`.  Replay spans carry attrs["replay"] and are excluded
from the traced time used for the overhead.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, attrs])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:  # pragma: no cover
            raise AssertionError("spans closed out of order")

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self.open(name, **attrs)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, after=None):
        """fn with a span around each call; after(span, args, result) runs
        once the span is closed and may annotate it or replay work."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self.spans[idx], args, result)
            return result
        return traced

    # -- analysis -----------------------------------------------------------

    def durations(self):
        """Per span: (duration, self time, replay time inside it)."""
        n = len(self.spans)
        dur = [s[END] - s[START] for s in self.spans]
        child = [0.0] * n
        replay = [0.0] * n
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
            if s[ATTRS].get("replay"):
                p = s[PARENT]
                while p >= 0:
                    replay[p] += dur[i]
                    p = self.spans[p][PARENT]
        return [(dur[i], dur[i] - child[i], replay[i]) for i in range(n)]

    def write(self, path: str) -> None:
        """Spans as JSON, times in seconds from the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        stats = self.durations()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "self_s", "attrs"],
                       "spans": [[s[NAME], s[START] - t0, s[END] - t0,
                                  s[PARENT], st[1], s[ATTRS]]
                                 for s, st in zip(self.spans, stats)]},
                      fh, default=str)


@contextmanager
def patched(targets):
    """Temporarily replace attributes: targets is [(owner, attr, value)]."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def instrument(tracer: Tracer):
    """The patch list that traces every layer boundary the workloads cross.

    A boundary the program no longer has is skipped: its metrics read 0.
    """
    import parker.algebra as algebra
    import parker.cli as cli
    import parker.core as core
    import parker.gaussian as gaussian
    import parker.search as search
    import parker.survey as survey

    def note_pairs(span, args, result):
        span[ATTRS]["e"] = args[1] if len(args) > 1 else None
        span[ATTRS]["pairs"] = len(result)

    def replay_classes(span, args, result):
        tuples = getattr(result, "tuples", ())
        span[ATTRS]["tuples"] = getattr(result, "tuple_count", len(tuples))
        span[ATTRS]["classes"] = getattr(result, "dihedral_class_count", 0)
        with tracer.span("core.dihedral_canonical", replay=True) as rs:
            rs[ATTRS]["classes"] = len({core.dihedral_canonical(t)
                                        for t in tuples})

    def note_prefilter(span, args, result):
        span[ATTRS]["verdict"] = result

    def note_record(span, args, result):
        span[ATTRS]["square_count"] = getattr(result, "square_count", 0)

    def note_hourglass(span, args, result):
        span[ATTRS].update(
            mode=getattr(result, "mode", args[0] if args else None),
            hits=len(getattr(result, "hits", ())),
            tested=getattr(result, "triples_tested", 0),
            enumerated=getattr(result, "candidates_enumerated", 0))

    targets = []
    for owner, attr, name, after in (
            (survey, "scan_rings", "survey.scan_rings", None),
            (survey, "scan_fields", "survey.scan_fields", None),
            (survey, "scan_ring_order", "survey.scan_ring_order", note_record),
            (survey, "scan_field_order", "survey.scan_field_order",
             note_record),
            (survey, "make_carrier", "algebra.make_carrier", None),
            (survey, "squares", "algebra.squares", None),
            (search, "squares", "algebra.squares", None),
            (algebra.Carrier, "square_set", "algebra.square_set", None),
            (search, "center_pairs", "algebra.center_pairs", note_pairs),
            (survey, "prefilter_field", "search.prefilter_field",
             note_prefilter),
            (survey, "msos_ring", "search.msos_ring", replay_classes),
            (survey, "msos_field", "search.msos_field", replay_classes),
            (survey, "append_checkpoint", "survey.append_checkpoint", None),
            (survey, "load_checkpoint", "survey.load_checkpoint", None),
            (survey, "render_report", "survey.render_report", None),
            (cli, "search_hourglass", "gaussian.search_hourglass",
             note_hourglass),
            (gaussian, "gaussian_factor", "gaussian.gaussian_factor", None)):
        fn = getattr(owner, attr, None)
        if fn is not None:
            targets.append((owner, attr, tracer.wrap(fn, name, after)))
    return targets


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of the traced pass.

# (name, unit) of the metrics layer_metrics derives for each workload kind;
# run.py adds the ones measured outside the spans
SCAN_METRICS = (
    ("algebra.carrier_s", "s"), ("algebra.square_set_s", "s"),
    ("algebra.squares", "count"), ("algebra.center_pairs_s", "s"),
    ("algebra.center_pairs", "count"),
    ("search.msos_s", "s"), ("search.kernel_s", "s"),
    ("search.combinations", "count"), ("search.tuples", "count"),
    ("search.yield", "ratio"),
    ("core.classes_s", "s"), ("core.classes", "count"),
    ("survey.orders", "count"),
)
FIELD_ONLY = (("search.prefilter_s", "s"), ("search.prefiltered", "count"),
              ("survey.worker_busy_s", "s"), ("survey.max_order_s", "s"))
RING_ONLY = (("survey.checkpoint_write_s", "s"),
             ("survey.checkpoint_load_s", "s"), ("survey.report_s", "s"))
HOURGLASS_METRICS = (
    ("gaussian.exhaustive_s", "s"), ("gaussian.points", "count"),
    ("gaussian.triples_tested", "count"), ("gaussian.product_first_s", "s"),
    ("gaussian.products_sieved", "count"), ("gaussian.splits_tested", "count"),
    ("gaussian.factor_s", "s"),
)


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """({workload: {metric: value}}, {workload: problems}) from the spans.

    Workload roots are the "workload" spans the traced pass opens.  The
    kernel time is derived: msos time minus its center-pair children minus
    the replayed class count.  A problem is a replayed class count that
    differs from the program's own, or an hourglass hit.
    """
    spans = tracer.spans
    stats = tracer.durations()
    root = [0] * len(spans)
    for i, s in enumerate(spans):
        root[i] = i if s[PARENT] < 0 else root[s[PARENT]]
    per: dict[int, dict] = {}
    problems: dict[int, int] = {}

    def add(r, key, value):
        per.setdefault(r, {})
        per[r][key] = per[r].get(key, 0) + value

    for i, s in enumerate(spans):
        name, attrs, r = s[NAME], s[ATTRS], root[i]
        dur = stats[i][0]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        if name == "algebra.make_carrier":
            add(r, "algebra.carrier_s", dur)
        elif name == "algebra.square_set":
            add(r, "algebra.square_set_s", dur)
        elif name == "algebra.center_pairs" and parent.startswith("search.msos"):
            n = attrs["pairs"]
            fixed_corner = parent == "search.msos_field" and attrs["e"] == 0
            add(r, "algebra.center_pairs_s", dur)
            add(r, "algebra.center_pairs", n)
            add(r, "search.combinations", n if fixed_corner else n * (n - 1) // 2)
        elif name.startswith("search.msos"):
            add(r, "search.msos_s", dur)
            add(r, "search.tuples", attrs["tuples"])
            add(r, "_classes_reported", attrs["classes"])
        elif name == "core.dihedral_canonical":
            add(r, "core.classes_s", dur)
            add(r, "core.classes", attrs["classes"])
        elif name == "search.prefilter_field":
            add(r, "search.prefilter_s", dur)
            add(r, "search.prefiltered", attrs["verdict"] is not None)
        elif name.startswith("survey.scan_") and name.endswith("_order"):
            busy = dur - stats[i][2]
            add(r, "survey.orders", 1)
            add(r, "algebra.squares", attrs["square_count"])
            add(r, "survey.worker_busy_s", busy)
            per[r]["survey.max_order_s"] = max(
                per[r].get("survey.max_order_s", 0.0), busy)
        elif name == "survey.append_checkpoint":
            add(r, "survey.checkpoint_write_s", dur)
        elif name == "survey.load_checkpoint" and attrs.get("replay"):
            add(r, "survey.checkpoint_load_s", dur)
        elif name == "survey.render_report":
            add(r, "survey.report_s", dur)
        elif name == "gaussian.search_hourglass":
            mode = attrs["mode"]
            if mode == "exhaustive":
                add(r, "gaussian.exhaustive_s", dur)
                add(r, "gaussian.points", attrs["enumerated"])
                add(r, "gaussian.triples_tested", attrs["tested"])
            else:
                add(r, "gaussian.product_first_s", dur)
                add(r, "gaussian.products_sieved", attrs["enumerated"])
                add(r, "gaussian.splits_tested", attrs["tested"])
            problems[r] = problems.get(r, 0) + attrs["hits"]
        elif name == "gaussian.gaussian_factor":
            add(r, "gaussian.factor_s", dur)
    out, bad = {}, {}
    for r, m in per.items():
        if spans[r][NAME] != "workload":
            continue
        wname = spans[r][ATTRS]["workload"]
        if "search.msos_s" in m:
            m["search.kernel_s"] = (m["search.msos_s"]
                                    - m.get("algebra.center_pairs_s", 0.0)
                                    - m.get("core.classes_s", 0.0))
            m["search.yield"] = m["search.tuples"] / max(
                m.get("search.combinations", 0), 1)
            if m.get("core.classes", 0) != m.pop("_classes_reported", 0):
                problems[r] = problems.get(r, 0) + 1
        out[wname] = m
        bad[wname] = problems.get(r, 0)
    return out, bad
