import concurrent.futures
import csv
import io
import itertools
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from parker import algebra, search, survey
from parker.algebra import (MAX_ORDER, factorize, make_carrier,
                            prime_power_base, squares)
from parker.survey import (ScanRecord, load_checkpoint,
                           non_standard_record_breakers, record_breakers,
                           render_report, scan_fields, scan_rings,
                           write_report)


def _zero_elapsed(records):
    return [r._replace(elapsed_ms=0) for r in records]


@pytest.fixture
def fake_clock(monkeypatch):
    # deterministic per-call timestamps so resumed output is byte-identical
    counter = itertools.count()
    monkeypatch.setattr(survey, "_now_ms", lambda: float(next(counter)))


class TestScanFields:
    def test_smallest_non_parker_field(self):
        records, table = scan_fields(2, 29)
        assert [r.order for r in records] == \
            [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
        assert [r.order for r in records if not r.parker] == [29]
        assert records[-1].msos_count == 2

    def test_prefilter_reason_recorded(self):
        records, _ = scan_fields(2, 16)
        by_order = {r.order: r for r in records}
        assert by_order[16].prefilter_reason == "even-order"
        assert by_order[13].prefilter_reason == "too-few-squares"
        assert all(r.parker for r in records)

    def test_primes_filter(self):
        records, _ = scan_fields(2, 30, "primes-only")
        assert [r.order for r in records] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_strict_prime_power_filter(self):
        records, _ = scan_fields(2, 30, "prime-powers-only")
        assert [r.order for r in records] == [4, 8, 9, 16, 25, 27]

    @pytest.mark.parametrize("lo,hi", [(2, 5000), (730, 5000), (3000, 3500),
                                       (15625, 19683), (0, 1), (2, 32768),
                                       (28000, 32768), (4, 4), (5, 5), (1, 2),
                                       (-10, 100), (-10, -3)])
    def test_orders_match_prime_power_base(self, lo, hi):
        # each order classified on its own by its factorization
        for order_filter, keep in (("all", {1, 2}), ("primes-only", {1}),
                                   ("prime-powers-only", {2})):
            expected = [n for n in range(max(lo, 2), hi + 1)
                        if prime_power_base(n)
                        and min(prime_power_base(n)[1], 2) in keep]
            assert survey.field_orders(lo, hi, order_filter) == expected

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValueError, match="unknown field filter"):
            survey.field_orders(2, 12, "primes")
        with pytest.raises(ValueError, match="unknown field filter"):
            scan_fields(2, 12, "primes")

    def test_record_breaker_table(self):
        records, breakers = scan_fields(2, 97, "primes-only")
        assert breakers == ((2, 0), (29, 2), (61, 4), (89, 5), (97, 6))
        assert record_breakers(records) == breakers

    def test_parallel_matches_serial(self):
        serial, table1 = scan_fields(2, 60, jobs=1)
        parallel, table2 = scan_fields(2, 60, jobs=2)
        assert _zero_elapsed(serial) == _zero_elapsed(parallel)
        assert table1 == table2


def _refuse(*args, **kwargs):
    raise AssertionError("called past the guard")


# prefilter reasons of scan_fields(2, 400); every other order has none
PREFILTER_REASONS_TO_400 = {
    2: "even-order", 3: "too-few-squares", 4: "even-order",
    5: "too-few-squares", 7: "too-few-squares", 8: "even-order",
    9: "too-few-squares", 11: "too-few-squares", 13: "too-few-squares",
    16: "even-order", 17: "no-consecutive-squares", 19: "pair-deficit",
    23: "pair-deficit", 25: "no-consecutive-squares", 27: "pair-deficit",
    32: "even-order", 64: "even-order", 128: "even-order",
    256: "even-order"}
UNLABELLED_TO_400 = (
    29, 31, 37, 41, 43, 47, 49, 53, 59, 61, 67, 71, 73, 79, 81, 83, 89,
    97, 101, 103, 107, 109, 113, 121, 125, 127, 131, 137, 139, 149, 151,
    157, 163, 167, 169, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227,
    229, 233, 239, 241, 243, 251, 257, 263, 269, 271, 277, 281, 283, 289,
    293, 307, 311, 313, 317, 331, 337, 343, 347, 349, 353, 359, 361, 367,
    373, 379, 383, 389, 397)


class TestPrefilterLabels:
    def test_reasons_to_400(self):
        records, _ = scan_fields(2, 400)
        expected = sorted([*PREFILTER_REASONS_TO_400.items(),
                           *((q, None) for q in UNLABELLED_TO_400)])
        assert [(r.order, r.prefilter_reason) for r in records] == expected

    @pytest.mark.parametrize("order", [29, 841, 2187])
    def test_not_called_for_non_parker_orders(self, monkeypatch, order):
        monkeypatch.setattr(survey, "prefilter_field", _refuse)
        rec = survey.scan_field_order(order)
        assert not rec.parker
        assert rec.prefilter_reason is None


class TestEvenFieldOrders:
    def test_settled_without_carrier(self, monkeypatch):
        monkeypatch.setattr(survey, "make_carrier", _refuse)
        for order in (2, 4, 8, 1024, 2048, 4096):
            rec = survey.scan_field_order(order)
            assert (rec.square_count, rec.msos_count,
                    rec.dihedral_class_count, rec.parker,
                    rec.prefilter_reason) == (order, 0, 0, True, "even-order")

    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32])
    def test_every_element_is_a_square(self, order):
        assert survey.scan_field_order(order).square_count == \
            len(squares(make_carrier("field", order)))

    def test_other_even_orders_still_rejected(self):
        for order in (6, 12, 2 * MAX_ORDER):
            with pytest.raises(ValueError):
                survey.scan_field_order(order)


class TestRingOrders:
    @pytest.mark.parametrize("mod", [0, -4])
    def test_congruence_modulus_below_one(self, mod):
        with pytest.raises(ValueError, match="at least 1"):
            survey.ring_orders(2, 20, (mod, 0))
        with pytest.raises(ValueError, match="at least 1"):
            scan_rings(2, 20, (mod, 0))

    def test_congruence(self):
        assert survey.ring_orders(2, 20, (1, 0)) == list(range(2, 21))
        assert survey.ring_orders(2, 20, (4, 3)) == [3, 7, 11, 15, 19]


class TestOrderGuard:
    @pytest.mark.parametrize("scan", [scan_fields, scan_rings])
    def test_fails_before_any_order(self, monkeypatch, scan):
        for name in ("field_orders", "ring_orders", "_run_scan"):
            monkeypatch.setattr(survey, name, _refuse)
        with pytest.raises(ValueError, match="exceeds the limit"):
            scan(MAX_ORDER - 5, MAX_ORDER + 1)

    @pytest.mark.parametrize("orders", [survey.field_orders,
                                        survey.ring_orders])
    def test_inverted_range_rejected(self, orders):
        with pytest.raises(ValueError, match="inverted range"):
            orders(5, 2)
        assert orders(5, 5) == [5]
        assert orders(0, 1) == []  # not inverted, only below the least order

    @pytest.mark.parametrize("order_filter", ["all", "primes-only",
                                              "prime-powers-only"])
    def test_inverted_field_range_rejected_by_every_filter(self,
                                                           order_filter):
        for lo, hi in ((5, 2), (40, 3)):
            with pytest.raises(ValueError, match="inverted range"):
                survey.field_orders(lo, hi, order_filter)

    @pytest.mark.parametrize("hi", [-5, 0, 1])
    @pytest.mark.parametrize("order_filter", ["all", "primes-only",
                                              "prime-powers-only"])
    def test_field_orders_below_two_empty(self, hi, order_filter):
        assert survey.field_orders(-10, hi, order_filter) == []


class _InlinePool:
    """Stand-in for ProcessPoolExecutor that records its size and each
    map's (item count, chunksize), runs inline."""

    sizes: list = []
    batches: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        items = list(items)
        self.batches.append((len(items), chunksize))
        return map(fn, items)


def _spy_ring_orders(monkeypatch):
    """The list of moduli scan_ring_order is called on, in call order."""
    scanned = []
    real = survey.scan_ring_order
    monkeypatch.setattr(survey, "scan_ring_order",
                        lambda n: scanned.append(n) or real(n))
    return scanned


def _clock_past_budget_after(monkeypatch, done, k):
    """A clock that stands at 0 until the list done holds k items, then
    reads the serial budget, so the pool takes over after k orders."""
    monkeypatch.setattr(survey, "_now_ms",
                        lambda: survey.SERIAL_MS * (len(done) >= k))


class TestPoolSize:
    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(_InlinePool, "sizes", [])
        monkeypatch.setattr(_InlinePool, "batches", [])
        # survey imports the pool class from here when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _InlinePool)
        yield _InlinePool
        assert len(_InlinePool.batches) == len(_InlinePool.sizes)
        for pending, chunksize in _InlinePool.batches:
            assert 1 <= chunksize <= pending

    @pytest.fixture
    def past_budget(self, monkeypatch):
        # each reading is a full serial budget after the last, so a scan
        # hands every pending order to the pool before computing one
        clock = itertools.count(0.0, survey.SERIAL_MS)
        monkeypatch.setattr(survey, "_now_ms", lambda: next(clock))

    @pytest.mark.parametrize("cpus,jobs,expected", [
        (64, 10**9, [16]),  # capped by the 16 pending orders
        (4, 10**9, [4]),    # capped by the CPU count
        (4, 3, [3]),
        (1, 10**9, []),     # one usable CPU, as for an unknown count: serial
        (64, 1, []),
    ], ids=["by-orders", "by-cpus", "by-jobs", "no-cpu-count", "serial"])
    def test_workers_capped(self, pool, past_budget, monkeypatch, cpus, jobs,
                            expected):
        monkeypatch.setattr(survey, "_usable_cpus", lambda: cpus)
        records, _ = scan_fields(2, 29, jobs=jobs)
        assert pool.sizes == expected
        assert [r.order for r in records if not r.parker] == [29]

    def test_pool_capped_by_affinity(self, pool, past_budget, monkeypatch):
        # pinned to 2 of the host's 64 CPUs, as under taskset or a cpuset
        monkeypatch.setattr(survey.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(survey.os, "cpu_count", lambda: 64)
        scan_fields(2, 29, jobs=64)
        assert pool.sizes == [2]

    @pytest.mark.parametrize("count,expected", [(8, 8), (None, 1)],
                             ids=["count", "unknown"])
    def test_cpu_count_without_affinity(self, monkeypatch, count, expected):
        monkeypatch.delattr(survey.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(survey.os, "cpu_count", lambda: count)
        assert survey._usable_cpus() == expected

    def test_resumed_scan_sizes_pool_by_pending(self, pool, past_budget,
                                                monkeypatch, tmp_path):
        monkeypatch.setattr(survey, "_usable_cpus", lambda: 64)
        ckpt = str(tmp_path / "ckpt.jsonl")
        scan_fields(2, 23, checkpoint=ckpt)
        scan_fields(2, 29, jobs=10**9, checkpoint=ckpt)
        assert pool.sizes == [3]  # 25, 27 and 29

    def test_batches_shrink_with_pending_orders(self, pool, past_budget,
                                                monkeypatch):
        monkeypatch.setattr(survey, "_usable_cpus", lambda: 2)
        scan_rings(1001, 2999, (4, 0), jobs=2)
        scan_rings(2, 5, jobs=2)
        assert pool.batches == [(499, 31), (4, 1)]

    def test_scan_within_budget_starts_no_pool(self, pool, monkeypatch):
        monkeypatch.setattr(survey, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(survey, "_now_ms", lambda: 0.0)
        records, _ = scan_rings(1001, 2999, (4, 0), jobs=2)
        assert len(records) == 499
        assert pool.sizes == []

    @pytest.mark.parametrize("k,batch", [
        (1, (498, 31)), (120, (379, 23)), (497, (2, 1))])
    def test_pool_gets_the_orders_left_at_the_budget(self, pool, monkeypatch,
                                                     caplog, k, batch):
        monkeypatch.setattr(survey, "_usable_cpus", lambda: 2)
        scanned = _spy_ring_orders(monkeypatch)
        _clock_past_budget_after(monkeypatch, scanned, k)
        pending = survey.ring_orders(1001, 2999, (4, 0))
        with caplog.at_level("INFO", logger="parker.survey"):
            records, _ = scan_rings(1001, 2999, (4, 0), jobs=2)
        rest = len(pending) - k
        assert pool.sizes == [2]
        assert pool.batches == [batch]  # chunksize from the rest alone
        assert scanned == pending  # each order once, the serial ones first
        assert [r.order for r in records] == pending
        # one line as the pool starts, between the per-order lines
        starts = [i for i, m in enumerate(caplog.messages) if "pool" in m]
        assert starts == [k]
        assert caplog.messages[k] == (f"ring scan: pool of 2 workers for "
                                      f"{rest} orders, {k} done serially "
                                      f"in {survey.SERIAL_MS:.0f} ms")

    def test_last_order_never_gets_a_pool(self, pool, monkeypatch):
        monkeypatch.setattr(survey, "_usable_cpus", lambda: 2)
        scanned = _spy_ring_orders(monkeypatch)
        _clock_past_budget_after(monkeypatch, scanned, 4)
        scan_rings(2, 6, jobs=2)
        assert scanned == [2, 3, 4, 5, 6]
        assert pool.sizes == []

    def test_pool_records_and_checkpoint_match_serial(self, monkeypatch,
                                                      tmp_path):
        # a real pool of two workers, batched, takes over after 40 of the
        # 100 moduli; the serial loop runs them all
        monkeypatch.setattr(survey, "_usable_cpus", lambda: 2)
        written = []
        real = survey.append_checkpoint
        monkeypatch.setattr(survey, "append_checkpoint",
                            lambda fh, rec: written.append(rec)
                            or real(fh, rec))
        _clock_past_budget_after(monkeypatch, written, 40)
        started = []
        real_pool = concurrent.futures.ProcessPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: started.append(max_workers)
                            or real_pool(max_workers=max_workers))
        runs = []
        for jobs in (1, 2):
            written.clear()
            ckpt = tmp_path / f"jobs{jobs}.jsonl"
            records, table = scan_rings(1001, 1400, (4, 0), jobs=jobs,
                                        checkpoint=str(ckpt))
            lines = ckpt.read_text().splitlines()
            runs.append((_zero_elapsed(records), table, _zero_elapsed(
                [survey.record_from_json(line) for line in lines])))
        assert started == [2]
        assert runs[0] == runs[1]
        assert runs[0][0] == runs[0][2]  # appended as they arrive, ascending

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, pool, jobs):
        with pytest.raises(ValueError):
            scan_rings(2, 10, jobs=jobs)
        assert pool.sizes == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unwritable_checkpoint_fails_before_any_order(
            self, pool, past_budget, monkeypatch, tmp_path, jobs):
        monkeypatch.setattr(survey, "_usable_cpus", lambda: 2)
        scanned = _spy_ring_orders(monkeypatch)
        with pytest.raises(OSError):
            scan_rings(2, 30, jobs=jobs,
                       checkpoint=str(tmp_path / "missing" / "c"))
        assert scanned == []
        assert pool.sizes == []


class TestScanRings:
    def test_first_non_parker_ring(self):
        records, _ = scan_rings(2, 30)
        non_parker = [(r.order, r.msos_count) for r in records if not r.parker]
        assert non_parker[0] == (27, 3)

    def test_odd_filter(self):
        records, _ = scan_rings(3, 15, "odd")
        assert [r.order for r in records] == [3, 5, 7, 9, 11, 13, 15]

    def test_congruence_filter(self):
        records, _ = scan_rings(2, 30, (4, 0))
        assert [r.order for r in records] == [4, 8, 12, 16, 20, 24, 28]

    def test_bad_filter(self):
        with pytest.raises(ValueError):
            scan_rings(2, 10, "even-ish")

    def test_one_factorization_per_modulus(self, monkeypatch):
        calls = []

        def spy(n):
            calls.append(n)
            return factorize(n)

        for module in (algebra, search, survey):
            monkeypatch.setattr(module, "factorize", spy)
        search._component_counts.cache_clear()
        rec = survey.scan_ring_order(3216)
        # 3216 = 16 * 3 * 67 only: the vectors of its new prime powers
        # take them from that factorization
        assert calls == [3216]
        calls.clear()
        assert survey.scan_ring_order(3216)._replace(elapsed_ms=0) == \
            rec._replace(elapsed_ms=0)
        assert calls == [3216]
        assert (rec.square_count, rec.msos_count) == (272, 0)


class TestRecordBreakers:
    def test_strictly_increasing(self):
        _, breakers = scan_rings(2, 60)
        counts = [c for _, c in breakers]
        assert counts == sorted(set(counts))
        orders = [o for o, _ in breakers]
        assert orders == sorted(orders)

    def test_known_ring_breakers(self):
        _, breakers = scan_rings(2, 60)
        # ignore the leading all-Parker row; the rest match the reference
        assert [row for row in breakers if row[1] > 0] == \
            [(27, 3), (29, 7), (37, 9), (53, 13), (54, 36), (58, 56)]

    def test_conjectured_form_exceptions(self):
        rows = ((27, 3), (29, 7), (37, 9), (53, 13), (54, 36), (58, 56),
                (74, 72), (101, 75), (106, 104), (122, 240), (162, 576),
                (202, 604))
        assert non_standard_record_breakers(rows) == \
            [27, 29, 37, 53, 54, 101, 162]


class TestScanRecord:
    RECORD = ScanRecord(29, "field", 15, 2, None, 1)

    @pytest.mark.parametrize("field", (*ScanRecord._fields, "parker",
                                       "dihedral_class_count"))
    def test_fields_cannot_be_assigned(self, field):
        with pytest.raises(AttributeError):
            setattr(self.RECORD, field, 0)
        assert self.RECORD == ScanRecord(29, "field", 15, 2, None, 1)

    @pytest.mark.parametrize("parker, msos", [(True, 2), (False, 0)])
    def test_parker_flag_must_agree_with_count(self, parker, msos):
        # the flag and the class count follow msos_count, so no record can
        # be built or replaced with ones that disagree with it
        rec = self.RECORD._replace(msos_count=msos)
        assert (rec.parker, rec.dihedral_class_count) == (not parker, msos)
        with pytest.raises(TypeError):
            ScanRecord(29, "field", 15, msos, None, 1, parker=parker)
        for derived in ({"parker": parker}, {"dihedral_class_count": 1}):
            with pytest.raises(ValueError, match="unexpected field"):
                rec._replace(**derived)

    def test_checkpoint_line_sorts_its_keys(self):
        assert survey.record_to_json(self.RECORD) == (
            '{"dihedral_class_count": 2, "elapsed_ms": 1, "kind": "field", '
            '"msos_count": 2, "order": 29, "parker": false, '
            '"prefilter_reason": null, "square_count": 15}')

    def test_pickles_for_the_pool(self):
        rec = pickle.loads(pickle.dumps(self.RECORD))
        assert type(rec) is ScanRecord and rec == self.RECORD


_RECORDS = st.builds(
    ScanRecord, st.integers(0, MAX_ORDER), st.sampled_from(["field", "ring"]),
    st.integers(0, MAX_ORDER), st.integers(0, 10**7),
    st.sampled_from([None, *search.PREFILTER_REASONS]),
    st.integers(0, 10**6))


class TestReports:
    @given(st.lists(_RECORDS, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_every_record_round_trips(self, records):
        for rec in records:
            assert survey.record_from_json(survey.record_to_json(rec)) == rec
        lines = render_report(records, "jsonl").splitlines()
        assert [survey.record_from_json(line) for line in lines] == records

    @given(st.lists(_RECORDS, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_templates_match_json_and_csv_writers(self, records):
        # the records are written from templates, not by json or csv
        for rec in records:
            assert survey.record_to_json(rec) == json.dumps(
                {k: getattr(rec, k) for k in survey.CSV_COLUMNS},
                sort_keys=True)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(survey.CSV_COLUMNS)
        for rec in records:
            writer.writerow([
                rec.order, rec.kind, rec.square_count, rec.msos_count,
                rec.dihedral_class_count, "true" if rec.parker else "false",
                rec.prefilter_reason or "", rec.elapsed_ms])
        assert render_report(records, "csv") == buf.getvalue()

    def test_csv_columns_and_values(self):
        records, _ = scan_fields(2, 17)
        text = render_report(records, "csv")
        lines = text.splitlines()
        assert lines[0] == ("order,kind,square_count,msos_count,"
                            "dihedral_class_count,parker,prefilter_reason,"
                            "elapsed_ms")
        row2 = lines[1].split(",")
        assert row2[0] == "2" and row2[1] == "field" and row2[5] == "true"

    def test_empty_records_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_report([], "csv", path)
        assert path.read_text() == ("order,kind,square_count,msos_count,"
                                    "dihedral_class_count,parker,"
                                    "prefilter_reason,elapsed_ms\n")

    def test_jsonl_round_trip(self, tmp_path):
        records, _ = scan_rings(2, 20)
        path = tmp_path / "r.jsonl"
        write_report(records, "jsonl", path)
        assert [survey.record_from_json(line)
                for line in path.read_text().splitlines()] == records

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report([], "tsv")

    @pytest.mark.parametrize("scan_order, order", [
        (survey.scan_ring_order, 27), (survey.scan_field_order, 29),
        (survey.scan_field_order, 16)])
    def test_elapsed_ms_rounds(self, monkeypatch, scan_order, order):
        # 0.6 ms reads 1, not the 0 that truncation gives
        clock = iter([0.0, 0.6])
        monkeypatch.setattr(survey, "_now_ms", lambda: next(clock))
        rec = scan_order(order)
        assert rec.elapsed_ms == 1 and type(rec.elapsed_ms) is int


class TestCheckpoint:
    def test_resume_reproduces_identical_output(self, tmp_path, fake_clock):
        full_ckpt = tmp_path / "full.jsonl"
        records, _ = scan_fields(2, 29, checkpoint=str(full_ckpt))
        baseline = render_report(records, "csv")

        # simulate a kill after any number of completed orders
        lines = full_ckpt.read_text().splitlines()
        for cut in (0, 1, 7, len(lines) - 1):
            part = tmp_path / f"part{cut}.jsonl"
            part.write_text("".join(line + "\n" for line in lines[:cut]))
            resumed, _ = scan_fields(2, 29, checkpoint=str(part))
            assert render_report(resumed, "csv") == baseline

    def test_each_record_is_on_disk_before_the_next_order(self, tmp_path,
                                                          monkeypatch):
        # a kill between two orders loses neither: each record is flushed
        # as its order completes
        ckpt = tmp_path / "ckpt.jsonl"
        real, seen = survey.scan_ring_order, []

        def spy(n):
            seen.append(len(ckpt.read_text().splitlines()))
            return real(n)

        monkeypatch.setattr(survey, "scan_ring_order", spy)
        survey.scan_rings(4, 40, (4, 0), checkpoint=str(ckpt))
        assert seen == list(range(10))

    def test_corrupt_lines_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "ckpt.jsonl"
        rec = ScanRecord(2, "field", 2, 0, "even-order", 1)
        good = json.loads(survey.record_to_json(
            ScanRecord(29, "field", 15, 2, None, 1)))
        bad = ["{not json}", '{"order": 3}', "[1, 2]", '"x"', "7", "null",
               json.dumps({**good, "parker": True}),
               json.dumps({**good, "msos_count": 0}),
               json.dumps({**good, "dihedral_class_count": 1}),
               # wrongly typed fields the consistency checks let through
               json.dumps({**good, "order": 29.0}),
               json.dumps({**good, "order": -29}),
               json.dumps({**good, "msos_count": 2.0,
                           "dihedral_class_count": 2.0}),
               json.dumps({**good, "msos_count": 7.5,
                           "dihedral_class_count": 7.5}),
               json.dumps({**good, "msos_count": -3,
                           "dihedral_class_count": -3}),
               json.dumps({**good, "square_count": True}),
               json.dumps({**good, "elapsed_ms": "1"}),
               json.dumps({**good, "kind": "cube"}),
               json.dumps({**good, "parker": 0}),
               json.dumps({**good, "prefilter_reason": 5}),
               json.dumps({**good, "prefilter_reason": "made-up"})]
        path.write_text(survey.record_to_json(rec) + "\n"
                        + "".join(line + "\n" for line in bad))
        with caplog.at_level("WARNING", logger="parker.survey"):
            done = load_checkpoint(str(path))
        assert set(done) == {("field", 2)}
        assert sum("corrupt" in m for m in caplog.messages) == len(bad)

    def test_retired_policy_lines_skipped(self, tmp_path, caplog):
        path = tmp_path / "old.jsonl"
        line = survey.record_to_json(
            ScanRecord(29, "field", 15, 2, None, 1))
        obj = json.loads(line)
        path.write_text(json.dumps({**obj, "policy": "canonical"}) + "\n"
                        + json.dumps({**obj, "order": 37, "msos_count": 6,
                                      "policy": "both"}) + "\n")
        with caplog.at_level("WARNING", logger="parker.survey"):
            done = load_checkpoint(str(path))
        assert done == {("field", 29): survey.record_from_json(line)}
        assert sum("corrupt" in m for m in caplog.messages) == 1

    def test_progress_rate_counts_only_this_run(self, tmp_path, monkeypatch,
                                                caplog):
        ckpt = str(tmp_path / "ckpt.jsonl")
        scan_rings(2, 10, checkpoint=ckpt)
        # one second per clock reading: three per order, and one at the start
        clock = itertools.count(0, 1000)
        monkeypatch.setattr(survey, "_now_ms", lambda: float(next(clock)))
        with caplog.at_level("INFO", logger="parker.survey"):
            scan_rings(2, 13, checkpoint=ckpt)
        assert [m.split("; ")[1:] for m in caplog.messages] == [
            ["10/12 done, 0 not Parker", "0.33 orders/s, ETA 6.0 s"],
            ["11/12 done, 0 not Parker", "0.33 orders/s, ETA 3.0 s"],
            ["12/12 done, 0 not Parker", "0.33 orders/s, ETA 0.0 s"]]

    def test_missing_checkpoint_is_empty(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "nope.jsonl")) == {}

    def test_checkpoint_ignores_other_kind(self, tmp_path, fake_clock):
        ckpt = tmp_path / "mixed.jsonl"
        scan_rings(2, 10, checkpoint=str(ckpt))
        records, _ = scan_fields(2, 10, checkpoint=str(ckpt))
        assert [r.kind for r in records] == ["field"] * len(records)
