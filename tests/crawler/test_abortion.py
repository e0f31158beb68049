"""Unit tests for heuristic query abortion policies."""

import pytest

from repro.core import Query, Record, Schema
from repro.crawler import (
    CombinedAbort,
    DuplicateFractionAbort,
    NeverAbort,
    PageProgress,
    TotalCountAbort,
)
from repro.crawler.extractor import ResultExtractor
from repro.crawler.localdb import LocalDatabase
from repro.crawler.prober import DatabaseProber
from repro.metrics import TelemetrySink
from repro.runtime.events import EventBus
from repro.server import SimulatedWebDatabase, paginate
from repro.server.pagination import ResultPage

schema = Schema.of("title")


def page_with(total, fetched_so_far=0, page_size=10, report_total=True):
    matches = [Record.build(i, schema, title=f"t{i}") for i in range(total)]
    page_number = fetched_so_far // page_size + 1
    return paginate(
        Query.equality("title", "x"),
        matches,
        page_number,
        page_size,
        report_total=report_total,
    )


class TestPageProgress:
    def test_tracks_tallies(self):
        progress = PageProgress()
        progress.update(10, 4)
        progress.update(10, 0)
        assert progress.pages_fetched == 2
        assert progress.records_seen == 20
        assert progress.new_records == 4
        assert progress.duplicate_fraction == pytest.approx(0.8)

    def test_zero_records_no_division(self):
        assert PageProgress().duplicate_fraction == 0.0


class TestNeverAbort:
    def test_always_false(self):
        policy = NeverAbort()
        progress = PageProgress()
        progress.update(10, 0)
        assert not policy.should_abort(page_with(50), progress, known_matches=50)


class TestTotalCountAbort:
    def test_aborts_when_remaining_all_known(self):
        # 50 matches, all 50 already local; after page 1 (10 dups seen),
        # remaining 40 records contain >= 40 guaranteed duplicates.
        policy = TotalCountAbort(min_harvest_rate=1.0)
        progress = PageProgress()
        progress.update(10, 0)
        assert policy.should_abort(page_with(50), progress, known_matches=50)

    def test_continues_when_fresh_records_remain(self):
        policy = TotalCountAbort(min_harvest_rate=1.0)
        progress = PageProgress()
        progress.update(10, 10)
        assert not policy.should_abort(page_with(50), progress, known_matches=0)

    def test_no_total_defers(self):
        policy = TotalCountAbort()
        progress = PageProgress()
        progress.update(10, 0)
        page = page_with(50, report_total=False)
        assert not policy.should_abort(page, progress, known_matches=50)

    def test_last_page_never_aborts(self):
        policy = TotalCountAbort()
        progress = PageProgress()
        progress.update(10, 0)
        page = page_with(10)
        assert not policy.should_abort(page, progress, known_matches=10)

    def test_threshold_scales(self):
        # 30 matches, 15 known; after page 1 (10 new): remaining 20 with
        # 15 guaranteed dups -> 5 new over 2 pages = 2.5/page.
        progress = PageProgress()
        progress.update(10, 10)
        page = page_with(30)
        assert not TotalCountAbort(min_harvest_rate=2.0).should_abort(
            page, progress, known_matches=15
        )
        assert TotalCountAbort(min_harvest_rate=3.0).should_abort(
            page, progress, known_matches=15
        )


class TestShortPageRegression:
    """``page_size`` (the server's k) governs remaining-page math.

    A short page must not stand in for k: dividing the remaining
    records by the short page's length inflates the remaining-page
    count and makes the expected per-page harvest look worse than it
    is, triggering spurious aborts.
    """

    @staticmethod
    def short_page(page_size):
        # A ragged page: 4 records arrived although the server pages
        # by 10 — remaining records still span ceil(46/10)=5 pages.
        records = tuple(
            Record.build(i, schema, title=f"t{i}") for i in range(4)
        )
        return ResultPage(
            query=Query.equality("title", "x"),
            page_number=1,
            records=records,
            total_matches=50,
            accessible_matches=50,
            num_pages=5,
            page_size=page_size,
        )

    def test_disclosed_page_size_prevents_spurious_abort(self):
        progress = PageProgress()
        progress.update(4, 0)
        # 46 remaining, 16 guaranteed dups -> 30 possible new over
        # ceil(46/10)=5 pages = 6/page: comfortably above threshold 4.
        policy = TotalCountAbort(min_harvest_rate=4.0)
        assert not policy.should_abort(
            self.short_page(10), progress, known_matches=20
        )

    def test_undisclosed_page_size_falls_back_to_page_length(self):
        progress = PageProgress()
        progress.update(4, 0)
        # page_size=0 (source withholds k): ceil(46/4)=12 pages, so
        # 30/12=2.5/page drops below the same threshold.
        policy = TotalCountAbort(min_harvest_rate=4.0)
        assert policy.should_abort(
            self.short_page(0), progress, known_matches=20
        )

    def test_paginate_carries_page_size(self):
        page = page_with(25, fetched_so_far=20, page_size=10)
        assert len(page.records) == 5  # genuinely the short final page
        assert page.page_size == 10


class TestDuplicateFractionAbort:
    def test_waits_for_probe_pages(self):
        policy = DuplicateFractionAbort(max_duplicate_fraction=0.5, probe_pages=2)
        progress = PageProgress()
        progress.update(10, 0)  # 100% duplicates but only 1 page
        assert not policy.should_abort(page_with(50), progress, known_matches=0)

    def test_aborts_on_duplicate_heavy_pages(self):
        policy = DuplicateFractionAbort(max_duplicate_fraction=0.5, probe_pages=2)
        progress = PageProgress()
        progress.update(10, 1)
        progress.update(10, 2)
        assert policy.should_abort(page_with(50), progress, known_matches=0)

    def test_continues_on_fresh_pages(self):
        policy = DuplicateFractionAbort(max_duplicate_fraction=0.5, probe_pages=2)
        progress = PageProgress()
        progress.update(10, 9)
        progress.update(10, 8)
        assert not policy.should_abort(page_with(50), progress, known_matches=0)

    def test_dry_tail_aborts_despite_fresh_head(self):
        # Regression: scored cumulatively (18 new / 40 seen = 0.55
        # duplicate fraction) this query would never abort, although
        # its last two pages yielded nothing.
        policy = DuplicateFractionAbort(max_duplicate_fraction=0.9, probe_pages=2)
        progress = PageProgress()
        for new in (9, 9, 0, 0):
            progress.update(10, new)
        assert progress.duplicate_fraction < 0.9
        assert policy.should_abort(page_with(100), progress, known_matches=0)

    def test_fresh_tail_survives_duplicate_head(self):
        # The mirror regime: a duplicate-heavy early probe must not
        # doom a query whose trailing pages turned fresh.
        policy = DuplicateFractionAbort(max_duplicate_fraction=0.4, probe_pages=2)
        progress = PageProgress()
        for new in (0, 0, 10, 10):
            progress.update(10, new)
        assert progress.duplicate_fraction > 0.4
        assert not policy.should_abort(page_with(100), progress, known_matches=0)

    def test_window_duplicate_fraction_tallies(self):
        progress = PageProgress()
        progress.update(10, 10)
        progress.update(10, 0)
        assert progress.window_duplicate_fraction(1) == pytest.approx(1.0)
        assert progress.window_duplicate_fraction(2) == pytest.approx(0.5)
        # A zero-page window falls back to the cumulative fraction.
        assert progress.window_duplicate_fraction(0) == pytest.approx(0.5)
        assert PageProgress().window_duplicate_fraction(2) == 0.0


class TestCombined:
    def test_default_instances_are_independent(self):
        # field(default_factory=...) — mutating one CombinedAbort's
        # sub-policy must not leak into freshly built ones.
        first = CombinedAbort()
        second = CombinedAbort()
        assert first.total_count is not second.total_count
        assert first.duplicate_fraction is not second.duplicate_fraction
        first.total_count.min_harvest_rate = 99.0
        assert CombinedAbort().total_count.min_harvest_rate == 1.0

    def test_uses_total_when_reported(self):
        policy = CombinedAbort()
        progress = PageProgress()
        progress.update(10, 0)
        assert policy.should_abort(page_with(50), progress, known_matches=50)

    def test_falls_back_to_duplicates(self):
        policy = CombinedAbort(
            duplicate_fraction=DuplicateFractionAbort(0.5, probe_pages=1)
        )
        progress = PageProgress()
        progress.update(10, 0)
        page = page_with(50, report_total=False)
        assert policy.should_abort(page, progress, known_matches=0)


class TestAbortionEndToEnd:
    """Prober + SimulatedWebDatabase + telemetry, both total regimes.

    30 records share one queriable value, paged 5 at a time (6 pages).
    With every record already local, an effective abortion policy stops
    paying early, and the rounds it declined to pay must land in the
    metrics registry as ``crawl_rounds_saved_total``.
    """

    @staticmethod
    def build(abortion, report_total):
        from repro.core import RelationalTable

        hub_schema = Schema.of("title", "tag")
        table = RelationalTable(hub_schema, name="hub")
        table.insert_rows(
            {"title": f"t{i}", "tag": "common"} for i in range(30)
        )
        server = SimulatedWebDatabase(
            table, page_size=5, report_total=report_total
        )
        local_db = LocalDatabase()
        for record_id in table.record_ids():
            local_db.add(table.get(record_id))
        bus = EventBus()
        sink = bus.attach(TelemetrySink())
        prober = DatabaseProber(
            server,
            ResultExtractor(server.interface, local_db.interner),
            local_db,
            abortion=abortion,
            bus=bus,
            policy="test",
        )
        return prober, sink

    def test_total_reported_aborts_after_first_page(self):
        prober, sink = self.build(
            TotalCountAbort(min_harvest_rate=1.0), report_total=True
        )
        outcome = prober.execute(Query.equality("tag", "common"))
        assert outcome.aborted
        assert outcome.pages_fetched == 1
        assert sink.queries_aborted.value(policy="test") == 1
        assert sink.rounds_saved.value(policy="test") == 5  # pages 2..6
        assert sink.pages_fetched.value(policy="test") == 1

    def test_total_suppressed_falls_back_to_duplicate_window(self):
        prober, sink = self.build(
            CombinedAbort(
                duplicate_fraction=DuplicateFractionAbort(
                    max_duplicate_fraction=0.9, probe_pages=2
                )
            ),
            report_total=False,
        )
        outcome = prober.execute(Query.equality("tag", "common"))
        assert outcome.total_matches is None
        assert outcome.aborted
        assert outcome.pages_fetched == 2  # probe window, then abort
        assert sink.rounds_saved.value(policy="test") == 4  # pages 3..6

    def test_never_abort_pays_every_page(self):
        prober, sink = self.build(NeverAbort(), report_total=True)
        outcome = prober.execute(Query.equality("tag", "common"))
        assert not outcome.aborted
        assert outcome.pages_fetched == 6
        assert sink.rounds_saved.value(policy="test") == 0
        assert sink.records_duplicate.value(policy="test") == 30
