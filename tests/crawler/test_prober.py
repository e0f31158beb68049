"""Unit tests for the database prober (query execution + paging)."""

import pytest

from repro.core import CrawlError, Query
from repro.crawler import (
    DatabaseProber,
    LocalDatabase,
    ResultExtractor,
    TotalCountAbort,
)
from repro.server import SimulatedWebDatabase


def make_prober(books, abortion=None, use_xml=False, local=None):
    server = SimulatedWebDatabase(books, page_size=2)
    local = local if local is not None else LocalDatabase()
    extractor = ResultExtractor(server.interface, local.interner)
    return server, local, DatabaseProber(server, extractor, local, abortion, use_xml)


class TestExecute:
    def test_extractor_must_share_the_interner(self, books):
        """Clique ids from a foreign interner would corrupt DB_local."""
        server = SimulatedWebDatabase(books, page_size=2)
        extractor = ResultExtractor(server.interface, LocalDatabase().interner)
        with pytest.raises(CrawlError, match="interner"):
            DatabaseProber(server, extractor, LocalDatabase())

    def test_fetches_all_pages(self, books):
        server, local, prober = make_prober(books)
        outcome = prober.execute(Query.equality("publisher", "orbit"))
        assert outcome.pages_fetched == 2
        assert outcome.records_returned == 4
        assert len(outcome.new_records) == 4
        assert outcome.total_matches == 4
        assert not outcome.aborted
        assert server.rounds == 2
        assert len(local) == 4

    def test_duplicates_not_new(self, books):
        _server, local, prober = make_prober(books)
        prober.execute(Query.equality("publisher", "orbit"))
        outcome = prober.execute(Query.equality("author", "knuth"))
        # knuth matches records 0, 1 (orbit, already local) and 4 (mitp).
        assert outcome.records_returned == 3
        assert len(outcome.new_records) == 1
        assert outcome.new_records[0].record_id == 4

    def test_zero_match_query(self, books):
        server, _local, prober = make_prober(books)
        outcome = prober.execute(Query.equality("publisher", "ghost"))
        assert outcome.pages_fetched == 1
        assert outcome.records_returned == 0
        assert outcome.harvest_rate == 0.0
        assert server.rounds == 1

    def test_rejected_query_costs_nothing(self, books):
        server, _local, prober = make_prober(books)
        outcome = prober.execute(Query.equality("price", "10"))
        assert outcome.rejected
        assert outcome.pages_fetched == 0
        assert server.rounds == 0

    def test_candidate_values_from_all_pages(self, books):
        _server, _local, prober = make_prober(books)
        outcome = prober.execute(Query.equality("publisher", "orbit"))
        attributes = {v.attribute for v in outcome.candidate_values}
        assert attributes == {"title", "publisher", "author"}

    def test_harvest_rate(self, books):
        _server, _local, prober = make_prober(books)
        outcome = prober.execute(Query.equality("publisher", "orbit"))
        assert outcome.harvest_rate == pytest.approx(4 / 2)


class TestAbortion:
    def test_abort_stops_paging(self, books):
        server, local, prober = make_prober(
            books, abortion=TotalCountAbort(min_harvest_rate=1.0)
        )
        # Pre-load everything so the orbit query returns only duplicates.
        for record in books:
            local.add(record)
        outcome = prober.execute(Query.equality("publisher", "orbit"))
        assert outcome.aborted
        assert outcome.pages_fetched == 1
        assert server.rounds == 1


class TestXmlPath:
    def test_same_outcome_as_object_path(self, books):
        _s1, _l1, object_prober = make_prober(books, use_xml=False)
        _s2, _l2, xml_prober = make_prober(books, use_xml=True)
        query = Query.equality("publisher", "orbit")
        a = object_prober.execute(query)
        b = xml_prober.execute(query)
        assert a.pages_fetched == b.pages_fetched
        assert [r.record_id for r in a.new_records] == [
            r.record_id for r in b.new_records
        ]
        assert a.candidate_values == b.candidate_values
