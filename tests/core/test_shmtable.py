"""Shared-memory table payloads: round-trip fidelity and lifecycle.

``repro.core.shmtable`` copies a :class:`RelationalTable` into one
shared-memory block and attaches it back as a ``RelationalTable`` over
the block's buffers.  The attached table stands in for the original
inside grid workers, so every read path the crawler touches — records, postings,
match semantics *including tie order* — must be indistinguishable from
the original, and the block itself must not outlive the grid.
"""

from __future__ import annotations

import pytest

from repro.core import AttributeValue, Query
from repro.core import shmtable
from repro.datasets.ebay import generate_ebay

@pytest.fixture(scope="module")
def table():
    return generate_ebay(n_records=300, seed=4)


@pytest.fixture(scope="module")
def view(table):
    with shmtable.shared_table(table) as handle:
        yield handle.table()


class TestRoundTrip:
    def test_len_and_record_ids(self, table, view):
        assert len(view) == len(table)
        assert view.record_ids() == table.record_ids()

    def test_records_identical(self, table, view):
        for record_id in table.record_ids():
            assert view.get(record_id) == table.get(record_id)
        assert list(view) == list(table)

    def test_membership(self, table, view):
        present = table.record_ids()[0]
        assert present in view
        assert -1 not in view
        with pytest.raises(KeyError):
            view.get(-1)

    def test_distinct_values_and_frequencies(self, table, view):
        assert view.distinct_values() == table.distinct_values()
        assert view.num_distinct_values() == table.num_distinct_values()
        for attribute in table.schema.attributes:
            assert view.distinct_values(attribute.name) == (
                table.distinct_values(attribute.name)
            )
        for pair in table.distinct_values():
            assert view.frequency(pair) == table.frequency(pair)
            assert view.value_id(pair) == table.value_id(pair)

    def test_frequency_of_unknown_value(self, table, view):
        ghost = AttributeValue("seller", "nobody-sells-this")
        assert view.frequency(ghost) == table.frequency(ghost) == 0
        assert view.value_id(ghost) is None

    def test_match_paths_identical(self, table, view):
        for pair in table.distinct_values():
            assert view.match_equality(pair.attribute, pair.value) == (
                table.match_equality(pair.attribute, pair.value)
            )
        sample = table.distinct_values()[0]
        token = sample.value.split()[0]
        assert view.match_keyword(token) == table.match_keyword(token)
        assert view.match_keyword("zz-no-such-token") == []

    def test_conjunctive_tie_order(self, table, view):
        """The smallest-posting-first merge order must survive the trip."""
        record = table.get(table.record_ids()[0])
        predicates = list(record.attribute_values())[:2]
        assert view.match_conjunctive(predicates) == table.match_conjunctive(
            predicates
        )

    def test_query_objects_and_counts(self, table, view):
        pair = table.distinct_values("seller")[0]
        query = Query.equality(pair.attribute, pair.value)
        assert view.match(query) == table.match(query)
        assert view.count(query) == table.count(query)

    def test_project(self, table, view):
        ids = table.record_ids()[:7]
        assert view.project(ids) == table.project(ids)

    def test_schema_round_trip(self, table, view):
        assert view.schema.attributes == table.schema.attributes
        assert view.schema.queriable == table.schema.queriable


class TestLifecycle:
    def test_handle_is_picklable(self, table):
        import pickle

        with shmtable.shared_table(table) as handle:
            clone = pickle.loads(pickle.dumps(handle))
            assert clone.shm_name == handle.shm_name
            assert clone.table().record_ids() == table.record_ids()

    def test_attach_is_cached(self, table):
        with shmtable.shared_table(table) as handle:
            assert handle.table() is handle.table()

    def test_unlink_frees_the_block(self, table):
        handle = shmtable.share_table(table)
        name = handle.shm_name
        handle.unlink()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_unlink_is_idempotent(self, table):
        handle = shmtable.share_table(table)
        handle.unlink()
        handle.unlink()

    def test_empty_table_is_not_shared(self):
        from repro.core.table import RelationalTable
        from repro.experiments.harness import _table_source

        empty = generate_ebay(n_records=5, seed=2)
        empty_real = RelationalTable(empty.schema)
        source, payloads, cleanup = _table_source(empty_real, share=True)
        assert payloads == ()
        assert source() is empty_real
        cleanup()

    def test_crawl_over_view_matches_table(self, table, view):
        """End to end: a GL crawl cannot tell the view from the table."""
        from repro.crawler import CrawlerEngine
        from repro.policies import GreedyLinkSelector
        from repro.server import SimulatedWebDatabase

        seed_value = next(
            value
            for value in table.distinct_values("seller")
            if table.frequency(value) >= 2
        )
        results = []
        for source in (table, view):
            engine = CrawlerEngine(
                SimulatedWebDatabase(source, page_size=10),
                GreedyLinkSelector(),
                seed=3,
            )
            results.append(engine.crawl([seed_value], max_queries=30))
        assert results[0] == results[1]
