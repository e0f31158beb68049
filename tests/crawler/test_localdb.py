"""Unit and property tests for the crawler's local database."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttributeValue
from repro.crawler import LocalDatabase
from tests.conftest import make_record
from tests.crawler.reference import ReferenceLocalDatabase


def AV(attribute, value):
    return AttributeValue(attribute, value)


class TestAdd:
    def test_new_record_true(self):
        local = LocalDatabase()
        assert local.add(make_record(1, a="x"))
        assert len(local) == 1

    def test_duplicate_false(self):
        local = LocalDatabase()
        record = make_record(1, a="x")
        assert local.add(record)
        assert not local.add(record)
        assert len(local) == 1

    def test_add_all_counts_new(self):
        local = LocalDatabase()
        records = [make_record(1, a="x"), make_record(2, a="y"), make_record(1, a="x")]
        assert local.add_all(records) == 2

    def test_contains_and_ids(self):
        local = LocalDatabase()
        local.add(make_record(5, a="x"))
        assert 5 in local
        assert 6 not in local
        assert local.record_ids() == [5]


class TestStatistics:
    def test_frequency_counts_matching_records(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p"))
        local.add(make_record(2, a="x", b="q"))
        assert local.frequency(AV("a", "x")) == 2
        assert local.frequency(AV("b", "p")) == 1
        assert local.frequency(AV("a", "ghost")) == 0

    def test_degree_is_distinct_neighbors(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p"))
        local.add(make_record(2, a="x", b="p"))  # same neighbourhood
        local.add(make_record(3, a="x", b="q"))
        assert local.degree(AV("a", "x")) == 2  # p and q
        assert local.degree(AV("b", "p")) == 1

    def test_neighbors(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p", c="z"))
        assert local.neighbors(AV("a", "x")) == {AV("b", "p"), AV("c", "z")}

    def test_matching_ids(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x"))
        local.add(make_record(4, a="x"))
        assert local.matching_ids(AV("a", "x")) == {1, 4}

    def test_keyword_frequency_spans_attributes(self):
        local = LocalDatabase()
        local.add(make_record(1, a="orbit"))
        local.add(make_record(2, b="orbit"))
        assert local.keyword_frequency("orbit") == 2

    def test_distinct_values_sorted(self):
        local = LocalDatabase()
        local.add(make_record(1, b="y", a="x"))
        values = local.distinct_values()
        assert values == sorted(values)
        assert local.num_distinct_values() == 2

    def test_values_of_attribute(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="y"))
        assert local.values_of_attribute("a") == [AV("a", "x")]


class TestCooccurrence:
    def test_joint_counts(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p"))
        local.add(make_record(2, a="x", b="p"))
        local.add(make_record(3, a="x", b="q"))
        assert local.cooccurrence(AV("a", "x"), AV("b", "p")) == 2
        assert local.cooccurrence(AV("a", "x"), AV("b", "q")) == 1
        assert local.cooccurrence(AV("b", "p"), AV("b", "q")) == 0

    def test_row_built_from_postings(self):
        """A row first asked for after its records is built from postings."""
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p", c="z"))
        local.add(make_record(2, a="x", b="p"))
        x, p, z = map(local.value_id, (AV("a", "x"), AV("b", "p"), AV("c", "z")))
        assert local.cooc_row(x) == {p: 2, z: 1}
        assert local.cooccurrence(AV("a", "x"), AV("b", "p")) == 2

    def test_row_of_unharvested_value_is_not_cached(self):
        """A row asked for before the value's first record stays empty
        until the record arrives, then reflects it."""
        local = LocalDatabase()
        x = local.intern_value(AV("a", "x"))
        assert local.cooc_row(x) == {}
        assert local.cooc_row(10_000) == {}
        local.add(make_record(1, a="x", b="p"))
        assert local.cooc_row(x) == {local.value_id(AV("b", "p")): 1}

    def test_modes_agree(self):
        """Both modes of the reference oracle agree with the rows."""
        records = [
            make_record(1, a="x", b="p"),
            make_record(2, a="x", b="q"),
            make_record(3, a="y", b="p"),
        ]
        local = LocalDatabase()
        tracked = ReferenceLocalDatabase(track_cooccurrence=True)
        untracked = ReferenceLocalDatabase(track_cooccurrence=False)
        for record in records:
            local.add(record)
            tracked.add(record)
            untracked.add(record)
        for u in tracked.distinct_values():
            for v in tracked.distinct_values():
                expected = tracked.cooccurrence(u, v)
                assert untracked.cooccurrence(u, v) == expected
                assert local.cooccurrence(u, v) == expected


class TestPmi:
    def test_independent_pair_pmi_zero(self):
        # P(x)=0.5, P(p)=0.5, P(x,p)=0.25 over 4 records: PMI = ln 1 = 0.
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p"))
        local.add(make_record(2, a="x", b="q"))
        local.add(make_record(3, a="y", b="p"))
        local.add(make_record(4, a="y", b="q"))
        assert local.pmi(AV("a", "x"), AV("b", "p")) == pytest.approx(0.0)

    def test_perfect_dependency_positive(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p"))
        local.add(make_record(2, a="y", b="q"))
        # x and p always co-occur: PMI = ln(1*2/(1*1)) = ln 2.
        assert local.pmi(AV("a", "x"), AV("b", "p")) == pytest.approx(math.log(2))

    def test_never_cooccur_is_minus_inf(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p"))
        local.add(make_record(2, a="y", b="q"))
        assert local.pmi(AV("a", "x"), AV("b", "q")) == -math.inf

    def test_empty_db_is_minus_inf(self):
        local = LocalDatabase()
        assert local.pmi(AV("a", "x"), AV("b", "p")) == -math.inf


class TestFrozenViews:
    """neighbors()/matching_ids() must never expose live internal sets."""

    def test_neighbors_view_is_immutable(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p"))
        view = local.neighbors(AV("a", "x"))
        assert view == {AV("b", "p")}
        with pytest.raises(AttributeError):
            view.add(AV("b", "q"))

    def test_matching_ids_view_is_immutable(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x"))
        view = local.matching_ids(AV("a", "x"))
        assert view == {1}
        with pytest.raises(AttributeError):
            view.discard(1)

    def test_held_view_detached_from_later_inserts(self):
        # A policy may hold a view across rounds; G_local must neither
        # leak into it nor be corruptible through it.
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p"))
        neighbors_before = local.neighbors(AV("a", "x"))
        ids_before = local.matching_ids(AV("a", "x"))
        local.add(make_record(2, a="x", b="q"))
        assert neighbors_before == {AV("b", "p")}
        assert ids_before == {1}
        assert local.neighbors(AV("a", "x")) == {AV("b", "p"), AV("b", "q")}
        assert local.matching_ids(AV("a", "x")) == {1, 2}
        assert local.degree(AV("a", "x")) == 2

    def test_unknown_value_empty_views(self):
        local = LocalDatabase()
        assert local.neighbors(AV("a", "nope")) == frozenset()
        assert local.matching_ids(AV("a", "nope")) == frozenset()

    def test_views_compose_with_set_algebra(self):
        # mmmi intersects neighbor views with plain sets — keep working.
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p", c="m"))
        queried = {AV("b", "p"), AV("z", "zz")}
        assert local.neighbors(AV("a", "x")) & queried == {AV("b", "p")}


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("xyz"), st.sampled_from("pqr")),
        min_size=1,
        max_size=20,
    )
)
def test_property_degree_equals_local_avg_degree(pairs):
    """LocalDatabase's incremental degree must match a from-scratch AVG."""
    from repro.graph import build_avg

    records = [make_record(i, a=a, b=b) for i, (a, b) in enumerate(pairs)]
    local = LocalDatabase()
    for record in records:
        local.add(record)
    graph = build_avg(records)
    for node in graph.nodes:
        assert local.degree(node) == graph.degree(node)
        assert local.frequency(node) == graph.nodes[node]["frequency"]
