"""Differential oracle: interned ``LocalDatabase`` vs the pre-PR dicts.

The dense-interning rewrite of :class:`repro.crawler.localdb.
LocalDatabase` must be *invisible* — every statistic it serves has to
match the retained pure-dict implementation
(:class:`tests.crawler.reference.ReferenceLocalDatabase`) on any record
stream.  These tests feed byte-identical seeded streams to both and
compare the full statistical surface:

frequencies, degrees, neighbor sets, postings (``matching_ids``),
keyword frequencies, co-occurrence counts (against both the oracle's
tracked counter and its posting intersection), PMI, conjunctive
matching, and the vocabulary views.  Every stream also asks for
co-occurrence rows between its ``add`` calls — some before the value's
first record — and checks each built row against the oracle's joint
counts as the stream goes, so row maintenance is pinned too.

A hypothesis property covers adversarial small streams (duplicate
records, multi-valued attributes, colliding values across attributes);
a larger fixed-seed random stream covers the bulk statistics at a size
where lazy posting flushes and re-sorts actually trigger.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttributeValue, ValueInterner
from repro.core.records import Record
from repro.crawler import LocalDatabase
from tests.crawler.reference import ReferenceLocalDatabase

ATTRIBUTES = ("author", "venue", "year", "tags")
VALUES = tuple(f"v{i}" for i in range(12))


def make_stream(seed: int, n: int, duplicate_every: int = 4) -> list[Record]:
    """A deterministic record stream with collisions and duplicates."""
    rng = random.Random(seed)
    records: list[Record] = []
    for i in range(n):
        if records and i % duplicate_every == 3:
            # Re-offer an earlier record verbatim (the common case in a
            # crawl: result pages overlap heavily).
            records.append(records[rng.randrange(len(records))])
            continue
        fields = {}
        for attribute in rng.sample(ATTRIBUTES, rng.randint(1, len(ATTRIBUTES))):
            if attribute == "tags":  # multi-valued
                fields[attribute] = tuple(
                    rng.sample(VALUES, rng.randint(1, 3))
                )
            else:
                fields[attribute] = (rng.choice(VALUES),)
        records.append(Record(i, fields))
    return records


def assert_equivalent(local: LocalDatabase, reference: ReferenceLocalDatabase):
    """Compare the entire statistical surface of the two implementations."""
    assert len(local) == len(reference)
    assert local.record_ids() == reference.record_ids()
    assert local.num_distinct_values() == reference.num_distinct_values()
    assert local.distinct_values() == reference.distinct_values()

    values = reference.distinct_values()
    for value in values:
        assert local.frequency(value) == reference.frequency(value), value
        assert local.degree(value) == reference.degree(value), value
        assert local.neighbors(value) == reference.neighbors(value), value
        assert local.matching_ids(value) == reference.matching_ids(value), value

    keywords = {value.value for value in values}
    for keyword in keywords:
        assert local.keyword_frequency(keyword) == reference.keyword_frequency(
            keyword
        ), keyword

    for attribute in ATTRIBUTES:
        assert local.values_of_attribute(attribute) == (
            reference.values_of_attribute(attribute)
        ), attribute

    # Pairwise statistics over a deterministic sample (all pairs would
    # be quadratic; the sample still covers co-occurring and disjoint
    # pairs, plus the u == v diagonal).
    sample = values[:: max(1, len(values) // 12)]
    for u in sample:
        for v in sample:
            assert local.cooccurrence(u, v) == reference.cooccurrence(u, v), (u, v)
            expected = reference.pmi(u, v)
            actual = local.pmi(u, v)
            if math.isinf(expected):
                assert math.isinf(actual) and actual < 0, (u, v)
            else:
                assert actual == expected, (u, v)

    # Conjunctive matching over sampled predicate pairs/triples.
    for i in range(0, max(0, len(values) - 2), 3):
        predicates = [values[i], values[i + 1], values[i + 2]]
        assert local.conjunctive_matching_ids(predicates) == (
            reference.conjunctive_matching_ids(predicates)
        ), predicates
        assert local.conjunctive_frequency(predicates) == (
            reference.conjunctive_frequency(predicates)
        ), predicates

    # Unknown values answer identically on both.
    ghost = AttributeValue("author", "never-harvested")
    assert local.frequency(ghost) == reference.frequency(ghost) == 0
    assert local.degree(ghost) == reference.degree(ghost) == 0
    assert local.neighbors(ghost) == reference.neighbors(ghost) == frozenset()
    assert local.matching_ids(ghost) == reference.matching_ids(ghost) == frozenset()


def assert_rows_match(local: LocalDatabase, reference, requested):
    """Every requested row holds exactly the oracle's positive joints."""
    values = reference.distinct_values()
    decode = local.interner.value
    for u in requested:
        expected = {}
        for v in values:
            joint = reference.cooccurrence(u, v)
            if joint and v != u:
                expected[v] = joint
        row = local.cooc_row(local.value_id(u))
        assert {decode(p): joint for p, joint in row.items()} == expected, u


def feed_both(records, track_cooccurrence: bool, interner=None):
    """Feed ``records`` to both databases, interleaving row requests.

    ``track_cooccurrence`` picks the oracle's mode.  Before every fifth
    record the local database is asked for the row of that record's
    first value — still unharvested when the value is new — and every
    requested row is checked against the oracle every 50 records and at
    the end.
    """
    local = LocalDatabase(interner=interner)
    reference = ReferenceLocalDatabase(track_cooccurrence=track_cooccurrence)
    requested = []
    for i, record in enumerate(records):
        if i % 5 == 0:
            value = record.attribute_values()[0]
            vid = local.intern_value(value)
            if not local.frequency_id(vid):
                assert local.cooc_row(vid) == {}
            else:
                local.cooc_row(vid)
            requested.append(value)
        assert local.add(record) == reference.add(record), record.record_id
        if i % 50 == 49:
            assert_rows_match(local, reference, requested)
    assert_rows_match(local, reference, requested)
    return local, reference


class TestSeededStreams:
    def test_tracked_cooccurrence_stream(self):
        records = make_stream(seed=11, n=600)
        local, reference = feed_both(records, track_cooccurrence=True)
        assert_equivalent(local, reference)

    def test_posting_intersection_stream(self):
        # The oracle answers co-occurrence from posting intersections;
        # the local rows are built from postings too — the lazy
        # flush/sort machinery.
        records = make_stream(seed=23, n=600)
        local, reference = feed_both(records, track_cooccurrence=False)
        assert_equivalent(local, reference)

    def test_interleaved_reads_do_not_perturb_state(self):
        # Reading statistics mid-stream triggers posting flushes between
        # adds; the final state must still match a write-only reference.
        records = make_stream(seed=37, n=300)
        local, reference = feed_both([], track_cooccurrence=False)
        probe = AttributeValue("author", VALUES[0])
        for i, record in enumerate(records):
            assert local.add(record) == reference.add(record)
            if i % 7 == 0:
                local.matching_ids(probe)
                local.keyword_frequency(VALUES[1])
                local.conjunctive_frequency(
                    [probe, AttributeValue("venue", VALUES[2])]
                )
        assert_equivalent(local, reference)

    def test_shared_interner_pollution_is_invisible(self):
        # A shared interner holding ids for values no harvested record
        # contains (seeds, frontier candidates) must not leak into the
        # vocabulary or any statistic.
        interner = ValueInterner()
        for i in range(40):
            interner.intern(AttributeValue("author", f"phantom-{i}"))
        records = make_stream(seed=51, n=400)
        local, reference = feed_both(
            records, track_cooccurrence=True, interner=interner
        )
        assert_equivalent(local, reference)

    def test_multiple_clique_sizes(self):
        # Single-attribute records (clique of 1: no edges) through wide
        # multi-valued cliques.
        for seed, duplicate_every in ((3, 2), (5, 10)):
            records = make_stream(seed=seed, n=250, duplicate_every=duplicate_every)
            records += [
                Record(10_000 + i, {"author": (VALUES[i % len(VALUES)],)})
                for i in range(30)
            ]
            local, reference = feed_both(records, track_cooccurrence=True)
            assert_equivalent(local, reference)


@st.composite
def record_streams(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    records = []
    for i in range(n):
        record_id = draw(st.integers(min_value=0, max_value=12))
        n_attrs = draw(st.integers(min_value=1, max_value=3))
        fields = {}
        for a in range(n_attrs):
            attribute = draw(st.sampled_from(ATTRIBUTES))
            n_values = draw(st.integers(min_value=1, max_value=2))
            fields[attribute] = tuple(
                draw(st.sampled_from(VALUES[:5])) for _ in range(n_values)
            )
        records.append(Record(record_id, fields))
    return records


class TestPropertyDifferential:
    @settings(max_examples=60, deadline=None)
    @given(records=record_streams(), tracked=st.booleans())
    def test_any_stream_matches_reference(self, records, tracked):
        # ``tracked`` picks the oracle's mode; the local side has one.
        local, reference = feed_both(records, track_cooccurrence=tracked)
        assert_equivalent(local, reference)
