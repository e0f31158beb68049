"""Differential tests: the CSR table against the dict-and-list oracle.

Every way of building a :class:`RelationalTable` — one bulk
``insert_rows``, record-at-a-time ``insert`` in shuffled id order,
inserts interleaved with reads, single inserts followed by a bulk load —
must answer every read exactly like :class:`ReferenceTable` built the
same way: records and their pair order, interned ids, every equality
and keyword posting, conjunctive results, counts and projections.  A
pickled copy and a shared-memory attach must answer the same.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConjunctiveQuery,
    Query,
    Record,
    RelationalTable,
    Schema,
    SchemaError,
)
from repro.core.schema import Attribute
from repro.core.shmtable import shared_table
from repro.core.values import AttributeValue
from repro.datasets import generate_acm, generate_dblp, generate_ebay, generate_imdb
from tests.core.reference_table import ReferenceTable

SCHEMA = Schema.of(
    "title",
    "publisher",
    author={"multivalued": True},
    price={"queriable": False, "displayed": False},
)

TEXT = st.sampled_from(
    ["Orbit", "orbit ", " Knuth", "knuth", "Hopper", "a  b", "A B", "", "   ",
     "zeta", "Ünïcode", "x\ty"]
)
ROWS = st.lists(
    st.fixed_dictionaries(
        {},
        optional={
            "title": TEXT,
            "publisher": TEXT,
            "author": st.lists(TEXT, max_size=3),
            "price": TEXT,
        },
    ),
    max_size=25,
)

GHOST = AttributeValue("title", "no-such-value-anywhere")


def generated(generate, n_records: int, seed: int):
    """The schema and raw rows a dataset generator hands to insert_rows,
    with the schema's last column hidden from result pages."""
    captured = []
    original = RelationalTable.insert_rows

    def capture(table, rows, start_id=0):
        rows = list(rows)
        captured.append((table.schema, rows))
        return original(table, rows, start_id)

    RelationalTable.insert_rows = capture
    try:
        generate(n_records=n_records, seed=seed)
    finally:
        RelationalTable.insert_rows = original
    ((schema, rows),) = captured
    last = schema.attributes[-1].name
    hidden = Schema(
        tuple(
            Attribute(a.name, a.queriable, a.name != last, a.multivalued)
            for a in schema
        )
    )
    return hidden, rows


def build_pair(schema, rows, how: str, seed: int = 0):
    """The same rows into a RelationalTable and a ReferenceTable."""
    table = RelationalTable(schema, name="t")
    oracle = ReferenceTable(schema, name="t")
    if how == "bulk":
        table.insert_rows(rows)
        oracle.insert_rows(rows)
        return table, oracle
    records = [Record.build(i, schema, **row) for i, row in enumerate(rows)]
    random.Random(seed).shuffle(records)
    if how == "mixed":
        # Single inserts take some ids; the bulk load skips them.
        singles = records[: len(records) // 3]
        for record in singles:
            table.insert(record)
            oracle.insert(record)
        rest = [rows[i] for i in range(len(rows)) if i % 2]
        table.insert_rows(rest)
        oracle.insert_rows(rest)
        return table, oracle
    for step, record in enumerate(records):
        table.insert(record)
        oracle.insert(record)
        if how == "interleaved" and step % 3 == 0:
            for pair in record.attribute_values():
                assert table.frequency(pair) == oracle.frequency(pair)
                assert table.match_keyword(pair.value) == oracle.match_keyword(
                    pair.value
                )
            assert len(table) == len(oracle)
    return table, oracle


def assert_same(table, oracle):
    assert len(table) == len(oracle)
    assert list(table) == list(oracle)
    assert [r.attribute_values() for r in table] == [
        r.attribute_values() for r in oracle
    ]
    assert table.record_ids() == oracle.record_ids()
    assert table.schema == oracle.schema
    assert table.num_distinct_values() == oracle.num_distinct_values()
    assert table.distinct_values() == oracle.distinct_values()
    for attribute in oracle.schema.names:
        assert table.distinct_values(attribute) == oracle.distinct_values(attribute)
    for vid, pair in enumerate(oracle._value_interner.values()):
        assert table.value_id(pair) == vid
        assert table.match_equality(pair.attribute, pair.value) == (
            oracle.match_equality(pair.attribute, pair.value)
        )
        assert table.frequency(pair) == oracle.frequency(pair)
        query = Query.equality(pair.attribute, pair.value)
        assert table.count(query) == oracle.count(query)
    for tid, token in enumerate(oracle._keyword_interner.state_dict()):
        assert table.keyword_id(token) == tid
        assert table.match_keyword(token) == oracle.match_keyword(token)
        query = Query.keyword(token)
        assert table.count(query) == oracle.count(query)
    for record in oracle:
        pairs = record.attribute_values()
        for k in range(1, min(len(pairs), 3) + 1):
            assert table.match_conjunctive(pairs[:k]) == (
                oracle.match_conjunctive(pairs[:k])
            )
        if len({p.attribute for p in pairs[:2]}) == 2:
            query = ConjunctiveQuery(pairs[:2])
            assert table.match(query) == oracle.match(query)
            assert table.count(query) == oracle.count(query)
    assert table.value_id(GHOST) is None
    assert table.frequency(GHOST) == 0
    assert table.match_conjunctive([GHOST]) == []
    assert table.match_keyword("no-such-token-anywhere") == []
    ids = oracle.record_ids()
    assert table.project(ids) == oracle.project(ids)


def assert_copies_same(table, oracle):
    """A pickle round-trip and a shared-memory attach read the same,
    and the attached table still does once its block is unlinked."""
    assert_same(pickle.loads(pickle.dumps(table)), oracle)
    with shared_table(table) as handle:
        attached = handle.table()
        assert type(attached) is RelationalTable
        assert_same(attached, oracle)
    assert_same(attached, oracle)


@settings(max_examples=40, deadline=None)
@given(rows=ROWS, how=st.sampled_from(["bulk", "shuffled", "interleaved", "mixed"]))
def test_hypothesis_rows(rows, how):
    table, oracle = build_pair(SCHEMA, rows, how, seed=len(rows))
    assert_same(table, oracle)
    assert_copies_same(table, oracle)


@pytest.fixture(
    scope="module",
    params=[
        (generate_ebay, 300),
        (generate_imdb, 200),
        (generate_dblp, 300),
        (generate_acm, 300),
    ],
    ids=["ebay", "imdb", "dblp", "acm"],
)
def dataset(request):
    generate, n_records = request.param
    return generated(generate, n_records, seed=3)


@pytest.mark.parametrize("how", ["bulk", "shuffled", "interleaved", "mixed"])
def test_generated_datasets(dataset, how):
    schema, rows = dataset
    table, oracle = build_pair(schema, rows, how, seed=7)
    assert_same(table, oracle)
    if how == "bulk":
        assert_copies_same(table, oracle)


def test_insert_rejects_several_values_on_single_valued_attribute():
    table = RelationalTable(SCHEMA)
    with pytest.raises(SchemaError, match="single-valued"):
        table.insert(Record(1, {"title": ("one", "two")}))
    assert len(table) == 0
