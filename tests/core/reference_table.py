"""Test oracle: the dict-and-list universal table.

This is the table :class:`repro.core.table.RelationalTable` replaced
with CSR postings: records in an insertion-ordered dict, one sorted
Python list of record ids per interned attribute value and per keyword
token, each kept sorted at insert time.  It is slow to build but easy
to check by eye, so the differential tests compare the production
table against it read for read.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.errors import SchemaError
from repro.core.intern import StringInterner, ValueInterner, intersect_sorted
from repro.core.query import AnyQuery, ConjunctiveQuery
from repro.core.records import Record
from repro.core.schema import Schema
from repro.core.values import AttributeValue, normalize


def _insert_posting(postings: List[int], record_id: int) -> None:
    """Insert ``record_id`` keeping ``postings`` sorted ascending.

    Inserts are effectively append-ordered (bulk loaders hand out
    ascending ids), so the tail check makes the common case O(1); the
    bisect fallback keeps out-of-order inserts correct.
    """
    if not postings or record_id > postings[-1]:
        postings.append(record_id)
    else:
        insort(postings, record_id)


class ReferenceTable:
    """An indexed, append-only universal table (dicts and lists).

    Parameters
    ----------
    schema:
        Column definitions including queriable / displayed flags.
    name:
        Human-readable source name used in reports ("ebay", "imdb", ...).
    """

    def __init__(self, schema: Schema, name: str = "db") -> None:
        self.schema = schema
        self.name = name
        self._records: Dict[int, Record] = {}
        self._value_interner = ValueInterner()
        self._keyword_interner = StringInterner()
        # Posting lists indexed by interned id, grown in lock-step with
        # the interners; only insert() assigns ids, so every id has a
        # non-empty posting list (the table is append-only).
        self._equality_postings: List[List[int]] = []
        self._keyword_postings: List[List[int]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def insert(self, record: Record) -> None:
        """Insert one record, updating both inverted indexes.

        Raises
        ------
        SchemaError
            If the record id already exists or the record references an
            attribute the schema does not define.
        """
        if record.record_id in self._records:
            raise SchemaError(f"duplicate record id {record.record_id}")
        for attribute in record.fields:
            if attribute not in self.schema:
                raise SchemaError(
                    f"record {record.record_id} uses unknown attribute "
                    f"{attribute!r}"
                )
        self._records[record.record_id] = record
        equality = self._equality_postings
        keywords = self._keyword_postings
        seen_keywords: set[int] = set()
        for pair in record.attribute_values():
            vid = self._value_interner.intern(pair)
            if vid == len(equality):
                equality.append([])
            _insert_posting(equality[vid], record.record_id)
            tid = self._keyword_interner.intern(pair.value)
            if tid not in seen_keywords:
                seen_keywords.add(tid)
                if tid == len(keywords):
                    keywords.append([])
                _insert_posting(keywords[tid], record.record_id)

    def insert_rows(self, rows: Iterable[dict], start_id: int = 0) -> None:
        """Bulk-insert raw ``attribute → value(s)`` dictionaries."""
        next_id = start_id
        while next_id in self._records:
            next_id += 1
        for row in rows:
            self.insert(Record.build(next_id, self.schema, **row))
            next_id += 1
            while next_id in self._records:
                next_id += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records.values())

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._records

    def get(self, record_id: int) -> Record:
        return self._records[record_id]

    def record_ids(self) -> List[int]:
        """All record ids, ascending."""
        return sorted(self._records)

    def distinct_values(self, attribute: Optional[str] = None) -> List[AttributeValue]:
        """The distinct attribute-value set (DAV), optionally per attribute.

        This is the vertex set of the table's attribute-value graph.
        """
        values = self._value_interner.values()
        if attribute is None:
            return sorted(values)
        key = attribute.strip().lower()
        return sorted(p for p in values if p.attribute == key)

    def num_distinct_values(self) -> int:
        """``|DAV|`` — the AVG's vertex count (Table 2's right column)."""
        return len(self._value_interner)

    def frequency(self, pair: AttributeValue) -> int:
        """Number of records containing ``pair``."""
        vid = self._value_interner.lookup(pair)
        return 0 if vid is None else len(self._equality_postings[vid])

    # ------------------------------------------------------------------
    # Interned ids — for callers keying caches on this table's values
    # ------------------------------------------------------------------
    def value_id(self, pair: AttributeValue) -> Optional[int]:
        """Dense id of an attribute value, or None if absent."""
        return self._value_interner.lookup(pair)

    def keyword_id(self, value: str) -> Optional[int]:
        """Dense id of a (normalized) keyword token, or None if absent."""
        return self._keyword_interner.lookup(normalize(value))

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match_equality(self, attribute: str, value: str) -> List[int]:
        """Record ids matching ``attribute = value``, sorted ascending."""
        vid = self._value_interner.lookup(AttributeValue(attribute, value))
        return [] if vid is None else list(self._equality_postings[vid])

    def match_keyword(self, value: str) -> List[int]:
        """Record ids holding ``value`` under *any* attribute, sorted."""
        tid = self._keyword_interner.lookup(normalize(value))
        return [] if tid is None else list(self._keyword_postings[tid])

    def match_conjunctive(self, predicates: Sequence[AttributeValue]) -> List[int]:
        """Record ids satisfying *all* predicates, sorted ascending.

        Evaluated by merging sorted posting arrays smallest-first, so
        the cost is proportional to the most selective predicate.
        """
        lookup = self._value_interner.lookup
        postings = []
        for pair in predicates:
            vid = lookup(pair)
            if vid is None:
                return []
            postings.append(self._equality_postings[vid])
        if not postings:
            return []
        postings.sort(key=len)
        result: Sequence[int] = postings[0]
        for posting in postings[1:]:
            result = intersect_sorted(result, posting)
            if not result:
                break
        return list(result)

    def match(self, query: AnyQuery) -> List[int]:
        """Dispatch any query kind to the right index path."""
        if isinstance(query, ConjunctiveQuery):
            return self.match_conjunctive(query.predicates)
        if query.is_keyword:
            return self.match_keyword(query.value)
        assert query.attribute is not None
        return self.match_equality(query.attribute, query.value)

    def count(self, query: AnyQuery) -> int:
        """``num(q, DB)`` from the paper's cost model (Definition 2.3)."""
        if isinstance(query, ConjunctiveQuery):
            return len(self.match_conjunctive(query.predicates))
        if query.is_keyword:
            tid = self._keyword_interner.lookup(normalize(query.value))
            return 0 if tid is None else len(self._keyword_postings[tid])
        vid = self._value_interner.lookup(query.as_attribute_value())
        return 0 if vid is None else len(self._equality_postings[vid])

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def project(self, record_ids: Sequence[int]) -> List[Record]:
        """Project records onto the result schema ``Ar``.

        Attributes flagged ``displayed=False`` are stripped, modelling a
        source that accepts queries on a column it never shows.
        """
        displayed = set(self.schema.displayed)
        projected = []
        for record_id in record_ids:
            record = self._records[record_id]
            if len(displayed) == len(self.schema):
                projected.append(record)
                continue
            fields = {
                attribute: values
                for attribute, values in record.fields.items()
                if attribute in displayed
            }
            projected.append(Record(record.record_id, fields))
        return projected
