"""The universal relational table backing a simulated web source.

The paper joins each source's data "into one single universal table" and
makes multi-valued columns full-text searchable (Section 5).  A
:class:`RelationalTable` stores :class:`~repro.core.records.Record` rows
and two inverted indexes so that both structured equality queries and
keyword queries run in time proportional to their result size:

- ``(attribute, value) → record ids`` for equality predicates, and
- ``value → record ids`` for keyword queries.

Keys are dense ids from a :class:`~repro.core.intern.ValueInterner` /
:class:`~repro.core.intern.StringInterner`, and each index is one CSR
pair of numpy arrays: the postings of id ``i`` are
``ids[indptr[i]:indptr[i + 1]]``, sorted ascending, so results are
deterministic and pagination is stable.  The same arrays back the table
in every process — :mod:`repro.core.shmtable` copies them into one
shared-memory block and attaches a ``RelationalTable`` over the block's
buffers.

:meth:`RelationalTable.insert_rows` is the build: it normalizes each
distinct raw string once, interns each ``(attribute, value)`` once (every
record holds the interned pair objects), and sorts all ``(id, record)``
pairs into the CSR arrays in one pass before it returns.
:meth:`RelationalTable.insert` adds one record; its pairs wait in a
pending list that the next read merges into the arrays.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.errors import SchemaError
from repro.core.intern import StringInterner, ValueInterner, intersect_sorted
from repro.core.query import AnyQuery, ConjunctiveQuery
from repro.core.records import Record
from repro.core.schema import Attribute, Schema
from repro.core.values import AttributeValue, normalize


def _csr(keys: np.ndarray, record_ids: np.ndarray, n_keys: int) -> tuple:
    """``(key, record id)`` pairs → (indptr, ids), each row ascending.

    Duplicate pairs collapse: a token held under two attributes of one
    record is one keyword posting.
    """
    order = np.lexsort((record_ids, keys))
    keys = keys[order]
    record_ids = record_ids[order]
    if keys.size:
        keep = np.empty(keys.size, dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keep[1:] |= record_ids[1:] != record_ids[:-1]
        keys = keys[keep]
        record_ids = record_ids[keep]
    indptr = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=indptr[1:])
    return indptr, record_ids


class RelationalTable:
    """An indexed, append-only universal table.

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
        # Keyword token id of every value id (a value is one token).
        self._value_token: List[int] = []
        # CSR postings; arrays are replaced, never written in place.
        self._eq_indptr = self._kw_indptr = np.zeros(1, dtype=np.int64)
        self._eq_ids = self._kw_ids = np.zeros(0, dtype=np.int64)
        # Inserted records the CSR arrays do not hold yet: their ids,
        # their value counts, and their value ids back to back.
        self._pending_records: List[int] = []
        self._pending_counts: List[int] = []
        self._pending_values: List[int] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def insert(self, record: Record) -> None:
        """Insert one record; the next read indexes it.

        Raises
        ------
        SchemaError
            If the record id already exists, the record references an
            attribute the schema does not define, or it holds several
            values under a single-valued attribute.
        """
        if record.record_id in self._records:
            raise SchemaError(f"duplicate record id {record.record_id}")
        for attribute, values in record.fields.items():
            if attribute not in self.schema:
                raise SchemaError(
                    f"record {record.record_id} uses unknown attribute "
                    f"{attribute!r}"
                )
            if len(values) > 1 and not self.schema.attribute(attribute).multivalued:
                raise SchemaError(
                    f"record {record.record_id}: attribute {attribute!r} is "
                    f"single-valued but got {len(values)} values"
                )
        self._records[record.record_id] = record
        pairs = record.attribute_values()
        self._pending_records.append(record.record_id)
        self._pending_counts.append(len(pairs))
        self._pending_values.extend(self._intern(pair) for pair in pairs)

    def insert_rows(self, rows: Iterable[dict], start_id: int = 0) -> None:
        """Bulk-insert raw ``attribute → value(s)`` dictionaries.

        Rows take ascending ids from ``start_id``, skipping ids already
        in the table.  Validation matches :meth:`Record.build`; the
        table is fully indexed when this returns.
        """
        records = self._records
        definitions: Dict[str, Attribute] = {}
        normalized: Dict[str, str] = {}
        # attribute → normalized value → (pair, value id), for this call
        interned: Dict[str, Dict[str, tuple]] = {}
        pending_records = self._pending_records
        pending_counts = self._pending_counts
        pending_values = self._pending_values
        next_id = start_id
        for row in rows:
            while next_id in records:
                next_id += 1
            fields: Dict[str, tuple] = {}
            for attribute, raw in row.items():
                definition = definitions.get(attribute)
                if definition is None:
                    definition = self.schema.attribute(attribute)
                    definitions[attribute] = definition
                if isinstance(raw, str):
                    raw = (raw,)
                elif not definition.multivalued and len(raw) > 1:
                    raise SchemaError(
                        f"attribute {attribute!r} is single-valued but got "
                        f"{len(raw)} values"
                    )
                values = []
                for text in raw:
                    value = normalized.get(text)
                    if value is None:
                        value = normalized[text] = normalize(text)
                    if value and value not in values:
                        values.append(value)
                fields[definition.name] = tuple(values)
            if not all(fields.values()):
                fields = {name: values for name, values in fields.items() if values}
            pairs = []
            for name, values in fields.items():
                known = interned.get(name)
                if known is None:
                    known = interned[name] = {}
                for value in values:
                    entry = known.get(value)
                    if entry is None:
                        pair = AttributeValue(name, value)
                        entry = known[value] = (pair, self._intern(pair))
                    pairs.append(entry[0])
                    pending_values.append(entry[1])
            records[next_id] = Record._normalized(next_id, fields, tuple(pairs))
            pending_records.append(next_id)
            pending_counts.append(len(pairs))
            next_id += 1
        self._index()

    def _intern(self, pair: AttributeValue) -> int:
        vid = self._value_interner.intern(pair)
        if vid == len(self._value_token):
            self._value_token.append(self._keyword_interner.intern(pair.value))
        return vid

    def _index(self) -> None:
        """Merge the pending records into the CSR arrays."""
        if not self._pending_records:
            return
        counts = np.diff(self._eq_indptr)
        value_ids = np.concatenate((
            np.repeat(np.arange(counts.size, dtype=np.int64), counts),
            np.array(self._pending_values, dtype=np.int64),
        ))
        record_ids = np.concatenate((
            self._eq_ids,
            np.repeat(
                np.array(self._pending_records, dtype=np.int64),
                np.array(self._pending_counts, dtype=np.int64),
            ),
        ))
        self._eq_indptr, self._eq_ids = _csr(
            value_ids, record_ids, len(self._value_interner)
        )
        tokens = np.array(self._value_token, dtype=np.int64)[value_ids]
        self._kw_indptr, self._kw_ids = _csr(
            tokens, record_ids, len(self._keyword_interner)
        )
        self._pending_records = []
        self._pending_counts = []
        self._pending_values = []

    # ------------------------------------------------------------------
    # Columnar state — what repro.core.shmtable ships between processes
    # ------------------------------------------------------------------
    def _columns(self) -> Dict[str, np.ndarray]:
        """The CSR arrays by name, fully indexed."""
        self._index()
        return {
            "eq_indptr": self._eq_indptr, "eq_ids": self._eq_ids,
            "kw_indptr": self._kw_indptr, "kw_ids": self._kw_ids,
        }

    def _use_columns(self, columns: Mapping[str, np.ndarray]) -> None:
        """Serve postings from the CSR arrays in ``columns`` (keyed as
        :meth:`_columns` keys them); the caller keeps them valid."""
        self._eq_indptr = columns["eq_indptr"]
        self._eq_ids = columns["eq_ids"]
        self._kw_indptr = columns["kw_indptr"]
        self._kw_ids = columns["kw_ids"]

    @classmethod
    def _assemble(
        cls,
        schema: Schema,
        name: str,
        values: Sequence[AttributeValue],
        tokens: Sequence[str],
        records: Iterable[Record],
        columns: Mapping[str, np.ndarray],
    ) -> "RelationalTable":
        """A fully indexed table from its decoded parts.

        ``values`` and ``tokens`` are the interners' contents in id
        order; ``records`` come in insertion order.
        """
        table = cls(schema, name)
        for token in tokens:
            table._keyword_interner.intern(token)
        for pair in values:
            table._intern(pair)
        table._records = {record.record_id: record for record in records}
        table._use_columns(columns)
        return table

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
        return 0 if vid is None else len(self._equality(vid))

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
    def _equality(self, vid: int) -> np.ndarray:
        self._index()
        start, stop = self._eq_indptr[vid : vid + 2]
        return self._eq_ids[start:stop]

    def _keyword(self, tid: int) -> np.ndarray:
        self._index()
        start, stop = self._kw_indptr[tid : tid + 2]
        return self._kw_ids[start:stop]

    def match_equality(self, attribute: str, value: str) -> List[int]:
        """Record ids matching ``attribute = value``, sorted ascending."""
        vid = self._value_interner.lookup(AttributeValue(attribute, value))
        return [] if vid is None else self._equality(vid).tolist()

    def match_keyword(self, value: str) -> List[int]:
        """Record ids holding ``value`` under *any* attribute, sorted."""
        tid = self.keyword_id(value)
        return [] if tid is None else self._keyword(tid).tolist()

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
            postings.append(self._equality(vid).tolist())
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
            tid = self.keyword_id(query.value)
            return 0 if tid is None else len(self._keyword(tid))
        return self.frequency(query.as_attribute_value())

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
