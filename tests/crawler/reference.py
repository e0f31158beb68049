"""The pre-interning ``DB_local`` — retained as a differential oracle.

This is the pure-dict implementation :class:`~repro.crawler.localdb.
LocalDatabase` had before the dense-interning rewrite: every statistic
keyed directly by :class:`~repro.core.values.AttributeValue`, postings
as ``set`` of ints, co-occurrence as ``frozenset``-pair counters.  It is
kept verbatim as the oracle of the differential property tests
(``tests/crawler/test_localdb_differential.py``): they feed identical
record streams to both implementations and assert every statistic
matches, so the interned hot path can never silently drift.

Do not "optimize" this module; its value is being the slow, obviously
correct baseline.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set

from repro.core.records import Record
from repro.core.values import AttributeValue

#: Shared empty view returned for unknown keys (no per-call allocation).
_EMPTY_VIEW: frozenset = frozenset()


class ReferenceLocalDatabase:
    """Deduplicated store of harvested records with incremental statistics.

    Same public surface as :class:`~repro.crawler.localdb.LocalDatabase`
    (minus the id-based fast paths), same semantics, dict-keyed
    throughout.
    """

    def __init__(self, track_cooccurrence: bool = False) -> None:
        self._records: Dict[int, Record] = {}
        self._frequency: Dict[AttributeValue, int] = defaultdict(int)
        self._neighbors: Dict[AttributeValue, Set[AttributeValue]] = defaultdict(set)
        self._postings: Dict[AttributeValue, Set[int]] = defaultdict(set)
        self._keyword_postings: Dict[str, Set[int]] = defaultdict(set)
        self.track_cooccurrence = track_cooccurrence
        self._cooccurrence: Dict[frozenset, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add(self, record: Record) -> bool:
        """Store a harvested record; returns False for duplicates."""
        if record.record_id in self._records:
            return False
        self._records[record.record_id] = record
        clique = record.attribute_values()
        for pair in clique:
            self._frequency[pair] += 1
            self._postings[pair].add(record.record_id)
            self._keyword_postings[pair.value].add(record.record_id)
        for i in range(len(clique)):
            for j in range(i + 1, len(clique)):
                u, v = clique[i], clique[j]
                self._neighbors[u].add(v)
                self._neighbors[v].add(u)
                if self.track_cooccurrence:
                    self._cooccurrence[frozenset((u, v))] += 1
        return True

    def add_all(self, records: Iterable[Record]) -> int:
        return sum(1 for record in records if self.add(record))

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._records

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records.values())

    def record_ids(self) -> List[int]:
        return sorted(self._records)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def frequency(self, value: AttributeValue) -> int:
        return self._frequency.get(value, 0)

    def degree(self, value: AttributeValue) -> int:
        neighbors = self._neighbors.get(value)
        return 0 if neighbors is None else len(neighbors)

    def neighbors(self, value: AttributeValue) -> FrozenSet[AttributeValue]:
        neighbors = self._neighbors.get(value)
        return frozenset(neighbors) if neighbors else _EMPTY_VIEW

    def matching_ids(self, value: AttributeValue) -> FrozenSet[int]:
        ids = self._postings.get(value)
        return frozenset(ids) if ids else _EMPTY_VIEW

    def keyword_frequency(self, value: str) -> int:
        ids = self._keyword_postings.get(value)
        return 0 if ids is None else len(ids)

    def conjunctive_matching_ids(self, predicates) -> Set[int]:
        postings = [self._postings.get(pair) for pair in predicates]
        if not postings or any(not p for p in postings):
            return set()
        postings.sort(key=len)
        result = set(postings[0])
        for posting in postings[1:]:
            result &= posting
            if not result:
                break
        return result

    def conjunctive_frequency(self, predicates) -> int:
        return len(self.conjunctive_matching_ids(predicates))

    def cooccurrence(self, u: AttributeValue, v: AttributeValue) -> int:
        if u == v:
            return self._frequency.get(u, 0)
        if self.track_cooccurrence:
            return self._cooccurrence.get(frozenset((u, v)), 0)
        a, b = self._postings.get(u), self._postings.get(v)
        if not a or not b:
            return 0
        if len(a) > len(b):
            a, b = b, a
        return sum(1 for record_id in a if record_id in b)

    def pmi(self, u: AttributeValue, v: AttributeValue) -> float:
        n = len(self._records)
        if n == 0:
            return -math.inf
        joint = self.cooccurrence(u, v)
        if joint == 0:
            return -math.inf
        fu, fv = self._frequency.get(u, 0), self._frequency.get(v, 0)
        return math.log(joint * n / (fu * fv))

    def distinct_values(self) -> List[AttributeValue]:
        return sorted(self._frequency)

    def num_distinct_values(self) -> int:
        return len(self._frequency)

    def values_of_attribute(self, attribute: str) -> List[AttributeValue]:
        key = attribute.strip().lower()
        return sorted(v for v in self._frequency if v.attribute == key)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_table(self, schema, name: str = "harvest"):
        from repro.core.table import RelationalTable

        table = RelationalTable(schema, name=name)
        for record_id in self.record_ids():
            table.insert(self._records[record_id])
        return table
