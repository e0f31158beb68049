"""Dense value interning — integer ids for the crawl hot path.

Every query–harvest–decompose step funnels the same
:class:`~repro.core.values.AttributeValue` objects through dict and set
operations thousands of times, and each operation re-hashes the pair of
strings behind the value.  Inverted-index engines avoid exactly this by
assigning every term a *dense* integer id once and running the index on
arrays; this module brings that discipline to the crawler.

A :class:`ValueInterner` maps attribute values to consecutive ints
(first-seen order) and back.  Once a value is interned, every downstream
structure — frequencies, degrees, adjacency, postings, co-occurrence —
is an array or an int set indexed by the id, so the per-object hashing
cost is paid exactly once per appearance instead of once per use site.

Determinism: id assignment depends only on first-seen order, and no
crawl decision depends on id *values* (heaps tie-break on push ticks,
sorts tie-break on the values themselves), so interning never changes
crawl results.  Interner state still round-trips through checkpoints
(:func:`ValueInterner.state_dict`) so a resumed crawl rebuilds the
exact same id assignment as the original run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.values import AttributeValue

#: Largest value id.  Shared-memory table blocks store each record as a
#: row of uint32 value ids (:mod:`repro.core.shmtable`); 2**32 distinct
#: attribute values is far beyond every dataset in PAPERS.md, and the
#: interner raises loudly if a table or crawl ever crosses it.
MAX_ID = (1 << 32) - 1


class ValueInterner:
    """Bidirectional ``AttributeValue`` ↔ dense ``int`` id map.

    Ids are assigned consecutively from 0 in first-intern order, so they
    index plain lists/arrays directly.  The reverse map is a list — id
    to value is an index, not a hash.
    """

    __slots__ = ("_ids", "_values")

    def __init__(self) -> None:
        self._ids: Dict[AttributeValue, int] = {}
        self._values: List[AttributeValue] = []

    def intern(self, value: AttributeValue) -> int:
        """Return the value's id, assigning the next dense id if new."""
        vid = self._ids.get(value)
        if vid is None:
            vid = len(self._values)
            if vid > MAX_ID:
                raise OverflowError(
                    f"interner exceeded {MAX_ID} distinct values"
                )
            self._ids[value] = vid
            self._values.append(value)
        return vid

    def lookup(self, value: AttributeValue) -> Optional[int]:
        """The value's id, or None if it was never interned."""
        return self._ids.get(value)

    def value(self, vid: int) -> AttributeValue:
        """The value behind an id (ids are dense — this is a list index)."""
        return self._values[vid]

    def values(self) -> List[AttributeValue]:
        """All interned values, id order (a live list — do not mutate)."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: AttributeValue) -> bool:
        return value in self._ids

    # ------------------------------------------------------------------
    # Checkpoint state (see repro.runtime.serialize)
    # ------------------------------------------------------------------
    def state_dict(self) -> List[List[str]]:
        """The full id assignment, id order — JSON-safe."""
        return [[v.attribute, v.value] for v in self._values]

    def load_state(self, payload: Iterable[Sequence[str]]) -> None:
        """Restore an assignment captured by :meth:`state_dict`.

        Replaces any existing assignment; meant for freshly built
        interners during checkpoint restore.
        """
        self._ids = {}
        self._values = []
        for attribute, value in payload:
            self.intern(AttributeValue(attribute, value))


class StringInterner:
    """``str`` ↔ dense id map for keyword tokens.

    Keyword postings index by token, not by ``(attribute, value)``
    pair; tokens get their own id space so the two never collide.
    """

    __slots__ = ("_ids", "_tokens")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._tokens: List[str] = []

    def intern(self, token: str) -> int:
        tid = self._ids.get(token)
        if tid is None:
            tid = len(self._tokens)
            self._ids[token] = tid
            self._tokens.append(token)
        return tid

    def lookup(self, token: str) -> Optional[int]:
        return self._ids.get(token)

    def token(self, tid: int) -> str:
        return self._tokens[tid]

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def state_dict(self) -> List[str]:
        return list(self._tokens)

    def load_state(self, payload: Iterable[str]) -> None:
        self._ids = {}
        self._tokens = []
        for token in payload:
            self.intern(token)


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Intersection of two ascending-sorted int sequences, sorted.

    Classic two-pointer merge — O(len(a) + len(b)), no hashing, no set
    allocation.  The workhorse behind conjunctive posting intersections.
    """
    out: List[int] = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out
