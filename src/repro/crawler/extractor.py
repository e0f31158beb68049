"""Result extraction — turning wire responses into records and values.

The paper's crawler architecture (Section 2.5) has a Result Extractor
that pulls data records out of result pages and "decomposes" them into
attribute values stored for future query formulation.  Our simulated
sources can return either parsed :class:`ResultPage` objects or the XML
wire format; the extractor handles both and performs the decomposition
step, filtering the harvested values down to those the target interface
can actually query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple, Union

from repro.core.intern import ValueInterner
from repro.core.records import Record
from repro.core.values import AttributeValue
from repro.server.interface import QueryInterface
from repro.server.pagination import ResultPage
from repro.server.service import parse_page


@dataclass(frozen=True)
class Extraction:
    """What one page yielded: its records and their queriable values.

    ``candidate_ids`` mirrors ``candidate_values`` element for element.
    Ids are an in-process acceleration only — never serialized.
    """

    records: tuple[Record, ...]
    candidate_values: tuple[AttributeValue, ...]
    candidate_ids: tuple[int, ...]
    #: Per-record interned ids of the *full* clique (every attribute
    #: value, queriable or not), aligned 1:1 with ``records``.  Lets
    #: ``DB_local.add`` skip re-hashing the clique it was about to
    #: intern itself.
    clique_ids: tuple[Tuple[int, ...], ...]


class ResultExtractor:
    """Decomposes result pages into records and candidate query values.

    Parameters
    ----------
    interface:
        The target's query interface; only values the interface can
        query (directly, or as keywords when a search box exists)
        survive decomposition into the candidate pool.
    interner:
        The :class:`ValueInterner` shared with ``DB_local``.
        Decomposition runs on its dense ids with a per-record memo: a
        result page is mostly records seen before (duplicates are the
        norm late in a crawl), and a memoized record costs one int
        lookup instead of re-filtering and re-hashing its clique.
    """

    def __init__(self, interface: QueryInterface, interner: ValueInterner) -> None:
        self.interface = interface
        self.interner = interner
        #: record_id → (full-clique ids, queriable ids) — stable:
        #: records, interface, and id assignment are all append-only.
        self._record_memo: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}

    def extract(self, page: Union[ResultPage, str]) -> Extraction:
        """Extract one page — an object, an XML document, or HTML.

        Strings are sniffed: XML web-service responses start with the
        ``<QueryResponse`` envelope; anything else is handed to the HTML
        wrapper (:func:`repro.server.html.parse_html_page`).
        """
        if isinstance(page, str):
            stripped = page.lstrip()
            if stripped.startswith("<QueryResponse"):
                page = parse_page(page)
            else:
                from repro.server.html import parse_html_page

                page = parse_html_page(page)
        records = page.records
        values, ids, cliques = self._decompose(records)
        return Extraction(
            records=records,
            candidate_values=tuple(values),
            candidate_ids=tuple(ids),
            clique_ids=cliques,
        )

    def decompose(self, records: Iterable[Record]) -> List[AttributeValue]:
        """The "decompose" step of the query-harvest-decompose loop.

        Returns the distinct queriable attribute values appearing in the
        records, in first-seen order (order matters for BFS/DFS).
        """
        return self._decompose(records)[0]

    def _decompose(
        self, records: Iterable[Record]
    ) -> Tuple[List[AttributeValue], List[int], Tuple[Tuple[int, ...], ...]]:
        """Id-indexed decomposition with the per-record memo.

        The dedupe runs on ids, and ids map 1:1 to values, so the values
        come out distinct and in first-seen order.  Also returns each
        record's full-clique ids so the local database never re-interns
        a record the extractor already saw (each attribute value is
        hashed exactly once, here).
        """
        interner = self.interner
        memo = self._record_memo
        queriable = self.interface.queriable_attributes
        keyword_ok = self.interface.supports_keyword
        seen: set = set()
        seen_add = seen.add
        out_ids: List[int] = []
        cliques: List[Tuple[int, ...]] = []
        for record in records:
            record_id = record.record_id
            entry = memo.get(record_id)
            if entry is None:
                intern = interner.intern
                clique: List[int] = []
                queriable_ids: List[int] = []
                for pair in record.attribute_values():
                    vid = intern(pair)
                    clique.append(vid)
                    if keyword_ok or pair.attribute in queriable:
                        queriable_ids.append(vid)
                entry = (tuple(clique), tuple(queriable_ids))
                memo[record_id] = entry
            cliques.append(entry[0])
            for vid in entry[1]:
                if vid not in seen:
                    seen_add(vid)
                    out_ids.append(vid)
        value_of = interner.value
        return [value_of(vid) for vid in out_ids], out_ids, tuple(cliques)
