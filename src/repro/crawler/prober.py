"""The Database Prober — issues one query and pages through its results.

Section 2.5's Database Prober module sits between the Query Selector
and the web source: it submits the chosen query, requests result pages
one communication round at a time, hands each page to the Result
Extractor, and consults the abortion policy (Section 3.4) before paying
for the next page.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.errors import CrawlError, UnsupportedQueryError
from repro.core.query import AnyQuery, ConjunctiveQuery
from repro.core.records import Record
from repro.crawler.abortion import AbortionPolicy, NeverAbort, PageProgress
from repro.crawler.extractor import ResultExtractor
from repro.crawler.localdb import LocalDatabase
from repro.core.values import AttributeValue
from repro.runtime.events import (
    EventBus,
    PageFetched,
    QueryAborted,
    QueryFailed,
    QueryIssued,
    QueryRejected,
)
from repro.server.flaky import (
    ExponentialBackoff,
    PermanentServerFailure,
    submit_with_retries,
)
from repro.server.service import parse_page
from repro.server.webdb import SimulatedWebDatabase


@dataclass
class QueryOutcome:
    """Everything one executed query produced.

    ``new_records`` are the records not previously in ``DB_local`` (in
    arrival order); ``candidate_values`` the queriable values decomposed
    from *all* returned records (new and duplicate alike — a duplicate
    record can still carry a value discovered for the first time when
    interfaces changed, so decomposition never filters by novelty).
    """

    query: AnyQuery
    pages_fetched: int = 0
    records_returned: int = 0
    new_records: List[Record] = field(default_factory=list)
    candidate_values: List[AttributeValue] = field(default_factory=list)
    #: Interned ids mirroring ``candidate_values`` 1:1 once a page was
    #: extracted.  In-process acceleration only: never journaled, and
    #: replayed outcomes carry None (consumers must treat the values as
    #: authoritative).
    candidate_ids: Optional[List[int]] = None
    total_matches: Optional[int] = None
    accessible_matches: int = 0
    aborted: bool = False
    rejected: bool = False
    #: The query died on repeated transient failures (retries exhausted);
    #: pages fetched before the failure were still harvested.
    failed: bool = False

    @property
    def harvest_rate(self) -> float:
        """Realized harvest rate: new records per page actually paid for."""
        if self.pages_fetched == 0:
            return 0.0
        return len(self.new_records) / self.pages_fetched


class DatabaseProber:
    """Executes queries against one simulated source.

    Parameters
    ----------
    server:
        The target web database.
    extractor:
        Parses pages and decomposes records into candidate values; must
        share ``local_db``'s interner, since its clique ids go straight
        into ``local_db.add``.
    local_db:
        ``DB_local``; records are inserted as pages arrive so the
        abortion policy sees up-to-date duplicate counts.
    abortion:
        Page-fetch abortion policy; defaults to fetching everything.
    use_xml:
        Exercise the XML wire format (render + parse per page) instead
        of passing result objects directly; identical semantics, used by
        integration tests and the Amazon-style experiments.
    bus:
        Event bus to announce wire activity on (defaults to a silent
        bus; see :mod:`repro.runtime.events`).
    backoff:
        Retry backoff schedule for transient failures (only consulted
        when ``max_retries > 0``).
    retry_rng:
        RNG feeding the backoff jitter; owned (and checkpointed) by the
        engine so retry streams survive resume.
    """

    def __init__(
        self,
        server: SimulatedWebDatabase,
        extractor: ResultExtractor,
        local_db: LocalDatabase,
        abortion: Optional[AbortionPolicy] = None,
        use_xml: bool = False,
        max_retries: int = 0,
        bus: Optional[EventBus] = None,
        backoff: Optional[ExponentialBackoff] = None,
        retry_rng: Optional[random.Random] = None,
        policy: Optional[str] = None,
    ) -> None:
        if extractor.interner is not local_db.interner:
            raise CrawlError("the extractor must share the local database's interner")
        self.server = server
        self.extractor = extractor
        self.local_db = local_db
        self.abortion = abortion or NeverAbort()
        self.use_xml = use_xml
        self.max_retries = max_retries
        self.bus = bus or EventBus()
        self.backoff = backoff
        self.retry_rng = retry_rng
        self.policy = policy
        # Per-execute() extraction timings, read by the engine to emit
        # the "extract" trace phase.  Only accumulated while a tracing
        # sink is attached (bus.has_tracers).
        self.last_extract_wall = 0.0
        self.last_extract_cpu = 0.0

    def execute(self, query: AnyQuery) -> QueryOutcome:
        """Run ``query`` to completion (or abortion) and return the outcome.

        A query the interface rejects costs nothing and is marked
        ``rejected`` — the crawler simply skips the candidate, the way a
        form that lacks the field cannot be submitted at all.
        """
        outcome = QueryOutcome(query=query)
        known_matches = self._known_matches(query)
        progress = PageProgress()
        page_number = 1
        announce = self.bus.has_sinks
        tracing = self.bus.has_tracers
        if tracing:
            self.last_extract_wall = 0.0
            self.last_extract_cpu = 0.0
        if announce:
            self.bus.emit(QueryIssued(query=query), policy=self.policy)
        while True:
            try:
                meta = self._fetch(query, page_number)
            except UnsupportedQueryError:
                outcome.rejected = True
                if announce:
                    self.bus.emit(QueryRejected(query=query), policy=self.policy)
                return outcome
            except PermanentServerFailure:
                # Retries exhausted mid-query: keep what was harvested,
                # flag the query, and let the crawl move on.
                outcome.failed = True
                if announce:
                    self.bus.emit(
                        QueryFailed(
                            query=query, pages_fetched=outcome.pages_fetched
                        ),
                        policy=self.policy,
                    )
                return outcome
            if tracing:
                wall0 = time.perf_counter()
                cpu0 = time.process_time()
                page = self.extractor.extract(meta)
                self.last_extract_wall += time.perf_counter() - wall0
                self.last_extract_cpu += time.process_time() - cpu0
            else:
                page = self.extractor.extract(meta)
            outcome.pages_fetched += 1
            outcome.records_returned += len(page.records)
            outcome.total_matches = meta.total_matches
            outcome.accessible_matches = meta.accessible_matches
            # Hand over the ids the extractor already computed so add()
            # skips re-hashing the clique.
            add = self.local_db.add
            new_here = [
                r for r, ids in zip(page.records, page.clique_ids) if add(r, ids)
            ]
            outcome.new_records.extend(new_here)
            outcome.candidate_values.extend(page.candidate_values)
            if outcome.candidate_ids is None:
                outcome.candidate_ids = list(page.candidate_ids)
            else:
                outcome.candidate_ids.extend(page.candidate_ids)
            progress.update(len(page.records), len(new_here))
            if announce:
                self.bus.emit(
                    PageFetched(
                        query=query,
                        page_number=page_number,
                        records=len(page.records),
                        new_records=len(new_here),
                    ),
                    policy=self.policy,
                )
            if not meta.has_next:
                break
            if self.abortion.should_abort(meta, progress, known_matches):
                outcome.aborted = True
                if announce:
                    self.bus.emit(
                        QueryAborted(
                            query=query,
                            pages_fetched=outcome.pages_fetched,
                            pages_saved=max(
                                meta.num_pages - meta.page_number, 0
                            ),
                        ),
                        policy=self.policy,
                    )
                break
            page_number += 1
        return outcome

    def _fetch(self, query: AnyQuery, page_number: int):
        """One page request, with transient-failure retries when enabled."""
        if self.max_retries > 0:
            emit = None
            if self.bus.has_sinks:
                emit = lambda event: self.bus.emit(event, policy=self.policy)
            meta = submit_with_retries(
                self.server,
                query,
                page_number,
                max_retries=self.max_retries,
                rng=self.retry_rng,
                backoff=self.backoff,
                emit=emit,
            )
            if self.use_xml:
                # Exercise the wire format on the successful response.
                from repro.server.service import render_page

                return parse_page(render_page(meta))
            return meta
        if self.use_xml:
            return parse_page(self.server.submit_xml(query, page_number))
        return self.server.submit(query, page_number)

    def _known_matches(self, query: AnyQuery) -> int:
        """``num(q, DB_local)`` before the query runs."""
        if isinstance(query, ConjunctiveQuery):
            return self.local_db.conjunctive_frequency(query.predicates)
        if query.is_keyword:
            return self.local_db.keyword_frequency(query.value)
        return self.local_db.frequency(query.as_attribute_value())
