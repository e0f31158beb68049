"""Query-selector protocol — the pluggable heart of the crawler.

The engine drives every policy through the same four-call protocol:

1. ``bind(context)`` — once, before the crawl starts;
2. ``add_candidate(value)`` — for each attribute value entering
   ``L_to-query`` (seeds and decomposed result values alike);
3. ``next_query()`` — pick the next attribute value to visit, or None
   when the policy has nothing left to ask;
4. ``observe_outcome(outcome)`` — after the query ran, with everything
   it returned (policies use this to update statistics tables).

Selectors return *attribute values*; the engine formulates the actual
query (structured or keyword) via the interface, enforces no-repeat
semantics, and skips values the interface cannot express.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.core.values import AttributeValue
from repro.crawler.context import CrawlerContext
from repro.crawler.prober import QueryOutcome


class QuerySelector(ABC):
    """Base class for all query-selection policies.

    Every policy binds to the same interned ``DB_local``, which builds
    postings and co-occurrence rows only when a policy first reads them.
    """

    #: Trace hook installed by the engine when a tracing sink is
    #: attached (see :meth:`set_trace_emitter`).  ``None`` in untraced
    #: crawls and during journal replay, so selector-internal phases
    #: (scoring, frontier refresh) cost nothing unless observed.
    _trace_emit = None

    def __init__(self) -> None:
        self.context: Optional[CrawlerContext] = None

    @property
    def name(self) -> str:
        """Short policy label used in experiment reports."""
        return type(self).__name__.replace("Selector", "").lower()

    def bind(self, context: CrawlerContext) -> None:
        """Attach the crawl's shared state. Called once, before any candidate."""
        self.context = context

    @abstractmethod
    def add_candidate(self, value: AttributeValue) -> None:
        """Offer a newly discovered attribute value for future querying."""

    def add_candidate_id(self, vid: int, value: AttributeValue) -> None:
        """Id-accompanied :meth:`add_candidate` (``vid`` interned in the
        bound local database).  Selectors with id-native frontiers
        override this to skip re-hashing the value; the default ignores
        the id."""
        self.add_candidate(value)

    @abstractmethod
    def next_query(self) -> Optional[AttributeValue]:
        """Select the next attribute value to visit, or None when exhausted."""

    def observe_outcome(self, outcome: QueryOutcome) -> None:
        """Hook invoked after each executed query (default: no-op)."""

    def set_trace_emitter(self, emit) -> None:
        """Install (or clear, with ``None``) the phase-trace callback.

        ``emit(phase, seconds, cpu_seconds, detail)`` reports one timed
        selector-internal phase — e.g. ``"score"`` when a statistics
        table is recomputed, ``"frontier-refresh"`` when priorities are
        rebuilt — to the tracing layer.  The engine installs it lazily
        on the first traced live step; replayed steps never see it, so
        traces only contain phases that actually executed.
        """
        self._trace_emit = emit

    # ------------------------------------------------------------------
    # Durable-runtime protocol (see repro.runtime)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot of the policy's mutable selection state.

        Together with :meth:`load_state` this is what makes a crawl
        checkpointable: the engine serializes the selector's state into
        every :class:`~repro.runtime.checkpoint.CrawlCheckpoint`.  The
        contract: ``load_state(state_dict())`` on a freshly constructed
        (same constructor arguments) and freshly bound selector must
        reproduce identical future selections given identical inputs.

        Constructor-supplied configuration (batch sizes, domain tables,
        thresholds) is *not* part of the state — resume reconstructs
        the selector with the same arguments first, then loads state.
        The base implementation covers stateless selectors; every
        stateful selector must override both methods.
        """
        return {}

    def load_state(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`state_dict`.

        Must be called on a bound selector (``bind`` happens in the
        engine constructor) whose crawl has not started.
        """

    def pending_count(self) -> int:
        """Number of candidates currently awaiting issuance.

        Diagnostic used by the runtime's journal-replay verification
        ("frontier size"); stateless or exotic selectors may return 0.
        """
        return 0

    def frontier_stats(self) -> Optional[dict]:
        """Incremental-frontier counters for telemetry, or None.

        Selectors running an
        :class:`~repro.crawler.frontier.InternedPriorityFrontier` report
        its ``stats`` dict (``dirty_total``, ``rescored_total``,
        ``flushes``) plus ``pending``;
        :meth:`repro.metrics.telemetry.TelemetrySink.sample_selector`
        folds them into the registry.
        """
        return None

    def _require_context(self) -> CrawlerContext:
        if self.context is None:
            raise RuntimeError(f"{type(self).__name__} used before bind()")
        return self.context
