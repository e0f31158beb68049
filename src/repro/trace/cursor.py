"""SpanCursor — the one place crawl span ids are assigned.

A crawl step's wire spans are named from the step number and the
in-step query order alone::

    s<N>                  the step root            (StepStarted)
    s<N>/q<i>             its i-th submitted query (QueryIssued)
    s<N>/q<i>/p<page>     one page fetch of that query

Both consumers of these ids hold a cursor:
:class:`~repro.trace.sink.TraceSink` names its ``step``/``submit``/
``fetch`` spans from it, and :class:`~repro.obs.context.CrawlTraceContext`
*is* a cursor plus a trace id, so the remote client can name a fetch's
span before the request goes on the wire.  One class, so the client's
propagated parent ids and the trace file cannot drift apart.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.events import CrawlEvent, EventSink, QueryIssued, StepStarted


class SpanCursor(EventSink):
    """Track the active step and query span ids off the event bus.

    ``QueryIssued`` is emitted by the prober *before* the source's
    ``submit()`` runs, so a fetch scheduled while the query is on the
    wire always sees that query's id.  A query outside any step (no
    ``StepStarted`` seen) gets no id.
    """

    #: ``StepStarted`` is only emitted while a phase-interested sink is
    #: attached; a cursor attached alone must declare that interest.
    wants_phases = True

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Forget the active step (no step open, no query on the wire)."""
        self.step: Optional[int] = None
        self.sid = ""
        self.qid: Optional[str] = None
        self._q = 0

    def handle(self, event: CrawlEvent) -> None:
        kind = type(event)
        if kind is QueryIssued:
            self.open_query()
        elif kind is StepStarted:
            self.open_step(event.step)

    def open_step(self, step: int) -> None:
        self.step = step
        self.sid = f"s{step}"
        self.qid = None
        self._q = 0

    def open_query(self) -> Optional[str]:
        """Assign the next query span id of the open step (or ``None``)."""
        if self.step is None:
            return None
        qid = f"{self.sid}/q{self._q}"
        self._q += 1
        self.qid = qid
        return qid

    def fetch_id(self, page_number: int) -> Optional[str]:
        """The span id of the active query's ``page_number`` fetch.

        ``None`` outside an active query (descriptor/truth requests
        carry no trace context).
        """
        qid = self.qid
        if qid is None:
            return None
        return f"{qid}/p{page_number}"
