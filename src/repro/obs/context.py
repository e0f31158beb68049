"""CrawlTraceContext — the client half of cross-lane trace propagation.

The context is a :class:`~repro.trace.cursor.SpanCursor` — the same
span-id allocator :class:`~repro.trace.sink.TraceSink` names its spans
with — plus the crawl's trace id.  Attached to the crawl's event bus,
it can name the span id a page fetch *will* get
(``s<N>/q<i>/p<page>``) before the request goes on the wire.
:class:`~repro.net.client.RemoteWebDatabase` reads that id when it
schedules a fetch and sends it in the ``X-Repro-Trace`` header; the
server opens child spans under it, and ``repro trace stitch`` later
joins the two files on those ids.

Determinism is inherited: the ids are functions of the crawl alone
(never of wall clocks or scheduling), so the propagated context — and
therefore the server's span file — is identical run over run and at
any server worker count.

The context also doubles as the :mod:`repro.obs.profiler`'s label
source: :meth:`current_label` names the active span so profile samples
attach to the query being worked on.
"""

from __future__ import annotations

from typing import Optional

from repro.trace.cursor import SpanCursor

#: The request header carrying ``{trace_id};{parent span};{attempt}``.
HEADER_NAME = "X-Repro-Trace"


class CrawlTraceContext(SpanCursor):
    """A span cursor that also carries the crawl's trace id.

    Parameters
    ----------
    trace_id:
        Deterministic identifier for this crawl's trace, carried in
        every propagated header.  Derive it from crawl inputs (the CLI
        uses ``{policy}-s{seed}``) — never from clocks or PIDs, or the
        server-side trace stops being byte-comparable across runs.
    """

    def __init__(self, trace_id: str = "crawl") -> None:
        if ";" in trace_id or not trace_id:
            raise ValueError(
                f"trace_id must be non-empty and ';'-free, got {trace_id!r}"
            )
        super().__init__()
        self.trace_id = trace_id

    def current_label(self) -> Optional[str]:
        """Active span label for profiler samples (query, else step)."""
        if self.qid is not None:
            return self.qid
        return self.sid or None
