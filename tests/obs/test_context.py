"""CrawlTraceContext: the shared span-id cursor and the wire header."""

from __future__ import annotations

import pytest

from repro.net.client import trace_header
from repro.obs import HEADER_NAME, CrawlTraceContext, parse_trace_header
from repro.runtime.events import QueryIssued, StepStarted


class TestTraceIdValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CrawlTraceContext(trace_id="")

    def test_semicolon_rejected(self):
        with pytest.raises(ValueError):
            CrawlTraceContext(trace_id="a;b")


class TestIdMirroring:
    def test_mirrors_trace_sink_assignment(self):
        ctx = CrawlTraceContext(trace_id="greedy-link-s0")
        assert ctx.fetch_id(1) is None
        ctx.handle(StepStarted(step=1))
        assert ctx.fetch_id(1) is None  # no query issued yet
        assert ctx.current_label() == "s1"
        ctx.handle(QueryIssued(query=None))
        assert ctx.fetch_id(1) == "s1/q0/p1"
        assert ctx.current_label() == "s1/q0"
        ctx.handle(QueryIssued(query=None))
        assert ctx.fetch_id(3) == "s1/q1/p3"

    def test_step_resets_query_counter(self):
        ctx = CrawlTraceContext()
        ctx.handle(StepStarted(step=1))
        ctx.handle(QueryIssued(query=None))
        ctx.handle(QueryIssued(query=None))
        ctx.handle(StepStarted(step=2))
        assert ctx.fetch_id(1) is None
        ctx.handle(QueryIssued(query=None))
        assert ctx.fetch_id(2) == "s2/q0/p2"

    def test_query_before_any_step_is_ignored(self):
        ctx = CrawlTraceContext()
        ctx.handle(QueryIssued(query=None))
        assert ctx.fetch_id(1) is None
        assert ctx.current_label() is None

    def test_wants_phase_events(self):
        # StepStarted is only emitted when a phase-interested sink is
        # attached; the context must declare that interest itself.
        assert CrawlTraceContext.wants_phases is True


class TestWireHeader:
    def test_header_pair(self):
        """The client's encoder and the server's decoder round-trip the
        context's fetch id and the attempt number."""
        ctx = CrawlTraceContext(trace_id="bfs-s3")
        ctx.handle(StepStarted(step=4))
        ctx.handle(QueryIssued(query=None))
        for attempt in (0, 2):
            name, value = trace_header(ctx.trace_id, ctx.fetch_id(2), attempt)
            assert name == HEADER_NAME
            assert parse_trace_header(value) == (
                "bfs-s3", "s4/q0/p2", 4, 0, 2, attempt,
            )
