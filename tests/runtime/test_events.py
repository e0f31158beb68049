"""Unit tests for the event bus and its sinks."""

from __future__ import annotations

import json

import pytest

from repro.core.query import Query
from repro.runtime.events import (
    CheckpointWritten,
    CrashAfterSteps,
    CrawlEvent,
    CrawlStopped,
    EventBus,
    EventSink,
    JsonlEventSink,
    PageFetched,
    QueryAborted,
    QueryFailed,
    QueryIssued,
    QueryRejected,
    RecordsHarvested,
    RetryAttempted,
    RingBufferSink,
    SimulatedCrash,
)

Q = Query("honda", attribute="make")


class TestEventPayloads:
    def test_kinds_are_distinct_and_stable(self):
        kinds = {
            QueryIssued.kind,
            PageFetched.kind,
            QueryRejected.kind,
            QueryAborted.kind,
            QueryFailed.kind,
            RetryAttempted.kind,
            RecordsHarvested.kind,
            CheckpointWritten.kind,
            CrawlStopped.kind,
        }
        assert len(kinds) == 9

    def test_payload_carries_kind_and_stamps(self):
        event = RecordsHarvested(
            query=Q, step=3, new_records=7, pages_fetched=2,
            records_total=40, rounds=11, policy="gl", source="ebay",
        )
        payload = event.payload()
        assert payload["event"] == "records-harvested"
        assert payload["policy"] == "gl"
        assert payload["source"] == "ebay"
        assert payload["step"] == 3 and payload["new"] == 7

    def test_unstamped_payload_omits_policy(self):
        assert "policy" not in QueryIssued(query=Q).payload()


class TestEventBus:
    def test_no_sinks_is_a_noop(self):
        bus = EventBus()
        assert not bus.has_sinks
        bus.emit(QueryIssued(query=Q))  # must not raise

    def test_emit_stamps_policy_without_overwriting(self):
        bus = EventBus()
        ring = bus.attach(RingBufferSink())
        bus.emit(QueryIssued(query=Q), policy="gl")
        bus.emit(QueryIssued(query=Q, policy="explicit"), policy="gl")
        assert [e.policy for e in ring.events] == ["gl", "explicit"]

    def test_detach(self):
        bus = EventBus()
        ring = bus.attach(RingBufferSink())
        bus.detach(ring)
        assert not bus.has_sinks

    def test_sink_exceptions_propagate(self):
        class Boom(EventSink):
            def handle(self, event: CrawlEvent) -> None:
                raise RuntimeError("boom")

        bus = EventBus()
        bus.attach(Boom())
        with pytest.raises(RuntimeError):
            bus.emit(QueryIssued(query=Q))


class TestRingBufferSink:
    def test_capacity_evicts_oldest(self):
        ring = RingBufferSink(capacity=3)
        for step in range(5):
            ring.handle(RecordsHarvested(query=Q, step=step))
        assert len(ring) == 3
        assert [e.step for e in ring.events] == [2, 3, 4]

    def test_of_kind_filters(self):
        ring = RingBufferSink()
        ring.handle(QueryIssued(query=Q))
        ring.handle(RecordsHarvested(query=Q, step=1))
        assert len(ring.of_kind("query-issued")) == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_dropped_counts_evictions(self):
        ring = RingBufferSink(capacity=3)
        for step in range(3):
            ring.handle(RecordsHarvested(query=Q, step=step))
        assert ring.dropped == 0
        for step in range(3, 8):
            ring.handle(RecordsHarvested(query=Q, step=step))
        assert ring.dropped == 5
        assert len(ring) == 3  # still full, history truncated


class TestJsonlEventSink:
    def test_writes_one_json_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlEventSink(path)
        sink.handle(QueryIssued(query=Q, policy="gl"))
        sink.handle(CrawlStopped(stopped_by="budget", rounds=9))
        sink.close()
        lines = path.read_text().splitlines()
        assert sink.events_written == 2
        payloads = [json.loads(line) for line in lines]
        assert payloads[0]["event"] == "query-issued"
        assert payloads[1]["stopped_by"] == "budget"


class TestCrashAfterSteps:
    def test_raises_on_nth_harvest(self):
        crash = CrashAfterSteps(2)
        crash.handle(RecordsHarvested(query=Q, step=1))
        crash.handle(QueryIssued(query=Q))  # non-harvest events don't count
        with pytest.raises(SimulatedCrash):
            crash.handle(RecordsHarvested(query=Q, step=2))

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            CrashAfterSteps(0)
