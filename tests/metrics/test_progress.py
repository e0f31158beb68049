"""ProgressReporter: heartbeat lines and JSONL snapshots off the bus."""

import io

import pytest

from repro.core import Query
from repro.metrics import JsonlMetricsWriter, ProgressReporter, TelemetrySink
from repro.metrics.exporters import validate_metrics_jsonl
from repro.runtime.events import CrawlStopped, EventBus, RecordsHarvested

QUERY = Query.equality("title", "x")


def step_event(step, records=10, rounds=5):
    return RecordsHarvested(
        query=QUERY,
        step=step,
        new_records=2,
        pages_fetched=1,
        records_total=records,
        rounds=rounds,
    )


class TestHeartbeat:
    def test_every_n_steps(self):
        stream = io.StringIO()
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink())
        reporter = bus.attach(
            ProgressReporter(telemetry, every=2, stream=stream)
        )
        for step in range(1, 6):
            bus.emit(step_event(step), policy="bfs")
        text = stream.getvalue()
        assert reporter.beats == 2  # steps 2 and 4
        assert "[bfs] step 2" in text
        assert "step 3" not in text
        assert "records 10" in text

    def test_coverage_with_truth_size(self):
        stream = io.StringIO()
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink(truth_size=40))
        bus.attach(ProgressReporter(telemetry, every=1, stream=stream))
        bus.emit(step_event(1, records=10), policy="bfs")
        assert "(25.0%)" in stream.getvalue()

    def test_telemetry_enrichment(self):
        stream = io.StringIO()
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink())
        bus.attach(ProgressReporter(telemetry, every=1, stream=stream))
        bus.emit(step_event(1), policy="bfs")
        assert "rolling" in stream.getvalue()

    def test_final_line_on_stop(self):
        stream = io.StringIO()
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink())
        bus.attach(ProgressReporter(telemetry, every=0, stream=stream))
        bus.emit(step_event(1), policy="bfs")
        bus.emit(
            CrawlStopped(stopped_by="max-rounds", rounds=7, queries=3, records=12),
            policy="bfs",
        )
        text = stream.getvalue()
        assert "stopped by max-rounds" in text
        assert "step 1" not in text  # every=0 disables periodic lines

    def test_negative_every_rejected(self):
        with pytest.raises(ValueError):
            ProgressReporter(TelemetrySink(), every=-1)


class TestJsonlStreaming:
    def test_snapshot_per_beat_plus_final(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink())
        writer = JsonlMetricsWriter(path)
        bus.attach(
            ProgressReporter(telemetry, every=2, writer=writer)
        )
        for step in range(1, 5):
            bus.emit(step_event(step), policy="bfs")
        bus.emit(CrawlStopped(stopped_by="frontier-exhausted"), policy="bfs")
        writer.close()
        assert validate_metrics_jsonl(path) == 3  # beats at 2, 4 + final

    def test_no_writer_no_files(self, tmp_path):
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink())
        bus.attach(ProgressReporter(telemetry, every=1))
        bus.emit(step_event(1), policy="bfs")  # silent: no stream, no writer
        assert list(tmp_path.iterdir()) == []

    def test_close_flushes_missed_final_snapshot(self, tmp_path):
        """Crawl dies between heartbeats with no CrawlStopped: the JSONL
        stream must still end with a snapshot of the last step."""
        import json

        path = tmp_path / "metrics.jsonl"
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink())
        writer = JsonlMetricsWriter(path)
        reporter = bus.attach(
            ProgressReporter(telemetry, every=2, writer=writer)
        )
        for step in range(1, 6):  # last beat at 4; step 5 unsnapshotted
            bus.emit(step_event(step), policy="bfs")
        reporter.close()
        writer.close()
        assert validate_metrics_jsonl(path) == 3  # beats at 2, 4 + closing
        last = json.loads(path.read_text().splitlines()[-1])
        assert last["step"] == 5

    def test_close_is_idempotent_and_skips_duplicates(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink())
        writer = JsonlMetricsWriter(path)
        reporter = bus.attach(
            ProgressReporter(telemetry, every=2, writer=writer)
        )
        bus.emit(step_event(2), policy="bfs")  # beat covers the last step
        reporter.close()
        reporter.close()
        writer.close()
        assert validate_metrics_jsonl(path) == 1  # no duplicate snapshot

    def test_close_after_stop_is_a_noop(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink())
        writer = JsonlMetricsWriter(path)
        reporter = bus.attach(
            ProgressReporter(telemetry, every=2, writer=writer)
        )
        bus.emit(step_event(1), policy="bfs")
        bus.emit(CrawlStopped(stopped_by="max-rounds"), policy="bfs")
        reporter.close()
        writer.close()
        assert validate_metrics_jsonl(path) == 1  # the final snapshot only


class TestElapsedAcrossResume:
    def fake_clock(self, start=100.0):
        state = {"now": start}

        def clock():
            return state["now"]

        return state, clock

    def test_elapsed_accumulates_into_gauge(self):
        state, clock = self.fake_clock()
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink(clock=clock))
        bus.attach(ProgressReporter(telemetry, every=1))
        state["now"] += 30.0
        bus.emit(step_event(1), policy="bfs")
        assert telemetry.elapsed_gauge.value() == 30.0

    def test_resumed_reporter_continues_from_offset(self):
        """A resumed crawl's registry restores the elapsed gauge; the
        fresh reporter must add to it instead of starting from zero."""
        state, clock = self.fake_clock()
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink(clock=clock))
        stream = io.StringIO()
        bus.attach(ProgressReporter(telemetry, every=1, stream=stream))
        # Simulate the resume sequence: sink attached first, then the
        # checkpointed registry state (elapsed included) loaded onto it.
        telemetry.registry.load_state(
            _registry_state_with_elapsed(telemetry, 120.0)
        )
        state["now"] += 5.0
        bus.emit(step_event(1), policy="bfs")
        assert telemetry.elapsed_gauge.value() == 125.0
        assert "125.0s" in stream.getvalue()

    def test_fresh_crawl_starts_from_zero(self):
        state, clock = self.fake_clock()
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink(clock=clock))
        stream = io.StringIO()
        bus.attach(ProgressReporter(telemetry, every=1, stream=stream))
        state["now"] += 2.0
        bus.emit(step_event(1), policy="bfs")
        assert "2.0s" in stream.getvalue()


def _registry_state_with_elapsed(telemetry, seconds):
    """Checkpoint-shaped registry state carrying a prior elapsed total."""
    telemetry.elapsed_gauge.set(seconds)
    state = telemetry.registry.state_dict()
    telemetry.elapsed_gauge.set(0.0)  # back to the pre-restore value
    return state
