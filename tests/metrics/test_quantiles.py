"""The shared nearest-rank quantile helper (loadtest + heartbeat)."""

from __future__ import annotations

import io

from repro.metrics import nearest_rank, percentiles
from repro.metrics.progress import ProgressReporter
from repro.metrics.telemetry import TelemetrySink
from repro.net.loadtest import _percentile
from repro.runtime.events import EventBus, RecordsHarvested


class TestNearestRank:
    def test_pinned_against_known_sample(self):
        ordered = [float(v) for v in range(1, 101)]  # 1..100
        assert nearest_rank(ordered, 0.50) == 50.0
        assert nearest_rank(ordered, 0.95) == 95.0
        assert nearest_rank(ordered, 0.99) == 99.0
        assert nearest_rank(ordered, 1.00) == 100.0
        assert nearest_rank(ordered, 0.0) == 1.0

    def test_small_samples(self):
        assert nearest_rank([], 0.5) == 0.0
        assert nearest_rank([3.0], 0.5) == 3.0
        assert nearest_rank([1.0, 2.0], 0.5) == 1.0
        assert nearest_rank([1.0, 2.0], 0.95) == 2.0

    def test_returns_observed_values_only(self):
        ordered = [1.0, 10.0, 100.0]
        for q in (0.1, 0.5, 0.9, 0.99):
            assert nearest_rank(ordered, q) in ordered

    def test_monotone_in_q(self):
        ordered = sorted([5.0, 1.0, 9.0, 2.0, 7.0])
        values = [nearest_rank(ordered, q / 100) for q in range(101)]
        assert values == sorted(values)

    def test_loadtest_alias_is_the_shared_helper(self):
        # tests and the loadtest report import _percentile by name; it
        # must stay the one shared estimator.
        assert _percentile is nearest_rank


class TestPercentiles:
    def test_sorts_once_and_reads_many(self):
        samples = [3.0, 1.0, 2.0]
        assert percentiles(samples, (0.5, 1.0)) == {0.5: 2.0, 1.0: 3.0}

    def test_default_quantiles(self):
        result = percentiles(range(1, 101))
        assert result == {0.50: 50, 0.95: 95, 0.99: 99}


class TestHeartbeatStepLatency:
    def test_heartbeat_reports_step_percentiles(self):
        # A fake clock: step k completes at second k, so inter-step
        # deltas are exactly 1.0s and the percentiles are pinned.
        now = {"s": 0.0}
        stream = io.StringIO()
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink(clock=lambda: now["s"]))
        bus.attach(ProgressReporter(telemetry, every=4, stream=stream))
        for step in range(1, 5):
            now["s"] = float(step)
            bus.emit(
                RecordsHarvested(
                    step=step, records_total=step, rounds=step,
                    policy="gl",
                )
            )
        line = stream.getvalue()
        assert "step p50 1000.0ms p95 1000.0ms" in line

    def test_no_percentiles_before_second_step(self):
        stream = io.StringIO()
        bus = EventBus()
        telemetry = bus.attach(TelemetrySink(clock=lambda: 0.0))
        bus.attach(ProgressReporter(telemetry, every=1, stream=stream))
        bus.emit(
            RecordsHarvested(step=1, records_total=1, rounds=1, policy="gl")
        )
        assert "step p50" not in stream.getvalue()
