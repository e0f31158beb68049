"""Heartbeat progress reporting for long crawls.

A production crawl runs for millions of rounds; the operator's question
is always the same — *is it still converging, and at what cost?*
:class:`ProgressReporter` answers it with one line every ``every``
completed steps, straight off the event bus::

    [greedy-link] step 400 | records 3,120 (62.4%) | rounds 5,017 | \
new/page 0.62 (rolling 0.31) | aborted 12 | retries 3 | 14.2s

Every figure on the line is read from the
:class:`~repro.metrics.telemetry.TelemetrySink` the reporter is built
on: coverage (when the sink knows the true source size), the rolling
harvest rate, abort/retry counters, step-latency percentiles and the
cumulative elapsed time.  The reporter keeps no tallies of its own.

When a :class:`~repro.metrics.exporters.JsonlMetricsWriter` is
attached, every heartbeat also appends a registry snapshot line, which
is what turns the JSONL export into a *live* stream rather than a
post-mortem dump.
"""

from __future__ import annotations

from typing import Optional, TextIO

from repro.metrics.exporters import JsonlMetricsWriter
from repro.metrics.quantiles import percentiles
from repro.metrics.telemetry import TelemetrySink
from repro.runtime.events import CrawlEvent, CrawlStopped, EventSink, RecordsHarvested


class ProgressReporter(EventSink):
    """Emit a heartbeat line every ``every`` completed crawl steps.

    Attach it to the bus *after* ``telemetry``, so each line reads the
    registry as of the step it reports.

    Parameters
    ----------
    telemetry:
        The telemetry sink the heartbeat reads (truth size, clock, step
        intervals, registry) and snapshots to ``writer``.
    every:
        Steps between heartbeats (``0`` disables periodic lines; the
        final ``CrawlStopped`` line is still written).
    stream:
        Where heartbeat lines go (``None`` silences text output —
        useful when only the JSONL stream is wanted).
    writer:
        Optional JSONL writer; a registry snapshot is appended per
        heartbeat and at crawl stop.
    """

    def __init__(
        self,
        telemetry: TelemetrySink,
        every: int = 100,
        stream: Optional[TextIO] = None,
        writer: Optional[JsonlMetricsWriter] = None,
    ) -> None:
        if every < 0:
            raise ValueError(f"every must be >= 0, got {every}")
        self.telemetry = telemetry
        self.every = every
        self.stream = stream
        self.writer = writer
        self._clock = telemetry.clock
        self._started_at = self._clock()
        #: Wall seconds accumulated by prior runs of a resumed crawl.
        #: Seeded lazily from the registry's ``crawl_elapsed_seconds``
        #: gauge (restored from the checkpoint *after* this sink is
        #: attached), so a resumed crawl reports cumulative elapsed
        #: time instead of restarting from zero.
        self._elapsed_offset: Optional[float] = None
        self.beats = 0
        self._last_step: Optional[int] = None
        self._last_policy: Optional[str] = None
        self._last_snapshot_step: Optional[int] = None
        self._final_written = False

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Cumulative crawl wall seconds, including pre-resume runs.

        Also published as ``crawl_elapsed_seconds``.
        """
        gauge = self.telemetry.elapsed_gauge
        if self._elapsed_offset is None:
            self._elapsed_offset = gauge.value()
        elapsed = self._elapsed_offset + self._clock() - self._started_at
        gauge.set(round(elapsed, 3))
        return elapsed

    def handle(self, event: CrawlEvent) -> None:
        if isinstance(event, RecordsHarvested):
            self._last_step = event.step
            self._last_policy = event.policy
            # Publish per step (not per beat): a suspension checkpoint
            # snapshots the registry before the final CrawlStopped, and
            # must carry current elapsed time.
            self.elapsed()
            if self.every and event.step % self.every == 0:
                self._beat(event)
        elif isinstance(event, CrawlStopped):
            self._final(event)

    def close(self) -> None:
        """Flush the closing snapshot if the crawl ended without one.

        A crawl that stops between heartbeats (last step not a multiple
        of ``every``) and never delivers ``CrawlStopped`` to this sink —
        crash, plain ``engine.step()`` driving, early detach — would
        otherwise leave the JSONL stream ending at the last heartbeat.
        Safe to call twice; a no-op when the final snapshot was written.
        """
        if self._final_written:
            return
        self._final_written = True
        self.elapsed()  # publish cumulative elapsed for the checkpoint
        if (
            self.writer is not None
            and self._last_step is not None
            and self._last_step != self._last_snapshot_step
        ):
            self.writer.write_snapshot(
                self.telemetry.registry,
                step=self._last_step,
                label=self._last_policy or "?",
            )

    def _beat(self, event: RecordsHarvested) -> None:
        self.beats += 1
        policy = event.policy or "?"
        if self.stream is not None:
            parts = [
                f"[{policy}] step {event.step:,}",
                self._records_text(event.records_total),
                f"rounds {event.rounds:,}",
            ]
            parts.extend(self._telemetry_text(policy))
            intervals = self.telemetry.step_intervals
            if intervals:
                pcts = percentiles(intervals, (0.50, 0.95))
                parts.append(
                    f"step p50 {pcts[0.50] * 1e3:.1f}ms "
                    f"p95 {pcts[0.95] * 1e3:.1f}ms"
                )
            parts.append(f"{self.elapsed():.1f}s")
            self.stream.write(" | ".join(parts) + "\n")
        if self.writer is not None:
            self._last_snapshot_step = event.step
            self.writer.write_snapshot(
                self.telemetry.registry, step=event.step, label=policy
            )

    def _final(self, event: CrawlStopped) -> None:
        self._final_written = True
        policy = event.policy or "?"
        elapsed = self.elapsed()
        if self.stream is not None:
            self.stream.write(
                f"[{policy}] stopped by {event.stopped_by}: "
                f"{self._records_text(event.records)}, "
                f"{event.rounds:,} rounds, {event.queries:,} queries, "
                f"{elapsed:.1f}s\n"
            )
        if self.writer is not None:
            self.writer.write_snapshot(
                self.telemetry.registry, step=None, label=policy
            )

    # ------------------------------------------------------------------
    def _records_text(self, records: int) -> str:
        truth_size = self.telemetry.truth_size
        if truth_size:
            return f"records {records:,} ({records / truth_size:.1%})"
        return f"records {records:,}"

    def _telemetry_text(self, policy: str) -> list:
        sink = self.telemetry
        parts = [
            f"new/page {sink.harvest_rate.value(policy=policy):.2f} "
            f"(rolling {sink.harvest_rate_rolling.value(policy=policy):.2f})"
        ]
        aborted = sink.queries_aborted.value(policy=policy)
        if aborted:
            parts.append(f"aborted {aborted:.0f}")
        retries = sink.retries.value(policy=policy)
        if retries:
            parts.append(f"retries {retries:.0f}")
        return parts
