"""TraceSink — assembles causal span trees from the crawl event stream.

The sink subscribes to the engine's :class:`~repro.runtime.events.EventBus`
(``wants_phases = True`` switches the engine/prober/selector
instrumentation on) and folds the per-step event sequence into one span
tree, flushed to span JSONL as each step completes:

- :class:`~repro.runtime.events.StepStarted` opens the ``step`` root;
- engine/selector :class:`~repro.runtime.events.PhaseCompleted` events
  become ``select``/``extract``/``decompose`` children (selector
  phases — ``score``, ``frontier-refresh`` — nest under the engine
  phase that triggered them);
- wire events (:class:`~repro.runtime.events.QueryIssued`,
  ``PageFetched``, ``RetryAttempted``, ``QueryAborted``,
  ``QueryFailed``, ``QueryRejected``) become the ``submit`` subtree;
- :class:`~repro.runtime.events.RecordsHarvested` closes the step,
  stamps the paper's cost-model attributes on the root (query, pages,
  rounds paid, new vs duplicate records, harvest rate), and writes the
  whole tree.

Determinism: span ids and ``seq`` numbers derive from the step number
and the in-step event order — both functions of the crawl alone — so a
trace is byte-identical across sequential/parallel execution and
across a crash/resume split.  The ``step``/``submit``/``fetch`` ids
come from a :class:`~repro.trace.cursor.SpanCursor`, the allocator the
remote client's trace context is built on.  Wall/CPU durations are collected (when
``include_timings``) into the non-canonical ``"t"`` field only.

Durability: every completed step is flushed to disk before the runtime
journals it can fall behind, so the trace's durable horizon is always
at least the journal's.  On resume, :meth:`TraceSink.align` truncates
the file back to the recovered step horizon and continues the ``seq``
stream from the last surviving span — the resumed file is
byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.runtime.events import (
    CheckpointWritten,
    CrawlEvent,
    CrawlStopped,
    EventSink,
    PageFetched,
    PhaseCompleted,
    QueryAborted,
    QueryFailed,
    QueryIssued,
    QueryRejected,
    RecordsHarvested,
    RetryAttempted,
    StepStarted,
)
from repro.trace.cursor import SpanCursor
from repro.trace.spans import TRACE_SCHEMA, TraceError

PathLike = Union[str, Path]

#: Short id segments for selector-internal phases.
_PHASE_TAGS = {"score": "score", "frontier-refresh": "fr"}


def _dump(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _json_str(value: str) -> str:
    """JSON string literal, byte-identical to ``json.dumps(value)``.

    Plain printable-ASCII strings (every id, phase name, and almost
    every query value) embed directly; anything needing escapes falls
    back to the real encoder.
    """
    if (
        value.isascii()
        and value.isprintable()
        and '"' not in value
        and "\\" not in value
    ):
        return f'"{value}"'
    return json.dumps(value)


def _json_val(value) -> str:
    """JSON literal for an attr value (ints/floats/strings/bools)."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        return _json_str(value)
    if kind is float:
        return repr(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return json.dumps(value, separators=(",", ":"))


def _json_attrs(detail: dict) -> str:
    """JSON object literal for a phase's detail dict (skips ``matches``,
    which the sink lifts onto the step root instead).

    Every detail the engine and the selectors emit today is one or two
    int-valued keys, so those shapes render with a single f-string; the
    generic loop only runs for future emitters.
    """
    size = len(detail)
    if size == 1:
        ((key, value),) = detail.items()
        if type(value) is int:
            return "{}" if key == "matches" else f'{{"{key}":{value}}}'
    elif size == 2:
        (k1, v1), (k2, v2) = detail.items()
        if type(v1) is int and type(v2) is int:
            if k1 == "matches":
                return f'{{"{k2}":{v2}}}'
            if k2 == "matches":
                return f'{{"{k1}":{v1}}}'
            return f'{{"{k1}":{v1},"{k2}":{v2}}}'
    elif not detail:
        return "{}"
    parts = [
        f'"{key}":{_json_val(value)}'
        for key, value in detail.items()
        if key != "matches"
    ]
    return "{" + ",".join(parts) + "}"


class TraceSink(EventSink):
    """Write one crawl's span tree stream to ``path`` (or collect it).

    Parameters
    ----------
    path:
        Span-JSONL output file.  ``None`` collects finished span lines
        in :attr:`collected` instead — the mode the parallel grid's
        workers use to ship spans back for fixed-order merging.
    include_timings:
        Attach wall/CPU durations as the non-canonical ``"t"`` field.
        Off for canonical (byte-comparable) traces.
    fresh:
        Truncate/create ``path`` immediately (default).  Pass ``False``
        when resuming: the file is left untouched until
        :meth:`align` rewrites it to the recovered horizon.
    """

    wants_phases = True

    def __init__(
        self,
        path: Optional[PathLike] = None,
        include_timings: bool = True,
        fresh: bool = True,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.include_timings = include_timings
        self.collected: List[str] = []
        self.spans_written = 0
        #: Flush after every completed step.  Off by default (plain
        #: crawls only need the close()-time flush); the durable
        #: runtime switches it on so the trace's durable horizon never
        #: falls behind the journal's.
        self.step_flush = False
        self._handle = None
        self._seq = 0
        self._last_rounds = 0
        self._policy_key: Optional[str] = None
        self._policy_frag = ""
        #: Step/submit/fetch span ids (cleared with each finished step).
        self._ids = SpanCursor()
        self._reset_step()
        if self.path is not None and fresh:
            self._open(mode="w")

    # ------------------------------------------------------------------
    # File plumbing
    # ------------------------------------------------------------------
    def _open(self, mode: str) -> None:
        assert self.path is not None
        self._handle = open(self.path, mode, encoding="utf-8")
        if mode == "w":
            self._handle.write(_dump({"schema": TRACE_SCHEMA}) + "\n")
            self._handle.flush()

    def align(
        self,
        step: int,
        rounds: int,
        state: Optional[dict] = None,
    ) -> int:
        """Rewind the trace file to the resumed crawl's position.

        ``step`` is the engine's completed-step count after checkpoint
        restore + journal replay; ``rounds`` the server's cumulative
        round counter at that point.  Spans past ``step`` (written by
        the crashed run but lost from the journal) are dropped, and the
        ``seq`` stream continues from the last surviving span, so the
        resumed file ends up byte-identical to an uninterrupted run's.

        ``state`` is the checkpoint-embedded
        :meth:`state_dict` snapshot; it seeds ``seq`` when the trace
        file itself is missing (e.g. the crashed run wrote its trace
        elsewhere).  Returns the number of spans kept.
        """
        self._last_rounds = rounds
        if self.path is None or not self.path.exists():
            self._seq = int((state or {}).get("next_seq", 0))
            if self.path is not None:
                self._open(mode="w")
            return 0
        raw = self.path.read_text(encoding="utf-8").splitlines()
        if not raw:
            raise TraceError(f"{self.path}: empty trace file")
        header = json.loads(raw[0])
        if header.get("schema") != TRACE_SCHEMA:
            raise TraceError(
                f"{self.path}: not a {TRACE_SCHEMA} trace "
                f"(schema={header.get('schema')!r})"
            )
        kept: List[str] = []
        last_seq = -1
        for line in raw[1:]:
            if not line.strip():
                continue
            span = json.loads(line)
            if "task" in span:
                raise TraceError(
                    f"{self.path}: cannot resume into a merged grid trace"
                )
            if span["step"] > step:
                break  # spans are written in step order; the rest is newer
            kept.append(line)
            last_seq = span["seq"]
        self._seq = last_seq + 1
        # Rewrite the surviving prefix verbatim (byte preservation).
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(raw[0] + "\n")
            for line in kept:
                handle.write(line + "\n")
        self._open(mode="a")
        self.spans_written = len(kept)
        return len(kept)

    def state_dict(self) -> dict:
        """Checkpoint-embeddable continuation state (open spans are
        never checkpointed: a snapshot always happens between steps)."""
        return {"next_seq": self._seq, "last_rounds": self._last_rounds}

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()

    # ------------------------------------------------------------------
    # Event assembly
    #
    # Spans are assembled as complete JSON lines with inline f-strings
    # rather than dicts fed to ``json.dumps`` — the encoder was ~half
    # the sink's cost and ``benchmarks/test_trace_overhead`` holds the
    # whole sink under 5% of crawl CPU.  ``seq`` is assigned at emit
    # time (buffer order is write order; the root reserves the step's
    # first seq at ``StepStarted`` and is rendered at finalization,
    # once the harvest event has delivered the cost-model attrs).  The
    # canonical fields are byte-identical to
    # ``json.dumps(span, separators=(",", ":"))``.
    # ------------------------------------------------------------------
    def _reset_step(self) -> None:
        self._ids.clear()
        self._policy: Optional[str] = None
        self._buffer: List[str] = []
        self._append = self._buffer.append
        self._pending: List[Tuple[str, float, float, str]] = []
        self._retries: List[Tuple[int, int, int]] = []
        self._root_seq = 0
        self._sel = 0
        self._records = 0
        self._matches: Optional[int] = None
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def _emit(self, span_id: str, parent: str, name: str, attrs: str) -> None:
        seq = self._seq
        self._seq = seq + 1
        self._append(
            f'{{"id":"{span_id}","parent":"{parent}","name":"{name}",'
            f'"step":{self._ids.step},"seq":{seq},"attrs":{attrs}}}'
        )

    def _emit_timed(
        self,
        span_id: str,
        parent: str,
        name: str,
        attrs: str,
        wall: float,
        cpu: float,
    ) -> None:
        seq = self._seq
        self._seq = seq + 1
        if self.include_timings:
            self._append(
                f'{{"id":"{span_id}","parent":"{parent}","name":"{name}",'
                f'"step":{self._ids.step},"seq":{seq},"attrs":{attrs},'
                f'"t":{{"ws":{int(wall * 1e9)}e-9,"cs":{int(cpu * 1e9)}e-9}}}}'
            )
        else:
            self._append(
                f'{{"id":"{span_id}","parent":"{parent}","name":"{name}",'
                f'"step":{self._ids.step},"seq":{seq},"attrs":{attrs}}}'
            )

    def _on_step_started(self, event: StepStarted) -> None:
        if self._ids.step is not None:  # abandoned step: reclaim its seq ids
            self._seq = self._root_seq
            self._reset_step()
        self._ids.open_step(event.step)
        if self.include_timings:
            self._wall0 = time.perf_counter()
            self._cpu0 = time.process_time()
        self._policy = event.policy
        self._root_seq = self._seq
        self._seq += 1
        self._append("")  # root placeholder, rendered at finalize

    def _attach_retries(self, fetch_id: str, page_number: int) -> None:
        remaining = []
        for page, attempt, delay_rounds in self._retries:
            if page == page_number:
                self._emit(
                    f"{fetch_id}/r{attempt}",
                    fetch_id,
                    "retry",
                    f'{{"delay_rounds":{delay_rounds}}}',
                )
            else:
                remaining.append((page, attempt, delay_rounds))
        self._retries = remaining

    def _on_aborted(self, event: QueryAborted) -> None:
        last = self._ids.fetch_id(event.pages_fetched)
        if last is None:
            return
        self._emit(
            f"{last}/abort", last, "abort", f'{{"saved":{event.pages_saved}}}'
        )

    def _on_failed(self, event: QueryFailed) -> None:
        qid = self._ids.qid
        if qid is None:
            return
        # Retries for the page that never arrived nest under submit.
        for _page, attempt, delay_rounds in self._retries:
            self._emit(
                f"{qid}/r{attempt}",
                qid,
                "retry",
                f'{{"delay_rounds":{delay_rounds}}}',
            )
        self._retries = []
        self._emit(
            f"{qid}/fail",
            qid,
            "fail",
            f'{{"pages":{event.pages_fetched}}}',
        )

    def handle(self, event: CrawlEvent) -> None:
        # Exact-type chain ordered by event frequency, with the hot
        # branches (phases, fetches, submits) fully inlined — this is
        # the sink's per-event cost and the overhead benchmark prices
        # it against the whole crawl.
        kind = type(event)
        ids = self._ids
        if kind is PhaseCompleted:
            if ids.step is None:
                return
            phase = event.phase
            detail = event.detail
            if phase in _PHASE_TAGS:
                # Selector-internal: parented under the engine phase
                # that triggered it, which has not arrived yet — buffer.
                self._pending.append(
                    (
                        phase,
                        event.seconds,
                        event.cpu_seconds,
                        _json_attrs(detail) if detail else "{}",
                    )
                )
                return
            sid = ids.sid
            if phase == "select":
                parent_id = f"{sid}/sel{self._sel}"
                self._sel += 1
            elif phase == "extract":
                parent_id = f"{sid}/extract"
                if "matches" in detail:
                    self._matches = detail["matches"]
            elif phase == "decompose":
                parent_id = f"{sid}/dec"
            else:  # pragma: no cover - future phases pass through
                parent_id = f"{sid}/{phase}"
            attrs = _json_attrs(detail) if detail else "{}"
            seq = self._seq
            self._seq = seq + 1
            if self.include_timings:
                self._append(
                    f'{{"id":"{parent_id}","parent":"{sid}",'
                    f'"name":"{phase}","step":{ids.step},"seq":{seq},'
                    f'"attrs":{attrs},"t":{{"ws":{int(event.seconds * 1e9)}e-9,'
                    f'"cs":{int(event.cpu_seconds * 1e9)}e-9}}}}'
                )
            else:
                self._append(
                    f'{{"id":"{parent_id}","parent":"{sid}",'
                    f'"name":"{phase}","step":{ids.step},"seq":{seq},'
                    f'"attrs":{attrs}}}'
                )
            if self._pending and (phase == "select" or phase == "decompose"):
                for index, (name, wall, cpu, attrs) in enumerate(
                    self._pending
                ):
                    self._emit_timed(
                        f"{parent_id}/{_PHASE_TAGS[name]}{index}",
                        parent_id,
                        name,
                        attrs,
                        wall,
                        cpu,
                    )
                self._pending = []
        elif kind is PageFetched:
            fetch_id = ids.fetch_id(event.page_number)
            if fetch_id is None:
                return
            seq = self._seq
            self._seq = seq + 1
            self._append(
                f'{{"id":"{fetch_id}","parent":"{ids.qid}","name":"fetch",'
                f'"step":{ids.step},"seq":{seq},'
                f'"attrs":{{"records":{event.records},'
                f'"new":{event.new_records}}}}}'
            )
            self._records += event.records
            if self._retries:
                self._attach_retries(fetch_id, event.page_number)
        elif kind is StepStarted:
            self._on_step_started(event)
        elif kind is QueryIssued:
            qid = ids.open_query()
            if qid is None:
                return
            self._retries = []
            seq = self._seq
            self._seq = seq + 1
            self._append(
                f'{{"id":"{qid}","parent":"{ids.sid}","name":"submit",'
                f'"step":{ids.step},"seq":{seq},'
                f'"attrs":{{"query":{_json_str(str(event.query))}}}}}'
            )
        elif kind is RecordsHarvested:
            self._finalize(event)
        elif kind is RetryAttempted:
            if ids.qid is not None:
                self._retries.append(
                    (event.page_number, event.attempt, event.backoff_rounds)
                )
        elif kind is QueryAborted:
            self._on_aborted(event)
        elif kind is QueryFailed:
            self._on_failed(event)
        elif kind is QueryRejected:
            qid = ids.qid
            if qid is not None:
                self._emit(f"{qid}/reject", qid, "reject", "{}")
        elif kind is CheckpointWritten:
            self.flush()
        elif kind is CrawlStopped:
            self._finalize_partial()
            self.flush()

    # ------------------------------------------------------------------
    # Step finalization
    # ------------------------------------------------------------------
    def _render_root(self, attrs: str) -> str:
        ids = self._ids
        line = (
            f'{{"id":"{ids.sid}","parent":null,"name":"step",'
            f'"step":{ids.step},"seq":{self._root_seq},"attrs":{attrs}'
        )
        if self.include_timings:
            wall = time.perf_counter() - self._wall0
            cpu = time.process_time() - self._cpu0
            return (
                f'{line},"t":{{"ws":{int(wall * 1e9)}e-9,'
                f'"cs":{int(cpu * 1e9)}e-9}}}}'
            )
        return line + "}"

    def _policy_fragment(self) -> str:
        policy = self._policy
        if policy is None:
            return ""
        if policy != self._policy_key:
            self._policy_key = policy
            self._policy_frag = f'"policy":{_json_str(policy)},'
        return self._policy_frag

    def _finalize(self, event: RecordsHarvested) -> None:
        if self._ids.step is None:
            return
        pages = event.pages_fetched
        harvest_rate = round(event.new_records / pages, 6) if pages else 0.0
        policy = self._policy_fragment()
        matches = (
            f',"matches":{self._matches}' if self._matches is not None else ""
        )
        self._buffer[0] = self._render_root(
            f'{{{policy}"query":{_json_str(str(event.query))},'
            f'"pages":{pages},"records":{self._records},'
            f'"new":{event.new_records},'
            f'"dup":{self._records - event.new_records},'
            f'"rounds":{event.rounds - self._last_rounds},'
            f'"records_total":{event.records_total},'
            f'"harvest_rate":{harvest_rate!r}{matches}}}'
        )
        self._last_rounds = event.rounds
        self._write_step()

    def _finalize_partial(self) -> None:
        """Frontier exhaustion: the final step opened but never harvested.

        The surviving spans (the root plus its ``select`` consultations)
        are a deterministic artifact of the crawl's end, so they are
        written — identically by a full run and a resumed one.
        """
        if self._ids.step is None:
            return
        policy = self._policy_fragment()
        self._buffer[0] = self._render_root(
            f"{{{policy}\"exhausted\":true}}"
        )
        self._write_step()

    def _write_step(self) -> None:
        buffer = self._buffer
        if self.path is not None:
            if self._handle is None:
                self._open(mode="w")
            self._handle.write("\n".join(buffer) + "\n")
            if self.step_flush:
                self._handle.flush()
        else:
            self.collected.extend(buffer)
        self.spans_written += len(buffer)
        self._reset_step()


def write_trace(
    path: PathLike,
    tasks: Sequence[Tuple[str, int, Sequence[str]]],
    append: bool = False,
) -> int:
    """Write a merged experiment-grid trace.

    ``tasks`` is ``[(label, seed_index, span_lines), ...]`` in the
    grid's fixed task order (the same order
    :func:`repro.parallel.run_crawl_grid` merges results in), so the
    output is identical at any worker count.  ``append`` adds the tasks
    to an existing trace file instead of starting a new one — how
    multi-grid experiments (one grid per panel or policy) merge all
    their grids into a single trace.  Returns the span count.
    """
    path = Path(path)
    total = 0
    mode = "a" if append and path.exists() else "w"
    with open(path, mode, encoding="utf-8") as handle:
        if mode == "w":
            handle.write(_dump({"schema": TRACE_SCHEMA}) + "\n")
        for label, seed_index, lines in tasks:
            handle.write(
                _dump({"task": label, "seed_index": seed_index}) + "\n"
            )
            for line in lines:
                handle.write(line + "\n")
                total += 1
    return total
