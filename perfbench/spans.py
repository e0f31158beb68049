"""The benchmark's own span recorder: timing layers from outside ``src/``.

Spans are recorded by wrapping the public callables a crawl goes
through (``CrawlerEngine.step``, ``QuerySelector.next_query``,
``SimulatedWebDatabase.submit``, ...).  Nothing inside the program is
edited, so an untraced run executes exactly the code users run.

Each span has a name, a start, an end, the span that was open when it
began (its parent) and the id of the crawl step it belongs to; all spans
of one step share that id.  Spans stay in memory and are written as
JSONL by :meth:`SpanRecorder.write_jsonl` when the run ends.

Callables invoked once per record or per candidate value (hundreds of
thousands of calls in one crawl) are *folded*: each call adds to a
``(calls, seconds)`` total on the span that is open around it instead of
becoming a span of its own, so a traced crawl holds O(pages) spans.  A
folded call made while another folded call is running (for example the
value-keyed ``add_candidate`` a selector without an id path falls back
to from ``add_candidate_id``) is counted as ``nested`` and adds no time,
because its time is already inside the outer call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List

#: A step id outside any crawl step (set-up, seed installation, ...).
NO_STEP = 0


class SpanRecorder:
    """Collects spans and folded call totals for one traced crawl."""

    def __init__(self) -> None:
        #: [span_id, parent_id, step, name, start, end, folded]
        self.spans: List[list] = []
        self.step = NO_STEP
        self._stack: List[list] = []
        self._folding = False
        #: name -> [calls, seconds, nested calls]
        self.folded: Dict[str, list] = {}
        self._clock = time.perf_counter

    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable, new_step: bool = False) -> Callable:
        """Wrap ``fn`` so each call records one span named ``name``.

        With ``new_step`` every call opens a new step id first: the
        wrapped callable is the step boundary.
        """
        clock = self._clock
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if new_step:
                self.step += 1
            parent = stack[-1][0] if stack else None
            record = [len(spans) + 1, parent, self.step, name, clock(), 0.0, None]
            spans.append(record)
            stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()

        return wrapper

    def fold(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so calls add to folded totals (see module docs)."""
        clock = self._clock
        stack = self._stack
        totals = self.folded.setdefault(name, [0, 0.0, 0])

        def wrapper(*args, **kwargs):
            if self._folding:
                totals[2] += 1
                return fn(*args, **kwargs)
            self._folding = True
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self._folding = False
                totals[0] += 1
                totals[1] += elapsed
                if stack:
                    parent = stack[-1]
                    if parent[6] is None:
                        parent[6] = {}
                    entry = parent[6].get(name)
                    if entry is None:
                        parent[6][name] = [1, elapsed]
                    else:
                        entry[0] += 1
                        entry[1] += elapsed

        return wrapper

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, list]:
        """``name -> [calls, inclusive seconds]`` over spans and folds.

        None of the wrapped callables recurse, so inclusive times of
        one name never overlap.
        """
        out: Dict[str, list] = defaultdict(lambda: [0, 0.0])
        for record in self.spans:
            entry = out[record[3]]
            entry[0] += 1
            entry[1] += record[5] - record[4]
        for name, (calls, seconds, _nested) in self.folded.items():
            out[name][0] += calls
            out[name][1] += seconds
        return dict(out)

    def self_times(self) -> Dict[str, float]:
        """``name -> self seconds``: duration minus timed children."""
        child_time: Dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record[1] is not None:
                child_time[record[1]] += record[5] - record[4]
        out: Dict[str, float] = defaultdict(float)
        for record in self.spans:
            folded = sum(e[1] for e in (record[6] or {}).values())
            out[record[3]] += (
                record[5] - record[4] - child_time[record[0]] - folded
            )
        for name, (_calls, seconds, _nested) in self.folded.items():
            out[name] += seconds
        return dict(out)

    def nested_calls(self, name: str) -> int:
        return self.folded.get(name, [0, 0.0, 0])[2]

    # ------------------------------------------------------------------
    def ledger(self, step_name: str) -> str:
        """Self-time table, largest first, with an ``unattributed`` row."""
        totals = self.totals()
        selfs = self.self_times()
        rows = []
        for name, seconds in selfs.items():
            label = "unattributed" if name == step_name else name
            rows.append((seconds, label, totals[name][0]))
        rows.sort(reverse=True)
        width = max([len(label) for _, label, _ in rows] + [12])
        lines = [f"{'layer':<{width}}  {'calls':>9}  {'self_s':>9}"]
        for seconds, label, calls in rows:
            lines.append(f"{label:<{width}}  {calls:>9}  {seconds:>9.4f}")
        return "\n".join(lines)

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON line; returns the line count.

        Times are seconds since the first span's start.  Folded totals
        ride on their parent span as ``"folded": {name: [calls, seconds]}``.
        """
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, step, name, start, end, folded in self.spans:
                line = {
                    "id": span_id,
                    "parent": parent,
                    "step": step,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                }
                if folded:
                    line["folded"] = folded
                handle.write(json.dumps(line, separators=(",", ":")))
                handle.write("\n")
        return len(self.spans)
