"""Structured crawl tracing — causal spans over the event bus.

One crawl step becomes one span tree::

    step                      the query–harvest–decompose iteration
    ├── select                one per selector consultation
    │   └── score             selector-internal scoring (MMMI/DM)
    ├── submit                one per query put on the wire
    │   ├── reject            interface refused the query
    │   ├── fetch             one per result page
    │   │   ├── retry         transient failure absorbed before the page
    │   │   └── abort         the abortion policy stopped paying here
    │   └── fail              retries exhausted mid-query
    ├── extract               page parsing + record decomposition
    └── decompose             frontier update / outcome bookkeeping
        └── frontier-refresh  priority re-scoring (GL)

Span ids derive from the step number and in-step position alone —
never from wall clocks — so a trace is bit-identical across resume and
across the parallel runner at any worker count.  Wall/CPU durations
ride in a separate, optional ``"t"`` field that canonical
(byte-comparable) traces omit.

See :class:`~repro.trace.sink.TraceSink` for the event-bus adapter,
:class:`~repro.trace.cursor.SpanCursor` for the one span-id allocator,
:mod:`repro.trace.export` for Chrome/Perfetto output, and
:mod:`repro.trace.analyze` for summaries, critical paths, and folded
stacks.
"""

from repro.trace.analyze import (
    critical_paths,
    diff_summaries,
    folded_stacks,
    lane_breakdown,
    render_diff,
    render_summary,
    summarize,
)
from repro.trace.cursor import SpanCursor
from repro.trace.export import to_chrome, write_chrome
from repro.trace.sink import TraceSink, write_trace
from repro.trace.spans import (
    TRACE_SCHEMA,
    TraceError,
    load_trace,
    validate_trace_jsonl,
)

__all__ = [
    "SpanCursor",
    "TRACE_SCHEMA",
    "TraceError",
    "TraceSink",
    "critical_paths",
    "diff_summaries",
    "folded_stacks",
    "lane_breakdown",
    "load_trace",
    "render_diff",
    "render_summary",
    "summarize",
    "to_chrome",
    "validate_trace_jsonl",
    "write_chrome",
    "write_trace",
]
