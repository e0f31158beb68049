"""The crawler's HTTP client: a ``WebDatabase`` over the wire.

:class:`RemoteWebDatabase` exposes the exact surface the crawler engine
reads off :class:`~repro.server.webdb.SimulatedWebDatabase` —
``interface``, ``page_size``, ``submit()``, ``rounds``, ``log``,
``truth_size()`` — so :class:`~repro.crawler.engine.CrawlerEngine`,
:class:`~repro.runtime.crawler.RuntimeCrawler`, the event bus, trace
spans, and checkpoints all work unchanged when the source lives on the
other side of a socket.

Design points:

- **Connection reuse.**  A small pool of keep-alive HTTP/1.1
  connections, owned by a private event loop on a background thread;
  the crawler's synchronous ``submit()`` bridges in with
  ``run_coroutine_threadsafe``.
- **Page pipelining.**  Result extraction and page fetching overlap:
  when page *n* of a query is delivered, the fetches of pages
  *n+1 … n+depth* are started immediately, so by the time the prober
  has extracted page *n* the next page is usually already on the way
  (or arrived).  Speculative pages the crawl never consumes (the query
  was aborted, or a stop criterion fired) are counted as
  ``prefetch_wasted`` and — deliberately — **not** charged to the
  client's communication log: the log mirrors the paper's cost model
  of pages *consumed*, which keeps a remote crawl's round count
  byte-identical to the in-process lane.  The server's own counter
  does include speculative fetches; the delta is the price of
  pipelining and is observable at ``/metrics``.
- **Revalidation.**  Every 200 result page carries a strong ``ETag``;
  the client remembers the last ``etag_cache_size`` (target → etag,
  body) pairs and revalidates repeats with ``If-None-Match``.  A 304
  answer reuses the cached body byte-for-byte — and still costs a
  communication round, exactly like a full response (the round is
  charged on *consumption* in ``submit()``, which cannot tell a 304
  from a 200 and must not).
- **Politeness.**  429/503 responses are honored by sleeping out the
  server's ``Retry-After`` (the JSON body's float, falling back to the
  integer header) before retrying; network failures back off
  exponentially.  Retries exhausted raise
  :class:`~repro.server.flaky.PermanentServerFailure`, which the
  prober already turns into a failed-query outcome.
- **Telemetry.**  Per-request latency lands in a
  :mod:`repro.metrics` histogram; the per-round wall time of each
  *consumed* page is recorded on the communication log
  (``record_wall_times``), giving the end-of-run summary per-query
  latency attribution.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode, urlsplit

from repro.core.errors import PaginationError, ReproError, UnsupportedQueryError
from repro.core.query import AnyQuery
from repro.core.values import AttributeValue
from repro.metrics import MetricsRegistry
from repro.net.protocol import (
    FORMATS,
    SourceDescriptor,
    parse_error,
    parse_page_json,
    encode_query_params,
)
from repro.net.server import LATENCY_BUCKETS
from repro.obs.context import HEADER_NAME
from repro.server.flaky import PermanentServerFailure, TransientServerError
from repro.server.network import CommunicationLog
from repro.server.pagination import ResultPage
from repro.server.service import parse_page


def trace_header(trace_id: str, parent: str, attempt: int) -> Tuple[str, str]:
    """The ``X-Repro-Trace`` pair for one attempt at a traced fetch.

    The one encoder of the ``trace_id;parent;attempt`` value; its
    decoder is :func:`repro.obs.server_trace.parse_trace_header`.
    """
    return (HEADER_NAME, f"{trace_id};{parent};{attempt}")


class RemoteSourceError(ReproError):
    """The service answered with something the client cannot use."""


class _Connection:
    """One keep-alive HTTP connection (reader/writer pair)."""

    __slots__ = ("reader", "writer", "requests")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.requests = 0


class _Pool:
    """A bounded pool of keep-alive connections to one host."""

    def __init__(self, host: str, port: int, limit: int) -> None:
        self.host = host
        self.port = port
        self._free: List[_Connection] = []
        self._semaphore = asyncio.Semaphore(limit)
        self.opened = 0

    async def acquire(self) -> _Connection:
        await self._semaphore.acquire()
        if self._free:
            return self._free.pop()
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self.opened += 1
        return _Connection(reader, writer)

    def release(self, connection: _Connection, reusable: bool) -> None:
        if reusable:
            self._free.append(connection)
        else:
            try:
                connection.writer.close()
            except RuntimeError:
                # A prefetch abandoned at shutdown may be collected
                # after the client loop closed; the socket dies with
                # the loop, there is nothing left to close.
                pass
        self._semaphore.release()

    async def close(self) -> None:
        for connection in self._free:
            connection.writer.close()
            try:
                await connection.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._free.clear()


class RemoteWebDatabase:
    """A web database reached over HTTP (see module docstring).

    Parameters
    ----------
    base_url:
        Service root, e.g. ``http://127.0.0.1:8080``.
    source:
        Mounted source name; defaults to the only mounted source (an
        error names the candidates when there are several).
    format:
        Wire format for result pages: ``"json"`` (default; cheapest to
        parse) or ``"xml"`` (the paper-faithful Amazon-style envelope).
    pipeline_depth:
        How many pages beyond the one being extracted may be in flight
        per query (0 disables pipelining).  The connection pool holds
        ``pipeline_depth + 1`` connections.
    max_retries:
        Transient-failure budget per page request (429/503, connection
        errors); exhausted raises
        :class:`~repro.server.flaky.PermanentServerFailure`.
    registry:
        Optional :class:`~repro.metrics.MetricsRegistry` receiving
        request-latency histograms and transport counters.
    client_id:
        Value of the ``X-Client-Id`` header, which the service's rate
        limiter keys on; defaults to a per-instance token.
    etag_cache_size:
        How many (target → ETag, body) pairs to remember for
        ``If-None-Match`` revalidation (0 disables conditional
        requests).
    trace_context:
        Optional :class:`~repro.obs.context.CrawlTraceContext` attached
        to the crawl's event bus.  When present, every page fetch
        carries an ``X-Repro-Trace`` header naming the client span the
        request belongs to (plus the attempt number), so the server can
        open child spans that ``repro trace stitch`` later joins back
        under the fetch.  The header is observability-only: responses
        are byte-identical with and without it.
    """

    _instances = 0

    def __init__(
        self,
        base_url: str,
        source: Optional[str] = None,
        *,
        format: str = "json",
        pipeline_depth: int = 2,
        max_retries: int = 4,
        timeout: float = 30.0,
        retry_after_cap: float = 30.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        registry: Optional[MetricsRegistry] = None,
        client_id: Optional[str] = None,
        etag_cache_size: int = 256,
        trace_context=None,
    ) -> None:
        if format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(
                f"base_url must be http://host[:port], got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.format = format
        self.pipeline_depth = max(0, pipeline_depth)
        self.max_retries = max_retries
        self.timeout = timeout
        self.retry_after_cap = retry_after_cap
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        RemoteWebDatabase._instances += 1
        self.client_id = client_id or f"repro-client-{RemoteWebDatabase._instances}"
        #: Read only on the crawler thread (at fetch-scheduling time),
        #: which is the same thread that feeds the event bus — so the
        #: context's span bookkeeping needs no lock.
        self._trace_context = trace_context
        self._trace_id = getattr(trace_context, "trace_id", None)
        self.log = CommunicationLog(
            keep_requests=False, record_wall_times=True
        )
        self.registry = registry
        if registry is not None:
            self._latency = registry.histogram(
                "net_client_request_seconds",
                "Client-observed HTTP exchange latency.",
                labels=("route",),
                buckets=LATENCY_BUCKETS,
            )
            self._responses = registry.counter(
                "net_client_responses_total",
                "HTTP responses received, by status.",
                labels=("status",),
            )
            self._retries = registry.counter(
                "net_client_retries_total",
                "Retried requests, by reason.",
                labels=("reason",),
            )
            self._prefetch = registry.counter(
                "net_client_prefetch_total",
                "Pipelined page prefetches, by fate.",
                labels=("fate",),
            )
            self._revalidated = registry.counter(
                "net_client_etag_total",
                "Conditional page requests, by outcome.",
                labels=("outcome",),
            )
        else:
            self._latency = self._responses = None
            self._retries = self._prefetch = None
            self._revalidated = None
        #: target → (etag, body); touched only on the client loop
        #: thread, so no lock is needed.
        self.etag_cache_size = max(0, etag_cache_size)
        self._etags: "OrderedDict[str, Tuple[str, bytes]]" = OrderedDict()
        # Private event loop on a daemon thread; all sockets live there.
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-net-client", daemon=True
        )
        self._thread.start()
        self._pool = self._call(
            self._make_pool(split.hostname, split.port or 80)
        )
        #: (query, page_number) → concurrent.futures.Future for pages
        #: speculatively requested but not yet consumed.
        self._prefetched: Dict[Tuple[AnyQuery, int], object] = {}
        self._closed = False
        self._truth_size: Optional[int] = None
        # Fetch the descriptor eagerly: submit() needs the interface
        # for local validation and the engine reads page_size at
        # construction time.
        descriptor = self._fetch_descriptor(source)
        self.descriptor = descriptor
        self.name = descriptor.name
        self.interface = descriptor.build_interface()
        self.page_size = descriptor.page_size
        self.report_total = descriptor.report_total

    # ------------------------------------------------------------------
    # Loop plumbing
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    async def _make_pool(self, host: str, port: int) -> _Pool:
        return _Pool(host, port, self.pipeline_depth + 1)

    def _call(self, coroutine, timeout: Optional[float] = None):
        """Run a coroutine on the client loop and wait for its result."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout=timeout)

    # ------------------------------------------------------------------
    # HTTP core (runs on the client loop)
    # ------------------------------------------------------------------
    async def _exchange(
        self,
        target: str,
        extra_headers: Sequence[Tuple[str, str]] = (),
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request/response on a pooled connection."""
        connection = await self._pool.acquire()
        fresh = connection.requests == 0
        try:
            lines = [
                f"GET {target} HTTP/1.1",
                f"Host: {self._pool.host}:{self._pool.port}",
                f"X-Client-Id: {self.client_id}",
                "Connection: keep-alive",
            ]
            for name, value in extra_headers:
                lines.append(f"{name}: {value}")
            request = "\r\n".join(lines) + "\r\n\r\n"
            connection.writer.write(request.encode("latin-1"))
            await connection.writer.drain()
            status_line = await connection.reader.readline()
            if not status_line:
                raise ConnectionResetError("server closed the connection")
            parts = status_line.decode("latin-1").split(None, 2)
            status = int(parts[1])
            headers: Dict[str, str] = {}
            while True:
                line = await connection.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _sep, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            body = (
                await connection.reader.readexactly(length) if length else b""
            )
            connection.requests += 1
            reusable = headers.get("connection", "keep-alive").lower() != "close"
            self._pool.release(connection, reusable)
            return status, headers, body
        except BaseException:
            self._pool.release(connection, reusable=False)
            if fresh:
                raise
            # A dead reused connection is the normal keep-alive race;
            # surface it as retryable.
            raise ConnectionResetError("stale pooled connection") from None

    async def _fetch(
        self,
        target: str,
        route: str,
        extra_headers: Sequence[Tuple[str, str]] = (),
        trace_parent: Optional[str] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """``_exchange`` with retry/backoff and Retry-After politeness."""
        attempts = self.max_retries + 1
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            headers_out = list(extra_headers)
            if trace_parent is not None:
                # Rebuilt per attempt: the attempt number keeps retried
                # requests distinct server-side (roots …/srv, …/srv1).
                headers_out.append(
                    trace_header(self._trace_id, trace_parent, attempt)
                )
            started = time.perf_counter()
            try:
                status, headers, body = await asyncio.wait_for(
                    self._exchange(target, headers_out),
                    timeout=self.timeout,
                )
            except (ConnectionError, OSError, asyncio.TimeoutError, TimeoutError, asyncio.IncompleteReadError) as error:
                last_error = error
                if self._retries is not None:
                    self._retries.inc_key(("network",))
                if attempt + 1 < attempts:
                    delay = min(
                        self.backoff_base * (2.0 ** attempt), self.backoff_cap
                    )
                    await asyncio.sleep(delay)
                continue
            if self._latency is not None:
                self._latency.observe_key(
                    (route,), time.perf_counter() - started
                )
                self._responses.inc_key((str(status),))
            if status in (429, 503):
                last_error = TransientServerError(
                    f"{status} from service for {target}"
                )
                if self._retries is not None:
                    self._retries.inc_key(("rate-limited",))
                if attempt + 1 < attempts:
                    await asyncio.sleep(self._retry_after(headers, body))
                continue
            return status, headers, body
        raise PermanentServerFailure(
            f"{attempts} attempts failed for {target}"
        ) from last_error

    def _retry_after(self, headers: Dict[str, str], body: bytes) -> float:
        """The politeness delay: the body's float, else the header."""
        delay: Optional[float] = None
        try:
            import json as _json

            payload = _json.loads(body.decode("utf-8"))
            if isinstance(payload, dict) and "retryAfter" in payload:
                delay = float(payload["retryAfter"])
        except (ValueError, UnicodeDecodeError):
            delay = None
        if delay is None:
            try:
                delay = float(headers.get("retry-after", "1"))
            except ValueError:
                delay = 1.0
        return max(0.0, min(delay, self.retry_after_cap))

    # ------------------------------------------------------------------
    # Descriptor / truth routes
    # ------------------------------------------------------------------
    def _get_json(self, path: str, route: str) -> dict:
        import json as _json

        status, _headers, body = self._call(self._fetch(path, route))
        if status != 200:
            code, message = parse_error(body)
            raise RemoteSourceError(f"GET {path} → {status} {code}: {message}")
        try:
            return _json.loads(body.decode("utf-8"))
        except ValueError as error:
            raise RemoteSourceError(
                f"GET {path}: invalid JSON body ({error})"
            ) from error

    def _fetch_descriptor(self, source: Optional[str]) -> SourceDescriptor:
        if source is None:
            listing = self._get_json("/sources", "sources")
            names = [item["name"] for item in listing.get("sources", [])]
            if len(names) != 1:
                raise RemoteSourceError(
                    f"service mounts {len(names)} sources {names}; "
                    f"pass source=<name>"
                )
            source = names[0]
        payload = self._get_json(f"/sources/{source}/meta", "meta")
        return SourceDescriptor.from_json(payload)

    def truth_size(self) -> int:
        """True record count, fetched once from the truth route."""
        if self._truth_size is None:
            payload = self._get_json(
                f"/sources/{self.name}/truth/size", "truth"
            )
            self._truth_size = int(payload["size"])
        return self._truth_size

    def truth_coverage(self, record_ids) -> float:
        """Fraction of the true database covered by ``record_ids``.

        Every id the crawler holds came from the server, so membership
        is implied; this is ``len(ids) / truth_size`` without another
        round trip.
        """
        size = self.truth_size()
        if size == 0:
            return 0.0
        return len(set(record_ids)) / size

    def truth_seeds(
        self, count: int = 1, seed: int = 0, min_frequency: int = 1
    ) -> List[AttributeValue]:
        """Seed values drawn server-side, mirroring the in-process CLI."""
        payload = self._get_json(
            f"/sources/{self.name}/truth/seeds?"
            + urlencode(
                {"n": count, "seed": seed, "min_frequency": min_frequency}
            ),
            "truth",
        )
        return [AttributeValue(a, v) for a, v in payload["values"]]

    def truth_sample(
        self, count: int, seed: int = 0
    ) -> List[AttributeValue]:
        """A shuffled sample of queriable values (load-test driver)."""
        payload = self._get_json(
            f"/sources/{self.name}/truth/sample?"
            + urlencode({"n": count, "seed": seed}),
            "truth",
        )
        return [AttributeValue(a, v) for a, v in payload["values"]]

    # ------------------------------------------------------------------
    # The crawler-facing API
    # ------------------------------------------------------------------
    def submit(self, query: AnyQuery, page_number: int = 1) -> ResultPage:
        """Answer one page request over the wire; one consumed round.

        Raises exactly what the in-process source raises —
        :class:`UnsupportedQueryError` without costing a round (checked
        locally against the reconstructed interface before anything is
        sent), :class:`PaginationError` with the round charged, and
        :class:`PermanentServerFailure` when retries are exhausted.
        """
        if self._closed:
            raise RemoteSourceError("client is closed")
        self.interface.validate(query)
        started = time.perf_counter()
        key = (query, page_number)
        future = self._prefetched.pop(key, None)
        if future is not None:
            if self._prefetch is not None:
                self._prefetch.inc_key(("hit",))
        else:
            self._discard_prefetches()
            future = self._schedule_fetch(query, page_number)
        try:
            page = future.result(timeout=self.timeout * (self.max_retries + 2))
        except PaginationError:
            # The in-process lane charges the round before raising (the
            # crawler had to ask to find out); mirror it exactly.
            self.log.record(
                query,
                page_number,
                0,
                wall_time=time.perf_counter() - started,
            )
            raise
        wall = time.perf_counter() - started
        self.log.record(query, page_number, len(page.records), wall_time=wall)
        if self.pipeline_depth > 0 and page.has_next:
            self._prefetch_ahead(query, page_number, page.num_pages)
        return page

    def submit_xml(self, query: AnyQuery, page_number: int = 1) -> str:
        """Like :meth:`submit` but returning the XML wire document."""
        from repro.server.service import render_page

        return render_page(self.submit(query, page_number))

    @property
    def rounds(self) -> int:
        """Communication rounds *consumed* by this client."""
        return self.log.rounds

    # ------------------------------------------------------------------
    # Pipelining internals
    # ------------------------------------------------------------------
    def _schedule_fetch(self, query: AnyQuery, page_number: int):
        # Runs on the crawler thread, before the coroutine is shipped
        # to the client loop: the trace context's "current query" is
        # only coherent here (QueryIssued fires on this thread, before
        # submit()), so the span id is resolved now and captured.
        trace_parent = None
        if self._trace_context is not None:
            trace_parent = self._trace_context.fetch_id(page_number)
        return asyncio.run_coroutine_threadsafe(
            self._fetch_page(query, page_number, trace_parent), self._loop
        )

    def _fetch_page(
        self,
        query: AnyQuery,
        page_number: int,
        trace_parent: Optional[str] = None,
    ):
        params = encode_query_params(query) + [
            ("page", str(page_number)),
            ("format", self.format),
        ]
        target = f"/sources/{self.name}/query?{urlencode(params)}"

        async def fetch() -> ResultPage:
            cached = self._etags.get(target) if self.etag_cache_size else None
            conditional = (
                [("If-None-Match", cached[0])] if cached is not None else []
            )
            status, headers, body = await self._fetch(
                target, "query", conditional, trace_parent=trace_parent
            )
            if status == 304 and cached is not None:
                # Revalidated: the cached body is byte-identical to
                # what a 200 would have carried.  submit() charges the
                # round on consumption either way.
                self._etags.move_to_end(target)
                if self._revalidated is not None:
                    self._revalidated.inc_key(("reused",))
                body = cached[1]
                status = 200
            elif status == 200 and self.etag_cache_size:
                etag = headers.get("etag")
                if etag:
                    self._etags[target] = (etag, body)
                    self._etags.move_to_end(target)
                    while len(self._etags) > self.etag_cache_size:
                        self._etags.popitem(last=False)
                    if self._revalidated is not None:
                        self._revalidated.inc_key(("stored",))
            if status == 200:
                text = body.decode("utf-8")
                if self.format == "xml":
                    return parse_page(text)
                return parse_page_json(text)
            code, message = parse_error(body)
            if code == "unsupported-query":
                raise UnsupportedQueryError(message)
            if code == "page-out-of-range":
                raise PaginationError(message)
            raise RemoteSourceError(
                f"GET {target} → {status} {code}: {message}"
            )

        return fetch()

    def _prefetch_ahead(
        self, query: AnyQuery, page_number: int, num_pages: int
    ) -> None:
        last = min(page_number + self.pipeline_depth, num_pages)
        for upcoming in range(page_number + 1, last + 1):
            key = (query, upcoming)
            if key not in self._prefetched:
                if self._prefetch is not None:
                    self._prefetch.inc_key(("issued",))
                self._prefetched[key] = self._schedule_fetch(query, upcoming)

    def _discard_prefetches(self) -> None:
        """Drop speculative pages the crawl will never consume."""
        for future in self._prefetched.values():
            if self._prefetch is not None:
                self._prefetch.inc_key(("wasted",))
            # Swallow late failures so discarded futures never warn.
            future.add_done_callback(lambda f: f.exception())
        self._prefetched.clear()

    # ------------------------------------------------------------------
    # Durable-runtime state (mirrors SimulatedWebDatabase)
    # ------------------------------------------------------------------
    def runtime_state(self) -> dict:
        """Only the consumed-round counter is crawl-dependent state."""
        return {"rounds": self.log.rounds}

    def load_runtime_state(self, state: dict) -> None:
        self.log.rounds = state["rounds"]

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Discard in-flight work, close sockets, stop the loop thread."""
        if self._closed:
            return
        self._closed = True
        self._discard_prefetches()
        try:
            self._call(self._pool.close(), timeout=5.0)
        except Exception:  # noqa: BLE001 - closing must not raise
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()

    def __enter__(self) -> "RemoteWebDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if not self._closed and self._thread.is_alive():
                self._loop.call_soon_threadsafe(self._loop.stop)
        except Exception:  # noqa: BLE001
            pass
