"""The three crawl workloads: set-up, one timed crawl, and the facts it yields.

Every workload is one crawler process driving a closed loop: the engine
waits for each result page before it chooses its next query.  Each
crawls with ``page_size=10`` until true coverage reaches
:data:`TARGET_COVERAGE`.  Policy names are the ``repro crawl --policy``
names and resolve through the CLI's own table.

Why these three (each loads one layer and leaves the others light):

``imdb-hybrid-durable``
    Wide IMDB records make harvest and decompose heavy (hundreds of
    thousands of candidate offers, tens of thousands of ``DB_local``
    inserts), the dataset build dominates set-up, and the durable
    runtime journals every step: the only workload that writes.
``dblp-hybrid``
    Narrow DBLP records and ~1,350 short steps, most of whose time is
    MMMI scoring in ``next_query``: the selection-heavy workload.
``dblp-gl-remote``
    The same kind of DBLP table served over loopback HTTP by a fresh
    one-worker process :class:`~repro.net.cluster.SourceCluster` (cold
    page cache), crawled with greedy-link (selection almost free)
    through ``RemoteWebDatabase(pipeline_depth=1)`` (at most two
    connections).  A server or wire change shows up here and nowhere
    else.  Client and worker hand every page back and forth, so each
    stall of a shared host shows in its timings: on a 2-vCPU VM its
    ``crawl_s`` spread reached 0.43 of the median over ten seeds.  It is
    therefore not a gated workload in ``BENCHMARK.json``; the traced run
    of ``dblp-hybrid`` crawls its first input this way and reports the
    ``net.*`` metrics, and it stays runnable on its own.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.cli import POLICIES
from repro.core.table import RelationalTable
from repro.crawler.engine import CrawlerEngine
from repro.datasets import load_dataset
from repro.experiments.harness import sample_seed_values
from repro.runtime.checkpoint import CrawlCheckpoint
from repro.runtime.crawler import JOURNAL_FILE, RuntimeCrawler
from repro.runtime.journal import OutcomeJournal
from repro.server.webdb import SimulatedWebDatabase

from spans import SpanRecorder

TARGET_COVERAGE = 0.99
PAGE_SIZE = 10
#: Checkpoint marker cadence of the durable workload (journal: every step).
CHECKPOINT_EVERY = 100


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    records: int
    policy: str
    #: "memory" (plain engine), "durable" (RuntimeCrawler with a
    #: checkpoint dir) or "remote" (HTTP client against a cluster).
    lane: str
    #: Distinct generated inputs per run (instance seeds
    #: ``seed * 100 + i``).  Crawl cost differs from one generated table
    #: to the next; averaging over several tables per run keeps that
    #: spread inside the metrics' bounds.
    instances: int
    #: Workload whose untraced crawl of the same first input the traced
    #: run adds, to measure a lane this workload does not use.
    companion: Optional[str] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("imdb-hybrid-durable", "imdb", 12000, "greedy-mmmi", "durable", 4),
        Workload("dblp-hybrid", "dblp", 12000, "greedy-mmmi", "memory", 4, "dblp-gl-remote"),
        Workload("dblp-gl-remote", "dblp", 12000, "greedy-link", "remote", 2),
    )
}


def instance_seed(seed: int, index: int) -> int:
    return seed * 100 + index


def record_digest(record_ids) -> str:
    """Order-free digest of a set of harvested record ids."""
    text = ",".join(str(i) for i in sorted(record_ids))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass
class CrawlFacts:
    """What one crawl did and how long it took."""

    seed: int
    rounds: int
    queries: int
    records: int
    local_db_size: int
    coverage: float
    stopped_by: str
    digest: str
    steps: int
    failed_queries: int
    rejected_queries: int
    crawl_s: float
    step_ms: List[float] = field(default_factory=list)
    page_ms: List[float] = field(default_factory=list)
    #: Page requests the source answered: calls of the in-process
    #: ``submit``, or the cluster's ``query`` route requests.
    submit_calls: int = 0
    failed_pages: int = 0
    #: Durable lane.
    journal_entries: Optional[int] = None
    bytes_written: int = 0
    #: Remote lane.
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    server_requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    connections: int = 0
    cluster_start_s: float = 0.0
    cluster_stop_s: float = 0.0

    def key_facts(self) -> Dict[str, object]:
        """The facts that must repeat exactly for a given input."""
        return {
            "rounds": self.rounds,
            "queries": self.queries,
            "records": self.records,
            "digest": self.digest,
        }


class _Timed:
    """Appends the wall time of every call of ``fn`` to ``samples`` (ms)."""

    __slots__ = ("fn", "samples")

    def __init__(self, fn, samples: List[float]) -> None:
        self.fn = fn
        self.samples = samples

    def __call__(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.samples.append((time.perf_counter() - started) * 1e3)


class Instance:
    """One generated input of a workload: a table, its source, its seed."""

    def __init__(self, workload: Workload, seed: int, records: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.records = records
        self.work_dir = work_dir
        self.table: Optional[RelationalTable] = None
        self._source = None
        self._cluster = None
        self._cluster_start_s = 0.0
        self._crawls = 0

    # ------------------------------------------------------------------
    def setup(self, recorder: Optional[SpanRecorder] = None) -> float:
        """Build the table and its source; seconds until a query can go out."""
        load = load_dataset
        if recorder is not None:
            load = recorder.span("datasets.load_dataset", load_dataset)
        started = time.perf_counter()
        with _traced(recorder, (RelationalTable, "insert_rows", "core.table.insert_rows")):
            self.table = load(self.workload.dataset, self.records, seed=self.seed)
        self._source = SimulatedWebDatabase(self.table, page_size=PAGE_SIZE)
        if self.workload.lane == "remote":
            self._start_cluster(recorder)
        return time.perf_counter() - started

    def _start_cluster(self, recorder: Optional[SpanRecorder]) -> None:
        from repro.net.cluster import SourceCluster

        # One worker, cold page cache; the table crosses by pickle so
        # the run writes nothing outside its checkout (no /dev/shm).
        cluster = SourceCluster(
            {self.table.name: self._source},
            workers=1,
            mode="process",
            use_shared_memory=False,
        )
        start = cluster.start
        if recorder is not None:
            start = recorder.span("net.cluster.start", start)
        started = time.perf_counter()
        start()
        self._cluster_start_s = time.perf_counter() - started
        self._cluster = cluster

    def _take_source(self, recorder: Optional[SpanRecorder]) -> None:
        """Every crawl after the first gets a fresh source (and cluster)."""
        if self._crawls > 0:
            self._source = SimulatedWebDatabase(self.table, page_size=PAGE_SIZE)
            if self.workload.lane == "remote":
                self._start_cluster(recorder)
        self._crawls += 1

    def seeds(self):
        return sample_seed_values(
            self.table, 1, random.Random(self.seed), min_frequency=2
        )

    # ------------------------------------------------------------------
    def crawl(self, recorder: Optional[SpanRecorder] = None) -> CrawlFacts:
        """Run one crawl to the target; time it and collect its facts."""
        self._take_source(recorder)
        if self.workload.lane == "remote":
            return self._crawl_remote(recorder)
        server = self._source
        engine = CrawlerEngine(
            server, POLICIES[self.workload.policy](), seed=self.seed
        )
        step_ms: List[float] = []
        page_ms: List[float] = []
        _instrument(engine, recorder, step_ms, page_ms, "server.submit")
        runtime = None
        ckpt_dir = None
        if self.workload.lane == "durable":
            ckpt_dir = self.work_dir / f"ckpt-{self.workload.name}-s{self.seed}"
            shutil.rmtree(ckpt_dir, ignore_errors=True)
            runtime = RuntimeCrawler(
                engine,
                checkpoint_dir=ckpt_dir,
                checkpoint_every=CHECKPOINT_EVERY,
                setup={
                    "dataset": self.workload.dataset,
                    "records": self.records,
                    "policy": self.workload.policy,
                    "page_size": PAGE_SIZE,
                    "result_limit": None,
                    "seed": self.seed,
                },
            )
        seeds = self.seeds()
        gc.collect()
        with _traced(
            recorder,
            (OutcomeJournal, "record", "runtime.journal.record"),
            (OutcomeJournal, "flush", "runtime.journal.flush"),
            (CrawlCheckpoint, "save", "runtime.checkpoint.save"),
        ):
            started = time.perf_counter()
            if runtime is not None:
                result = runtime.crawl(seeds, target_coverage=TARGET_COVERAGE)
                runtime.close()
            else:
                result = engine.crawl(seeds, target_coverage=TARGET_COVERAGE)
            crawl_s = time.perf_counter() - started
        facts = _facts(self.seed, engine, result, crawl_s, step_ms, page_ms)
        facts.submit_calls = (
            len(page_ms)
            if recorder is None
            else recorder.totals().get("server.submit", [0])[0]
        )
        if ckpt_dir is not None:
            with open(ckpt_dir / JOURNAL_FILE, "rb") as handle:
                facts.journal_entries = sum(1 for _ in handle)
            facts.bytes_written = sum(
                p.stat().st_size for p in ckpt_dir.iterdir() if p.is_file()
            )
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        return facts

    def _crawl_remote(self, recorder: Optional[SpanRecorder]) -> CrawlFacts:
        from repro.net import RemoteWebDatabase

        cluster = self._cluster
        worker_pid = cluster._processes[0].pid
        step_ms: List[float] = []
        page_ms: List[float] = []
        seeds = self.seeds()
        try:
            with RemoteWebDatabase(cluster.url, pipeline_depth=1) as server:
                engine = CrawlerEngine(
                    server, POLICIES[self.workload.policy](), seed=self.seed
                )
                _instrument(engine, recorder, step_ms, page_ms, "net.client.submit")
                gc.collect()
                server_cpu0 = proc_cpu_seconds(worker_pid)
                cpu0 = time.process_time()
                started = time.perf_counter()
                result = engine.crawl(seeds, target_coverage=TARGET_COVERAGE)
                crawl_s = time.perf_counter() - started
                client_cpu = time.process_time() - cpu0
                server_cpu = proc_cpu_seconds(worker_pid) - server_cpu0
                connections = server._pool.opened
                facts = _facts(self.seed, engine, result, crawl_s, step_ms, page_ms)
            snapshot = cluster.snapshot()
        finally:
            stop_started = time.perf_counter()
            cluster.stop()
            stop_s = time.perf_counter() - stop_started
            self._cluster = None
        requests = snapshot.accounting()["requests"]
        facts.submit_calls = int(requests.get("query|200", 0))
        facts.failed_pages = int(
            sum(v for k, v in requests.items() if k.startswith("query|") and k != "query|200")
        )
        hits, misses, _evictions, _entries = snapshot.cache_stats
        facts.client_cpu_s = client_cpu
        facts.server_cpu_s = server_cpu
        facts.server_requests = snapshot.requests_served
        facts.cache_hits = hits
        facts.cache_misses = misses
        facts.connections = connections
        facts.cluster_start_s = self._cluster_start_s
        facts.cluster_stop_s = stop_s
        return facts

    def reference_crawl(self) -> CrawlFacts:
        """The same crawl in process, untimed: what the remote lane must match."""
        engine = CrawlerEngine(
            SimulatedWebDatabase(self.table, page_size=PAGE_SIZE),
            POLICIES[self.workload.policy](),
            seed=self.seed,
        )
        result = engine.crawl(self.seeds(), target_coverage=TARGET_COVERAGE)
        return _facts(self.seed, engine, result, 0.0, [], [])

    def close(self) -> None:
        if self._cluster is not None:
            self._cluster.stop()
            self._cluster = None
        self.table = None
        self._source = None
        gc.collect()


# ----------------------------------------------------------------------
def _facts(seed, engine, result, crawl_s, step_ms, page_ms) -> CrawlFacts:
    local = engine.local_db
    return CrawlFacts(
        seed=seed,
        rounds=result.communication_rounds,
        queries=result.queries_issued,
        records=result.records_harvested,
        local_db_size=len(local),
        coverage=result.coverage,
        stopped_by=result.stopped_by,
        digest=record_digest(r.record_id for r in local),
        steps=engine.steps,
        failed_queries=result.failed_queries,
        rejected_queries=result.rejected_queries,
        crawl_s=crawl_s,
        step_ms=step_ms,
        page_ms=page_ms,
    )


def _instrument(engine, recorder, step_ms, page_ms, submit_name) -> None:
    """Time steps and page waits; with a recorder, span every layer."""
    server = engine.server
    if recorder is None:
        engine.step = _Timed(engine.step, step_ms)
        server.submit = _Timed(server.submit, page_ms)
        return
    selector = engine.selector
    engine.step = recorder.span("crawler.engine.step", engine.step, new_step=True)
    server.submit = recorder.span(submit_name, server.submit)
    selector.next_query = recorder.span("policies.next_query", selector.next_query)
    selector.observe_outcome = recorder.span(
        "policies.observe_outcome", selector.observe_outcome
    )
    selector.add_candidate = recorder.fold("policies.add_candidate", selector.add_candidate)
    selector.add_candidate_id = recorder.fold(
        "policies.add_candidate_id", selector.add_candidate_id
    )
    engine.extractor.extract = recorder.span("crawler.extract", engine.extractor.extract)
    engine.local_db.add = recorder.fold("crawler.localdb.add", engine.local_db.add)


@contextmanager
def _traced(recorder: Optional[SpanRecorder], *patches):
    """Span every call of each ``(cls, attr, name)`` while the block runs.

    Class-level, because the objects are created inside the block (the
    table inside ``load_dataset``, the journal inside ``crawl``).
    Untraced (``recorder is None``) the block runs unpatched.
    """
    if recorder is None:
        yield
        return
    originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in patches]
    for cls, attr, name in patches:
        setattr(cls, attr, recorder.span(name, cls.__dict__[attr]))
    try:
        yield
    finally:
        for cls, attr, original in originals:
            setattr(cls, attr, original)
