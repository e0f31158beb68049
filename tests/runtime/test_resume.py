"""Crash/resume determinism — the acceptance tests for ``repro.runtime``.

Every test compares against an uninterrupted reference crawl on the
flaky scaffold (transient failures, retries, charged jittered backoff).
A resumed crawl must produce a bit-identical
:class:`~repro.crawler.engine.CrawlResult`: same records, same rounds,
same history curve, same stopping reason.
"""

from __future__ import annotations

import pytest

from repro.runtime.crawler import (
    CHECKPOINT_FILE,
    PROGRESS_FILE,
    RuntimeCrawler,
    rebuild_engine_state,
)
from repro.runtime.checkpoint import CheckpointError, CrawlCheckpoint
from repro.runtime.events import (
    CrashAfterSteps,
    EventBus,
    RingBufferSink,
    SimulatedCrash,
)

from tests.runtime.conftest import (
    CHECKPOINT_EVERY,
    FLAKY_POLICIES,
    MAX_QUERIES,
    make_backoff,
    make_engine,
    make_flaky_server,
    seed_values,
)

POLICY_KEYS = sorted(FLAKY_POLICIES)
CRASH_STEPS = (3, 13, 27)
SUSPEND_STEPS = 17


def build_engine(policy, table, domain_table, bus=None):
    selector = FLAKY_POLICIES[policy]({"domain_table": domain_table})
    return make_engine(table, selector, bus=bus)


@pytest.fixture(scope="module")
def reference_results(flaky_table, ebay_domain_table):
    """Uninterrupted plain crawls — the ground truth per policy."""
    results = {}
    for policy in POLICY_KEYS:
        engine = build_engine(policy, flaky_table, ebay_domain_table)
        results[policy] = engine.crawl(
            seed_values(flaky_table), max_queries=MAX_QUERIES
        )
    return results


def resume_and_finish(tmp_path, policy, flaky_table, ebay_domain_table):
    """Fresh server + selector, resume from disk, run to the stored limits."""
    selector = FLAKY_POLICIES[policy]({"domain_table": ebay_domain_table})
    runtime = RuntimeCrawler.resume(
        tmp_path,
        make_flaky_server(flaky_table),
        selector,
        backoff=make_backoff(),
    )
    result = runtime.run()
    runtime.close()
    return result


@pytest.mark.parametrize("policy", POLICY_KEYS)
def test_durable_crawl_matches_plain(
    tmp_path, policy, flaky_table, ebay_domain_table, reference_results
):
    engine = build_engine(policy, flaky_table, ebay_domain_table)
    runtime = RuntimeCrawler(
        engine, checkpoint_dir=tmp_path, checkpoint_every=CHECKPOINT_EVERY
    )
    result = runtime.crawl(seed_values(flaky_table), max_queries=MAX_QUERIES)
    runtime.close()
    assert result == reference_results[policy]
    assert runtime.checkpoints_written >= 1


@pytest.mark.parametrize("policy", POLICY_KEYS)
def test_suspend_then_resume_matches(
    tmp_path, policy, flaky_table, ebay_domain_table, reference_results
):
    runtime = RuntimeCrawler(
        build_engine(policy, flaky_table, ebay_domain_table),
        checkpoint_dir=tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    partial = runtime.crawl(
        seed_values(flaky_table),
        max_queries=MAX_QUERIES,
        stop_after_steps=SUSPEND_STEPS,
    )
    runtime.close()
    assert partial.stopped_by == "suspended"
    assert partial.queries_issued <= reference_results[policy].queries_issued

    result = resume_and_finish(tmp_path, policy, flaky_table, ebay_domain_table)
    assert result == reference_results[policy]


def test_random_policy_resume_is_deterministic(tmp_path, flaky_table):
    """Suspend/resume under RandomSelector is bit-identical.

    The random frontier draws indices from the engine's checkpointed
    policy RNG (RandomFrontier refuses an implicit unseeded stream), so
    a resumed random crawl must replay exactly where it left off.
    """
    from repro.policies import RandomSelector

    reference = make_engine(flaky_table, RandomSelector()).crawl(
        seed_values(flaky_table), max_queries=MAX_QUERIES
    )

    runtime = RuntimeCrawler(
        make_engine(flaky_table, RandomSelector()),
        checkpoint_dir=tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    partial = runtime.crawl(
        seed_values(flaky_table),
        max_queries=MAX_QUERIES,
        stop_after_steps=SUSPEND_STEPS,
    )
    runtime.close()
    assert partial.stopped_by == "suspended"

    resumed = RuntimeCrawler.resume(
        tmp_path,
        make_flaky_server(flaky_table),
        RandomSelector(),
        backoff=make_backoff(),
    )
    result = resumed.run()
    resumed.close()
    assert result == reference


@pytest.mark.parametrize("policy", POLICY_KEYS)
@pytest.mark.parametrize("crash_after", CRASH_STEPS)
def test_crash_then_resume_matches(
    tmp_path, policy, crash_after, flaky_table, ebay_domain_table,
    reference_results,
):
    """Kill the crawl mid-step at step N; recovery must be lossless."""
    bus = EventBus()
    bus.attach(CrashAfterSteps(crash_after))
    runtime = RuntimeCrawler(
        build_engine(policy, flaky_table, ebay_domain_table, bus=bus),
        checkpoint_dir=tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    with pytest.raises(SimulatedCrash):
        runtime.crawl(seed_values(flaky_table), max_queries=MAX_QUERIES)
    runtime.close()

    result = resume_and_finish(tmp_path, policy, flaky_table, ebay_domain_table)
    assert result == reference_results[policy]


@pytest.mark.parametrize("policy", POLICY_KEYS)
def test_journal_replay_reproduces_crash_position(
    tmp_path, policy, flaky_table, ebay_domain_table
):
    """checkpoint.json + journal.jsonl alone pin down the crawl position.

    The crash fires inside step 27 — after the engine applied it but
    before the journal recorded it — so the recoverable position is
    step 26.  A twin crawl stepped exactly 26 times provides the ground
    truth for the record count, round counter, and frontier size.

    ``snapshot_every`` makes the periodic checkpoints full-state
    snapshots, so the snapshot at step 20 bounds the replay to the six
    journal entries after it.
    """
    crash_after = 27
    bus = EventBus()
    bus.attach(CrashAfterSteps(crash_after))
    runtime = RuntimeCrawler(
        build_engine(policy, flaky_table, ebay_domain_table, bus=bus),
        checkpoint_dir=tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
        snapshot_every=CHECKPOINT_EVERY,
    )
    with pytest.raises(SimulatedCrash):
        runtime.crawl(seed_values(flaky_table), max_queries=MAX_QUERIES)
    runtime.close()

    twin = build_engine(policy, flaky_table, ebay_domain_table)
    twin.prepare(seed_values(flaky_table))
    for _ in range(crash_after - 1):
        assert twin.step() is not None

    state = rebuild_engine_state(tmp_path)
    assert state["checkpoint_step"] == 20
    assert state["step"] == crash_after - 1
    assert state["journal_entries"] == crash_after - 1 - 20
    assert state["records"] == len(twin.local_db)
    assert state["rounds"] == twin.server.rounds

    selector = FLAKY_POLICIES[policy]({"domain_table": ebay_domain_table})
    resumed = RuntimeCrawler.resume(
        tmp_path, make_flaky_server(flaky_table), selector,
        backoff=make_backoff(),
    )
    engine = resumed.engine
    assert engine.steps == crash_after - 1
    assert len(engine.local_db) == len(twin.local_db)
    assert engine.selector.pending_count() == twin.selector.pending_count()
    assert engine.server.rounds == twin.server.rounds
    resumed.close()


def test_light_checkpoint_markers_recover_from_baseline(
    tmp_path, flaky_table, ebay_domain_table
):
    """Default checkpointing is light: no periodic state snapshots.

    ``checkpoint.json`` stays at the step-0 baseline; the periodic
    markers flush the journal and stamp ``progress.json`` with the
    durable horizon.  Recovery replays the whole journal through the
    selector and still lands exactly on the pre-crash step.
    """
    import json

    crash_after = 27
    bus = EventBus()
    bus.attach(CrashAfterSteps(crash_after))
    runtime = RuntimeCrawler(
        build_engine("greedy-link", flaky_table, ebay_domain_table, bus=bus),
        checkpoint_dir=tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    with pytest.raises(SimulatedCrash):
        runtime.crawl(seed_values(flaky_table), max_queries=MAX_QUERIES)
    runtime.close()

    progress = json.loads((tmp_path / PROGRESS_FILE).read_text())
    assert progress["step"] == 20  # last marker before the crash
    assert progress["journal_entries"] == 20

    state = rebuild_engine_state(tmp_path)
    assert state["checkpoint_step"] == 0  # baseline only — by design
    assert state["committed_step"] == 20
    assert state["step"] == crash_after - 1

    resumed = RuntimeCrawler.resume(
        tmp_path,
        make_flaky_server(flaky_table),
        FLAKY_POLICIES["greedy-link"]({"domain_table": ebay_domain_table}),
        backoff=make_backoff(),
    )
    assert resumed.engine.steps == crash_after - 1
    resumed.close()


def test_runtime_without_checkpoint_dir_matches_plain(
    flaky_table, ebay_domain_table, reference_results
):
    """No checkpoint dir: the runtime degrades to a plain crawl loop."""
    runtime = RuntimeCrawler(
        build_engine("greedy-link", flaky_table, ebay_domain_table)
    )
    result = runtime.crawl(seed_values(flaky_table), max_queries=MAX_QUERIES)
    assert result == reference_results["greedy-link"]


def test_durable_crawl_emits_lifecycle_events(
    tmp_path, flaky_table, ebay_domain_table
):
    from repro.metrics import TelemetrySink

    bus = EventBus()
    ring = bus.attach(RingBufferSink(capacity=10_000))
    telemetry = bus.attach(TelemetrySink())
    runtime = RuntimeCrawler(
        build_engine("greedy-link", flaky_table, ebay_domain_table, bus=bus),
        checkpoint_dir=tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    result = runtime.crawl(seed_values(flaky_table), max_queries=MAX_QUERIES)
    runtime.close()
    policy = result.policy
    assert (
        telemetry.queries_completed.value(policy=policy)
        == result.queries_issued
    )
    checkpoints = sum(value for _, value in telemetry.checkpoints.series())
    assert checkpoints == runtime.checkpoints_written
    stopped = ring.of_kind("crawl-stopped")
    assert len(stopped) == 1
    assert stopped[0].stopped_by == result.stopped_by
    assert stopped[0].records == result.records_harvested
    # The flaky scaffold guarantees some retries actually happened.
    assert telemetry.retries.value(policy=policy) > 0
    steps = [event.step for event in ring.of_kind("records-harvested")]
    assert steps == sorted(steps)


@pytest.mark.parametrize("policy", POLICY_KEYS)
def test_resumed_journal_is_bit_identical(
    tmp_path, policy, flaky_table, ebay_domain_table, reference_results
):
    """Mid-run checkpoint + resume must rewrite history *exactly*.

    An uninterrupted durable crawl and a suspended-then-resumed crawl
    must leave byte-for-byte identical ``journal.jsonl`` files: the
    resumed engine replays the journal, restores the interner/RNG/
    frontier state, and continues producing entries indistinguishable
    from the run that never stopped.  This pins the dense-interner
    checkpoint state — a drifted id assignment after resume would show
    up as diverging outcomes in the journal tail.
    """
    straight_dir = tmp_path / "straight"
    resumed_dir = tmp_path / "resumed"

    runtime = RuntimeCrawler(
        build_engine(policy, flaky_table, ebay_domain_table),
        checkpoint_dir=straight_dir,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    straight = runtime.crawl(seed_values(flaky_table), max_queries=MAX_QUERIES)
    runtime.close()

    runtime = RuntimeCrawler(
        build_engine(policy, flaky_table, ebay_domain_table),
        checkpoint_dir=resumed_dir,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    partial = runtime.crawl(
        seed_values(flaky_table),
        max_queries=MAX_QUERIES,
        stop_after_steps=SUSPEND_STEPS,
    )
    runtime.close()
    assert partial.stopped_by == "suspended"
    resumed = resume_and_finish(
        resumed_dir, policy, flaky_table, ebay_domain_table
    )

    assert straight == reference_results[policy]
    assert resumed == reference_results[policy]
    straight_journal = (straight_dir / "journal.jsonl").read_bytes()
    resumed_journal = (resumed_dir / "journal.jsonl").read_bytes()
    assert straight_journal == resumed_journal


def test_resume_requires_a_checkpoint(tmp_path, flaky_table, ebay_domain_table):
    selector = FLAKY_POLICIES["greedy-link"]({})
    with pytest.raises(CheckpointError):
        RuntimeCrawler.resume(
            tmp_path / "empty", make_flaky_server(flaky_table), selector
        )


def test_resume_limits_survive_the_checkpoint(
    tmp_path, flaky_table, ebay_domain_table
):
    """The stored limits (max_queries) drive the resumed run unchanged."""
    runtime = RuntimeCrawler(
        build_engine("greedy-link", flaky_table, ebay_domain_table),
        checkpoint_dir=tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    runtime.crawl(
        seed_values(flaky_table), max_queries=MAX_QUERIES, stop_after_steps=5
    )
    runtime.close()
    checkpoint = CrawlCheckpoint.load(tmp_path / CHECKPOINT_FILE)
    assert checkpoint.limits["max_queries"] == MAX_QUERIES
    result = resume_and_finish(
        tmp_path, "greedy-link", flaky_table, ebay_domain_table
    )
    assert result.stopped_by == "max-queries"
    assert result.queries_issued == MAX_QUERIES
