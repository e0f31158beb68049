"""Conservation: the trace, the registry and the crawl count one crawl.

A :class:`~repro.trace.TraceSink` and a
:class:`~repro.metrics.TelemetrySink` ride the same in-process crawl.
The paper's cost model — a query costs one round per result page, and
harvest is new records per page — must come out the same from the
server's round counter, the registry, the span tree and the
:class:`~repro.crawler.engine.CrawlResult`, on a reliable source and
on a flaky one whose failures and backoff waits are charged.  Per
query, a crawl that runs a query to its end pays exactly
⌈accessible matches / k⌉ pages; an aborted one pays fewer.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.cli import POLICIES
from repro.crawler.abortion import PageCapAbort
from repro.crawler.engine import CrawlerEngine
from repro.experiments.harness import sample_seed_values
from repro.metrics import TelemetrySink
from repro.runtime.events import EventBus
from repro.server.flaky import ExponentialBackoff, FlakyServer
from repro.server.webdb import SimulatedWebDatabase
from repro.trace import TraceSink

SEED = 3


def _crawl(table, policy, flaky, **engine_kwargs):
    bus = EventBus()
    telemetry = bus.attach(TelemetrySink(track_wall_time=False))
    tracer = bus.attach(TraceSink(path=None, include_timings=False))
    server = SimulatedWebDatabase(table)
    if flaky:
        server = FlakyServer(server, failure_rate=0.1, seed=SEED)
        engine_kwargs.update(
            max_retries=3, backoff=ExponentialBackoff.charging(10.0)
        )
    engine = CrawlerEngine(
        server, POLICIES[policy](), seed=SEED, bus=bus, **engine_kwargs
    )
    seeds = sample_seed_values(table, 1, random.Random(SEED), min_frequency=2)
    result = engine.crawl(seeds, target_coverage=0.9)
    spans = [json.loads(line) for line in tracer.collected]
    return server, engine, result, telemetry, spans


@pytest.mark.parametrize("flaky", [False, True], ids=["plain", "flaky"])
@pytest.mark.parametrize("policy", ["greedy-link", "greedy-mmmi"])
def test_trace_registry_and_result_conserve_rounds_and_records(
    small_ebay, policy, flaky
):
    server, engine, result, telemetry, spans = _crawl(small_ebay, policy, flaky)
    label = result.policy
    roots = [span for span in spans if span["parent"] is None]
    fetches = [span for span in spans if span["name"] == "fetch"]

    rounds = server.rounds
    assert rounds > 0
    assert telemetry.rounds_gauge.value() == rounds
    assert result.communication_rounds == rounds
    assert sum(root["attrs"].get("rounds", 0) for root in roots) == rounds

    pages = telemetry.pages_fetched.value(policy=label)
    assert len(fetches) == pages
    assert sum(root["attrs"].get("pages", 0) for root in roots) == pages

    new = telemetry.records_new.value(policy=label)
    duplicate = telemetry.records_duplicate.value(policy=label)
    assert new + duplicate == sum(span["attrs"]["records"] for span in fetches)
    assert new == len(engine.local_db) == result.records_harvested

    retries = telemetry.retries.value(policy=label)
    backoff = telemetry.backoff_rounds.value(policy=label)
    # A query whose retries run out pays its last failed attempt too.
    failed = telemetry.queries_failed.value(policy=label)
    if flaky:
        assert retries > 0 and backoff > 0
        assert rounds == pages + retries + backoff + failed
    else:
        assert retries == backoff == failed == 0
        assert rounds == pages


def _pages_owed(outcome, page_size):
    return math.ceil(outcome.accessible_matches / page_size)


@pytest.mark.parametrize("policy", ["greedy-link", "greedy-mmmi"])
def test_each_finished_query_pays_one_round_per_result_page(small_ebay, policy):
    server, _, result, _, _ = _crawl(
        small_ebay, policy, flaky=False, keep_outcomes=True
    )
    finished = [o for o in result.outcomes if not (o.aborted or o.failed)]
    assert len(finished) == len(result.outcomes) > 0
    for outcome in finished:
        assert outcome.pages_fetched == _pages_owed(outcome, server.page_size)
    assert sum(o.pages_fetched for o in result.outcomes) == server.rounds


def test_page_cap_aborts_pay_fewer_pages(small_ebay):
    server, _, result, _, _ = _crawl(
        small_ebay,
        "greedy-link",
        flaky=False,
        keep_outcomes=True,
        abortion=PageCapAbort(max_pages=2),
    )
    aborted = [o for o in result.outcomes if o.aborted]
    assert aborted
    for outcome in result.outcomes:
        owed = _pages_owed(outcome, server.page_size)
        if outcome.aborted:
            assert outcome.pages_fetched == 2 < owed
        else:
            assert outcome.pages_fetched == owed <= 2
    assert sum(o.pages_fetched for o in result.outcomes) == server.rounds
