"""Telemetry end to end: engines, the durable runtime, the grid runner."""

import pytest

from repro.crawler.engine import CrawlerEngine
from repro.experiments.harness import run_policy_suite, sample_seed_values
from repro.metrics import MetricsRegistry, TelemetrySink, prometheus_text
from repro.policies import BreadthFirstSelector, GreedyLinkSelector
from repro.runtime.crawler import RuntimeCrawler
from repro.runtime.events import EventBus
from repro.server import SimulatedWebDatabase

import random


def seeded_crawl(table, bus=None, seed=7, **crawl_kwargs):
    server = SimulatedWebDatabase(table, page_size=10)
    engine = CrawlerEngine(server, GreedyLinkSelector(), seed=seed, bus=bus)
    seeds = sample_seed_values(table, 1, random.Random(seed), min_frequency=2)
    result = engine.crawl(seeds, **crawl_kwargs)
    return server, result


class TestEngineTelemetry:
    def test_registry_matches_crawl_result(self, small_ebay):
        bus = EventBus()
        sink = bus.attach(TelemetrySink(truth_size=len(small_ebay)))
        server, result = seeded_crawl(small_ebay, bus=bus, max_rounds=80)
        sink.sample_server(server)
        policy = result.policy
        assert sink.queries_issued.value(policy=policy) == result.queries_issued
        assert sink.records_new.value(policy=policy) == result.records_harvested
        assert sink.rounds_gauge.value() == result.communication_rounds
        assert sink.coverage.value() == pytest.approx(result.coverage)
        assert (
            sink.stops.value(policy=policy, stopped_by=result.stopped_by) == 1
        )
        assert sink.pages_per_query.count(policy=policy) == result.queries_issued

    def test_instrumentation_does_not_change_the_crawl(self, small_ebay):
        bus = EventBus()
        bus.attach(TelemetrySink())
        _, instrumented = seeded_crawl(small_ebay, bus=bus, max_rounds=60)
        _, bare = seeded_crawl(small_ebay, bus=None, max_rounds=60)
        assert instrumented.records_harvested == bare.records_harvested
        assert instrumented.communication_rounds == bare.communication_rounds
        assert instrumented.history.final_rounds == bare.history.final_rounds
        assert instrumented.history.final_records == bare.history.final_records


class TestCheckpointContinuity:
    def test_resumed_crawl_reports_continuous_totals(self, small_ebay, tmp_path):
        seed = 11
        server = SimulatedWebDatabase(small_ebay, page_size=10)
        telemetry = TelemetrySink(truth_size=len(small_ebay))
        engine = CrawlerEngine(
            server, BreadthFirstSelector(), seed=seed, bus=EventBus()
        )
        runtime = RuntimeCrawler(
            engine, checkpoint_dir=tmp_path, telemetry=telemetry
        )
        seeds = sample_seed_values(
            small_ebay, 1, random.Random(seed), min_frequency=2
        )
        first = runtime.crawl(seeds, max_rounds=120, stop_after_steps=8)
        runtime.close()
        assert first.stopped_by == "suspended"
        queries_before = telemetry.queries_issued.value(policy=first.policy)
        assert queries_before == 8

        resumed_telemetry = TelemetrySink(truth_size=len(small_ebay))
        resumed = RuntimeCrawler.resume(
            tmp_path,
            SimulatedWebDatabase(small_ebay, page_size=10),
            BreadthFirstSelector(),
            bus=EventBus(),
            telemetry=resumed_telemetry,
        )
        final = resumed.run()
        resumed.close()
        # Continuous totals: the resumed registry starts from the
        # suspension snapshot, not from zero.
        assert (
            resumed_telemetry.queries_issued.value(policy=final.policy)
            == final.queries_issued
        )
        assert (
            resumed_telemetry.records_new.value(policy=final.policy)
            == final.records_harvested
        )
        assert final.queries_issued > queries_before

    def test_suspend_resume_registry_equals_uninterrupted(
        self, small_ebay, tmp_path
    ):
        """Greedy-link split by a suspension ends with the uninterrupted
        crawl's frontier counters and crawl totals, and counts every
        checkpoint both runs wrote (the suspension snapshot included)."""
        seed = 11
        seeds = sample_seed_values(
            small_ebay, 1, random.Random(seed), min_frequency=2
        )

        def durable(directory, telemetry, stop_after_steps=None):
            selector = GreedyLinkSelector()
            engine = CrawlerEngine(
                SimulatedWebDatabase(small_ebay, page_size=10),
                selector,
                seed=seed,
                bus=EventBus(),
            )
            runtime = RuntimeCrawler(
                engine,
                checkpoint_dir=directory,
                checkpoint_every=10,
                telemetry=telemetry,
            )
            runtime.crawl(
                seeds, target_coverage=0.9, stop_after_steps=stop_after_steps
            )
            runtime.close()
            telemetry.sample_selector(selector)  # as the CLI does at exit
            return runtime.checkpoints_written

        straight = TelemetrySink(track_wall_time=False)
        durable(tmp_path / "straight", straight)

        first = TelemetrySink(track_wall_time=False)
        written = durable(tmp_path / "split", first, stop_after_steps=25)
        resumed_telemetry = TelemetrySink(track_wall_time=False)
        selector = GreedyLinkSelector()
        resumed = RuntimeCrawler.resume(
            tmp_path / "split",
            SimulatedWebDatabase(small_ebay, page_size=10),
            selector,
            bus=EventBus(),
            telemetry=resumed_telemetry,
        )
        final = resumed.run()
        resumed.close()
        resumed_telemetry.sample_selector(selector)
        written += resumed.checkpoints_written

        policy = final.policy
        for name in (
            "frontier_rescored",
            "frontier_dirty",
            "queries_completed",
            "pages_fetched",
            "records_new",
        ):
            expected = getattr(straight, name).value(policy=policy)
            assert expected > 0, name
            assert getattr(resumed_telemetry, name).value(policy=policy) == (
                expected
            ), name
        checkpoints = resumed_telemetry.checkpoints.series()
        assert sum(value for _, value in checkpoints) == written

    def test_checkpoint_without_metrics_still_resumes(self, small_ebay, tmp_path):
        seed = 11
        engine = CrawlerEngine(
            SimulatedWebDatabase(small_ebay, page_size=10),
            BreadthFirstSelector(),
            seed=seed,
        )
        runtime = RuntimeCrawler(engine, checkpoint_dir=tmp_path)
        seeds = sample_seed_values(
            small_ebay, 1, random.Random(seed), min_frequency=2
        )
        runtime.crawl(seeds, max_rounds=60, stop_after_steps=4)
        runtime.close()
        telemetry = TelemetrySink()  # checkpoint carries no metrics
        resumed = RuntimeCrawler.resume(
            tmp_path,
            SimulatedWebDatabase(small_ebay, page_size=10),
            BreadthFirstSelector(),
            telemetry=telemetry,
        )
        result = resumed.run(max_rounds=80)
        resumed.close()
        assert result.communication_rounds <= 80
        # Counters cover only the post-resume run, but exist and move.
        assert telemetry.queries_issued.value(policy=result.policy) > 0


class TestParallelMerge:
    def test_parallel_merge_identical_to_sequential(self, small_ebay):
        policies = {
            "bfs": BreadthFirstSelector,
            "greedy-link": GreedyLinkSelector,
        }

        def run(workers):
            registry = MetricsRegistry()
            runs = run_policy_suite(
                small_ebay,
                policies,
                n_seeds=2,
                rng_seed=5,
                workers=workers,
                metrics=registry,
                max_rounds=40,
            )
            return runs, registry

        runs_seq, reg_seq = run(1)
        runs_par, reg_par = run(3)
        assert reg_seq.state_dict() == reg_par.state_dict()
        assert prometheus_text(reg_seq) == prometheus_text(reg_par)
        for label, run_seq in runs_seq.items():
            seq = [r.records_harvested for r in run_seq.results]
            par = [r.records_harvested for r in runs_par[label].results]
            assert seq == par
        # The merged registry actually saw every task's pages.
        pages = reg_seq.get("crawl_pages_fetched_total")
        assert pages is not None and pages.total > 0
        # Worker-side wall-time tracking is off, keeping merges stable.
        assert reg_seq.get("crawl_step_seconds").count(policy="bfs") == 0

    def test_metrics_off_by_default(self, small_ebay):
        runs = run_policy_suite(
            small_ebay,
            {"bfs": BreadthFirstSelector},
            n_seeds=1,
            rng_seed=5,
            workers=1,
            max_rounds=20,
        )
        assert "bfs" in runs  # no registry, no error
