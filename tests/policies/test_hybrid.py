"""Unit tests for the GL→MMMI hybrid and saturation detection."""

import pytest

from repro.core import CrawlError, Query
from repro.crawler import CrawlerEngine, QueryOutcome
from repro.policies import GreedyMmmiSelector, SaturationDetector
from repro.server import SimulatedWebDatabase


def outcome(new, pages=1):
    result = QueryOutcome(query=Query.keyword("x"))
    result.pages_fetched = pages
    result.new_records = [object()] * new  # only the count matters
    return result


class TestSaturationDetector:
    def test_needs_full_window(self):
        detector = SaturationDetector(window=3, min_harvest_rate=1.0)
        detector.observe(outcome(0))
        detector.observe(outcome(0))
        assert not detector.saturated
        detector.observe(outcome(0))
        assert detector.saturated

    def test_high_rates_not_saturated(self):
        detector = SaturationDetector(window=2, min_harvest_rate=1.0)
        detector.observe(outcome(5))
        detector.observe(outcome(5))
        assert not detector.saturated

    def test_sliding_window_forgets(self):
        detector = SaturationDetector(window=2, min_harvest_rate=1.0)
        detector.observe(outcome(0))
        detector.observe(outcome(0))
        assert detector.saturated
        detector.observe(outcome(10))
        detector.observe(outcome(10))
        assert not detector.saturated

    def test_bad_window(self):
        with pytest.raises(CrawlError):
            SaturationDetector(window=0)


class TestHybridConstruction:
    def test_needs_some_trigger(self):
        with pytest.raises(CrawlError):
            GreedyMmmiSelector(switch_coverage=None, detector=None)

    def test_default_detectors_not_shared(self):
        a = GreedyMmmiSelector()
        b = GreedyMmmiSelector()
        assert a.detector is not b.detector

    def test_name(self):
        assert GreedyMmmiSelector().name == "greedy-link+mmmi"


class TestSwitching:
    def test_oracle_switch_fires(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        selector = GreedyMmmiSelector(switch_coverage=0.5, detector=None)
        engine = CrawlerEngine(server, selector, seed=0)
        engine.crawl([("publisher", "orbit")])
        assert selector.switched

    def test_no_switch_below_threshold(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        selector = GreedyMmmiSelector(switch_coverage=0.99, detector=None)
        engine = CrawlerEngine(server, selector, seed=0)
        engine.crawl([("publisher", "orbit")], max_queries=2)
        assert not selector.switched

    def test_detector_switch_without_oracle(self, books):
        # Harvest-rate trigger alone: window 1 with an unreachable rate
        # threshold saturates after the first query.
        selector = GreedyMmmiSelector(
            switch_coverage=None,
            detector=SaturationDetector(window=1, min_harvest_rate=10**6),
        )
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(server, selector, seed=0)
        engine.crawl([("publisher", "orbit")], max_queries=3)
        assert selector.switched

    def test_full_crawl_same_reachable_set_as_gl(self, books):
        from repro.policies import GreedyLinkSelector

        def harvest(selector):
            server = SimulatedWebDatabase(books, page_size=2)
            engine = CrawlerEngine(server, selector, seed=0)
            result = engine.crawl([("publisher", "orbit")])
            return result.records_harvested

        assert harvest(GreedyMmmiSelector(switch_coverage=0.5, detector=None)) == (
            harvest(GreedyLinkSelector())
        )


class TestIdPath:
    def test_decomposed_candidates_never_take_the_value_path(self, small_ebay):
        """Both phases receive harvested candidates by interned id.

        Only the seeds may arrive through the value-keyed
        ``add_candidate``; everything decomposed from a result page must
        reach ``add_candidate_id`` on the greedy and the MMMI phase.
        """
        selector = GreedyMmmiSelector(switch_coverage=0.3, detector=None)
        value_adds = []
        id_adds = {"greedy": 0, "mmmi": 0}
        for part in (selector, selector._greedy, selector._mmmi):
            def value_spy(value, _original=part.add_candidate):
                value_adds.append(value)
                _original(value)

            part.add_candidate = value_spy
        for name in id_adds:
            part = getattr(selector, f"_{name}")

            def id_spy(vid, value, _original=part.add_candidate_id, _name=name):
                id_adds[_name] += 1
                _original(vid, value)

            part.add_candidate_id = id_spy
        server = SimulatedWebDatabase(small_ebay, page_size=10)
        engine = CrawlerEngine(server, selector, seed=0)
        seed = next(
            value
            for value in small_ebay.distinct_values("seller")
            if small_ebay.frequency(value) >= 3
        )
        result = engine.crawl([seed], max_queries=80)
        assert selector.switched
        assert result.queries_issued == 80
        assert set(value_adds) == {seed}
        assert id_adds["greedy"] == id_adds["mmmi"] > 0
