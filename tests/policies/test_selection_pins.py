"""Selection pins: each scoring policy issues exactly these crawls.

One crawl per policy configuration on a 3,000-record ebay source (table
seed 1, engine seed 7, the first seller value as the seed, stopped at
95% coverage).  A pin is the tuple ``(queries, rounds, records,
sha256 of the issued query sequence, sha256 of the coverage history)``.
The literals were recorded while the value-keyed reference scoring path
still existed and agreed with the interned one, so any drift in the
interned/numpy path — pop order, tie-breaks, rescore timing — shows up
here as a changed digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.crawler import CrawlerEngine
from repro.datasets import generate_ebay
from repro.policies import (
    AdaptiveAttributeSelector,
    GreedyFrequencySelector,
    GreedyLinkSelector,
    MinMaxMutualInformationSelector,
)
from repro.server import QueryInterface, SimulatedWebDatabase

RECORDS = 3000
TABLE_SEED = 1
ENGINE_SEED = 7
TARGET_COVERAGE = 0.95
PAGE_SIZE = 10

FACTORIES = {
    "greedy-link": GreedyLinkSelector,
    "greedy-frequency": GreedyFrequencySelector,
    "mmmi": MinMaxMutualInformationSelector,
    "adaptive-eps0": lambda: AdaptiveAttributeSelector(epsilon=0.0),
    "adaptive-eps0.3": lambda: AdaptiveAttributeSelector(epsilon=0.3),
}

PINS = {
    "adaptive-eps0": (
        412, 742, 2852,
        "f50b41d2ac273b36786f53a9bf4506af0cf1c08ffd8fed766decd5ca9772bf8a",
        "7078e44bf3d1edb34b7e1ffb09e7d247ab68c5f85f7e2e7530219754eb4c6d5a",
    ),
    "adaptive-eps0.3": (
        316, 838, 2850,
        "728549f11532cd7809c07446848bff1fa8526cd81a57b39357eb4aadaaff2696",
        "7094dd0d17f7ae16f639b8ec7835c03571baadc243b33962b76f28fea5bc1253",
    ),
    "greedy-frequency": (
        237, 855, 2850,
        "e8eff2522050592430ab959eaf8064310d7e6e79bd5faa68546c00e7d7a8cbdc",
        "3998bddd3e495b0e0b435df416e84f84dadba7b08fd528f6970a570d6898bb2a",
    ),
    "greedy-link": (
        222, 829, 2854,
        "02a57d65f4070ecfc630710ad87acaec77723d7a48569cde24d1093aa795009d",
        "ed4eff37b22c9a7455dc9f9221d363879ca7ad370ec78aff07d69dfecb0491f1",
    ),
    "mmmi": (
        176, 716, 2851,
        "bbea0b7920f405bd96e84be45cb1a623dc792ba65f035836f25092ac85f1a136",
        "be0f391704719a4a7c77bcc4b19fd93afea5c354dd2589cb811a6fb1fef5de16",
    ),
}


@pytest.fixture(scope="module")
def ebay_3k():
    return generate_ebay(RECORDS, seed=TABLE_SEED)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def crawl_pin(table, selector) -> tuple:
    interface = QueryInterface(
        queriable_attributes=frozenset(
            a.name for a in table.schema.attributes if a.name != "title"
        )
    )
    server = SimulatedWebDatabase(table=table, interface=interface, page_size=PAGE_SIZE)
    engine = CrawlerEngine(server, selector, seed=ENGINE_SEED)
    seed_value = next(iter(table.distinct_values("seller")))
    result = engine.crawl([seed_value], target_coverage=TARGET_COVERAGE)
    return (
        result.queries_issued,
        result.communication_rounds,
        result.records_harvested,
        digest(f"{q.attribute}\t{q.value}" for q in engine.context.lqueried),
        digest(f"{p.rounds},{p.records}" for p in result.history.points),
    )


@pytest.mark.parametrize("config", sorted(FACTORIES))
def test_selection_matches_pin(ebay_3k, config):
    assert crawl_pin(ebay_3k, FACTORIES[config]()) == PINS[config]
