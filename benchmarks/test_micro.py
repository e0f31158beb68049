"""Micro-benchmarks of the performance-critical substrate operations.

Unlike the experiment benches (one-shot ``pedantic`` runs of a whole
figure), these use pytest-benchmark's statistical timing over many
rounds: they guard the hot paths every crawl exercises thousands of
times — table lookups, local-database ingestion, frontier operations,
graph construction, and Zipf sampling.
"""

import random
from collections import Counter

import pytest

from repro.core import Query
from repro.crawler import LocalDatabase, PriorityFrontier
from repro.datasets import ZipfSampler, generate_ebay, load_dataset
from repro.graph import build_avg_from_table, greedy_weighted_dominating_set


@pytest.fixture(scope="module")
def table():
    return generate_ebay(3000, seed=1)


def test_bench_equality_match(benchmark, table):
    values = table.distinct_values("seller")[:100]
    queries = [Query.equality(v.attribute, v.value) for v in values]

    def lookup():
        return sum(len(table.match(query)) for query in queries)

    total = benchmark(lookup)
    assert total > 0


def test_bench_keyword_match(benchmark, table):
    """match_keyword now returns a pre-sorted copy — no per-call sort."""
    values = [v.value for v in table.distinct_values("seller")[:100]]

    def lookup():
        return sum(len(table.match_keyword(value)) for value in values)

    assert benchmark(lookup) > 0


def test_bench_match_under_churn(benchmark):
    """Interleaved inserts and matches — the posting-sort hot path.

    Before the sorted-at-insert fix every match paid an O(n log n)
    sort of the full posting list; now inserts keep lists ordered
    (O(1) append for the common ascending-id case) and matches copy.
    """
    from repro.core import Record, RelationalTable, Schema

    schema = Schema.of("category", "seller")
    rows = [
        (record_id, f"cat{record_id % 5}", f"s{record_id % 37}")
        for record_id in range(2000)
    ]

    def churn():
        table = RelationalTable(schema)
        matched = 0
        for record_id, category, seller in rows:
            table.insert(
                Record.build(record_id, schema, category=category, seller=seller)
            )
            if record_id % 20 == 0:
                matched += len(table.match_equality("category", category))
        return matched

    assert benchmark(churn) > 0


def test_bench_localdb_ingest(benchmark, table):
    """Ingest, then build the co-occurrence rows MMMI reads.

    MMMI reads the rows of the issued queries, and a crawl issues the
    most frequent values first; the 25 most frequent stand in for them.
    """
    records = list(table)[:1000]
    counts = Counter(value for record in records for value in record)
    issued = [value for value, _count in counts.most_common(25)]

    def ingest():
        local = LocalDatabase()
        local.add_all(records)
        rows = [local.cooc_row(local.value_id(value)) for value in issued]
        return len(local), sum(map(len, rows))

    size, partners = benchmark(ingest)
    assert size == 1000 and partners > 0


def test_bench_priority_frontier(benchmark):
    rng = random.Random(0)
    from repro.core import AttributeValue

    values = [AttributeValue("a", f"v{i}") for i in range(2000)]
    scores = {value: rng.random() for value in values}

    def churn():
        frontier = PriorityFrontier(lambda v: scores[v])
        frontier.push_all(values)
        popped = 0
        while frontier.pop() is not None:
            popped += 1
        return popped

    assert benchmark(churn) == 2000


def test_bench_avg_construction(benchmark, table):
    graph = benchmark(lambda: build_avg_from_table(table, queriable_only=True))
    assert graph.number_of_nodes() > 0


def test_bench_greedy_dominating_set(benchmark):
    table = load_dataset("dblp", 1200, seed=3)
    graph = build_avg_from_table(table, queriable_only=True)

    chosen = benchmark.pedantic(
        lambda: greedy_weighted_dominating_set(graph, weight="weight"),
        rounds=3,
        iterations=1,
    )
    assert len(chosen) > 0


def test_bench_zipf_sampling(benchmark):
    sampler = ZipfSampler(100_000, 1.1)
    rng = random.Random(7)

    def draw():
        return sum(sampler.sample(rng) for _ in range(10_000))

    assert benchmark(draw) >= 0


def test_bench_end_to_end_crawl(benchmark, table):
    """A whole GL crawl to 80% — the library's composite hot path."""
    from repro.crawler import CrawlerEngine
    from repro.policies import GreedyLinkSelector
    from repro.server import SimulatedWebDatabase

    seed_value = next(
        v for v in table.distinct_values("seller") if table.frequency(v) >= 3
    )

    def crawl():
        server = SimulatedWebDatabase(table, page_size=10)
        engine = CrawlerEngine(server, GreedyLinkSelector(), seed=1)
        return engine.crawl([seed_value], target_coverage=0.8)

    result = benchmark.pedantic(crawl, rounds=3, iterations=1)
    assert result.coverage >= 0.8
