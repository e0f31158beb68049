"""Shared-memory grid identity: parallel + shm equals sequential + copy.

The CI smoke leg for the shared-memory payload path: a (GL, MMMI) x
seed-set grid fanned out over two workers attaching one shared-memory
table block must produce byte-identical results to the sequential
legacy path crawling the in-process table — same query sequences, same
harvested records, same history curves — while actually accounting the
shared block's bytes through the metrics registry.
"""

from __future__ import annotations

from conftest import scaled
from repro.core import shmtable
from repro.datasets.ebay import generate_ebay
from repro.experiments.harness import run_policy_suite
from repro.metrics.registry import MetricsRegistry
from repro.policies import GreedyLinkSelector, MinMaxMutualInformationSelector

POLICIES = {
    "greedy-link": GreedyLinkSelector,
    "mmmi": MinMaxMutualInformationSelector,
}


def run_suite(table, workers, share_table, metrics=None):
    return run_policy_suite(
        table,
        POLICIES,
        n_seeds=2,
        rng_seed=5,
        workers=workers,
        metrics=metrics,
        share_table=share_table,
        max_queries=40,
    )


def test_shm_grid_matches_sequential_plain():
    table = generate_ebay(n_records=scaled(1200, minimum=300), seed=13)
    metrics = MetricsRegistry()

    sequential = run_suite(table, workers=1, share_table=False)
    parallel = run_suite(table, workers=2, share_table=True, metrics=metrics)

    assert sorted(parallel) == sorted(sequential)
    for policy in sequential:
        reference, shared = sequential[policy], parallel[policy]
        assert len(shared.results) == len(reference.results)
        for ref, got in zip(reference.results, shared.results):
            assert got.queries_issued == ref.queries_issued
            assert got.records_harvested == ref.records_harvested
            assert got.history == ref.history
            assert got == ref  # the full CrawlResult, field for field

    shm_bytes = metrics.gauge(
        "grid_shm_bytes",
        "Bytes of shared-memory table payloads backing experiment grids",
    ).value()
    assert shm_bytes > 0

    # The block must not outlive the grid (cleanup ran in the harness).
    from multiprocessing import shared_memory

    leaked = [
        name
        for name in getattr(shmtable, "_CREATED", {})
        if _still_exists(shared_memory, name)
    ]
    assert leaked == []


def _still_exists(shared_memory, name) -> bool:
    try:
        block = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    block.close()
    return True
