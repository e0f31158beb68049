"""Correctness gate: every crawl a run times must pass it, or the run fails.

Checks on any seed:

- the crawl stopped because it reached the target coverage;
- records harvested equal ``len(DB_local)``;
- page requests the source answered equal the crawl's rounds (the
  paper's cost: every page is one communication round);
- a durable crawl journaled exactly one entry per step;
- a remote crawl opened at most ``nproc`` connections and matches the
  in-process crawl of the same table and seed in rounds, queries,
  records and harvested-record digest;
- repeated crawls of one input repeat those facts exactly.

On the default seed the facts must also equal the committed
``expected.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0


def load_expected(workload: str, seed: int, records: int, default_records: int) -> Optional[Dict[str, dict]]:
    """Committed facts per instance seed, or None off the default input."""
    if seed != DEFAULT_SEED or records != default_records:
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def _diff(label: str, got: dict, want: dict) -> List[str]:
    return [
        f"{label}: {key} is {got[key]!r}, expected {want[key]!r}"
        for key in sorted(want)
        if got.get(key) != want[key]
    ]


def check_crawl(
    facts,
    target: float,
    nproc: int,
    expected: Optional[dict] = None,
    reference=None,
    first=None,
) -> List[str]:
    """All violations one crawl shows; an empty list means it passed.

    ``expected`` are committed key facts, ``reference`` the in-process
    crawl a remote crawl must match, ``first`` an earlier crawl of the
    same input that this one must repeat.
    """
    label = f"seed {facts.seed}"
    errors = []
    if facts.stopped_by != "target-coverage" or facts.coverage < target:
        errors.append(
            f"{label}: stopped by {facts.stopped_by} at coverage "
            f"{facts.coverage:.4f} (target {target})"
        )
    if facts.records != facts.local_db_size:
        errors.append(
            f"{label}: {facts.records} records reported, DB_local holds "
            f"{facts.local_db_size}"
        )
    if facts.submit_calls != facts.rounds:
        errors.append(
            f"{label}: source answered {facts.submit_calls} page requests "
            f"for {facts.rounds} rounds"
        )
    if facts.journal_entries is not None and facts.journal_entries != facts.steps:
        errors.append(
            f"{label}: {facts.journal_entries} journal entries for "
            f"{facts.steps} steps"
        )
    if facts.connections > nproc:
        errors.append(
            f"{label}: {facts.connections} connections opened, more than "
            f"nproc={nproc}"
        )
    key = facts.key_facts()
    if reference is not None:
        errors += _diff(f"{label} vs in-process crawl", key, reference.key_facts())
    if first is not None:
        errors += _diff(f"{label} vs its first crawl", key, first.key_facts())
    if expected is not None:
        errors += _diff(f"{label} vs expected.json", key, expected)
    return errors
