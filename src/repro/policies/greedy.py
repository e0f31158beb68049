"""Greedy relational-link-based selection — GL (Section 3.2).

Motivated by the power-law degree distribution of real attribute-value
graphs, GL estimates a candidate's harvest rate as proportional to its
degree in the local graph ``G_local`` and always visits the
highest-degree frontier value: hub values link to a large share of the
database and uncover its "dense portion" quickly.

The implementation leans on :class:`InternedPriorityFrontier`'s lazy
re-scoring, which is exact here because a value's local degree only
grows as records arrive.

A frequency-scored variant (:class:`GreedyFrequencySelector`) is
included for the ablation benches: it ranks by ``num(q, DB_local)``
(popularity in records) instead of graph degree.  On single-valued
schemas the two signals correlate strongly; multi-valued attributes
pull them apart.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.values import AttributeValue
from repro.crawler.context import CrawlerContext
from repro.crawler.frontier import InternedPriorityFrontier
from repro.crawler.prober import QueryOutcome
from repro.policies import vectorized
from repro.policies.base import QuerySelector


class _PrioritySelector(QuerySelector):
    """Shared plumbing for score-maximizing selectors.

    Every query's results change the scores of the values they contain,
    so ``observe_outcome`` refreshes exactly those frontier entries —
    marking them dirty for the frontier's next-pop batch rescore —
    keeping the priority frontier's view of ``G_local`` current without
    rescoring the whole frontier.

    The frontier runs on the local database's dense int ids; a flush
    hands its whole dirty set to one numpy batch scorer over the live
    statistic column (:mod:`repro.policies.vectorized`).

    Parameters
    ----------
    full_rescore_every:
        Forwarded to :class:`InternedPriorityFrontier` — rescore the
        whole pending set every Nth flush (0 = never; the differential
        tests pin ``1`` against the default).
    rescore_head:
        Forwarded stale-head correction bound per flush.
    """

    def __init__(self, full_rescore_every: int = 0, rescore_head: int = 8) -> None:
        super().__init__()
        self.full_rescore_every = full_rescore_every
        self.rescore_head = rescore_head

    def _score_id_fn(self, local):
        """Id-indexed score function over the local database."""
        raise NotImplementedError

    def _batch_score_fn(self, local):
        """Numpy batch scorer over the database's statistic column."""
        raise NotImplementedError

    def make_frontier(self, local) -> InternedPriorityFrontier:
        """A frontier over ``local``'s ids ranked by this selector's score."""
        return InternedPriorityFrontier(
            self._score_id_fn(local),
            local.intern_value,
            local.value_id,
            local.interner.value,
            batch_score_fn=self._batch_score_fn(local),
            full_rescore_every=self.full_rescore_every,
            rescore_head=self.rescore_head,
        )

    def bind(self, context: CrawlerContext) -> None:
        super().bind(context)
        self._frontier = self.make_frontier(context.local_db)

    def add_candidate(self, value: AttributeValue) -> None:
        self._require_context()
        self._frontier.push(value)

    def add_candidate_id(self, vid: int, value: AttributeValue) -> None:
        self._require_context()
        self._frontier.push_id(vid)

    def next_query(self) -> Optional[AttributeValue]:
        self._require_context()
        return self._frontier.pop()

    def observe_outcome(self, outcome: QueryOutcome) -> None:
        emit = self._trace_emit
        if emit is not None:
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
        frontier = self._frontier
        candidate_ids = outcome.candidate_ids
        if candidate_ids is not None:
            refreshed = len(candidate_ids)
            refresh_id = frontier.refresh_id
            for vid in candidate_ids:
                refresh_id(vid)
        else:
            # Replayed outcomes carry values only (ids are never journaled).
            refreshed = len(outcome.candidate_values)
            frontier.refresh_all(outcome.candidate_values)
        if emit is not None:
            emit(
                "frontier-refresh",
                time.perf_counter() - wall0,
                time.process_time() - cpu0,
                {"refreshed": refreshed},
            )

    def state_dict(self) -> dict:
        return {"frontier": self._frontier.state_dict()}

    def load_state(self, state: dict) -> None:
        self._frontier.load_state(state["frontier"])

    def pending_count(self) -> int:
        return len(self._frontier)

    def frontier_stats(self) -> Optional[dict]:
        return {"pending": len(self._frontier), **self._frontier.stats}


class GreedyLinkSelector(_PrioritySelector):
    """Pick the frontier value with the greatest degree in ``G_local``."""

    @property
    def name(self) -> str:
        return "greedy-link"

    def _score_id_fn(self, local):
        degree_id = local.degree_id
        return lambda vid: float(degree_id(vid))

    def _batch_score_fn(self, local):
        return vectorized.degree_batch_scorer(local)


class GreedyFrequencySelector(_PrioritySelector):
    """Ablation variant: rank candidates by local match count instead."""

    @property
    def name(self) -> str:
        return "greedy-frequency"

    def _score_id_fn(self, local):
        frequency_id = local.frequency_id
        return lambda vid: float(frequency_id(vid))

    def _batch_score_fn(self, local):
        return vectorized.frequency_batch_scorer(local)
