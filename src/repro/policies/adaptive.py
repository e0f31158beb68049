"""Adaptive per-attribute query selection (beyond the paper).

The paper's GL treats every queriable attribute alike, yet attributes
differ systematically in productivity: venue values in DBLP retrieve
pages of records, title values retrieve one.  Related work on keyword
selection (Ntoulas et al. [21]) adapts to such statistics online; this
selector brings that idea to the structured setting as a small bandit:

- one degree-ranked frontier per queriable attribute (the *value*
  choice stays GL, on GL's interned frontier),
- a running per-attribute harvest-rate estimate (new records per page),
- epsilon-greedy *attribute* choice: explore a random attribute with
  probability ``epsilon``, otherwise exploit the best observed rate.

Attributes start optimistic (rate = page size) so each gets tried
before the bandit settles.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.errors import CrawlError
from repro.core.values import AttributeValue
from repro.crawler.frontier import InternedPriorityFrontier
from repro.crawler.prober import QueryOutcome
from repro.policies.base import QuerySelector
from repro.policies.greedy import GreedyLinkSelector


class _AttributeStats:
    """Running harvest statistics for one attribute."""

    __slots__ = ("pages", "new_records")

    def __init__(self) -> None:
        self.pages = 0
        self.new_records = 0

    def rate(self, optimistic: float) -> float:
        if self.pages == 0:
            return optimistic
        return self.new_records / self.pages


class AdaptiveAttributeSelector(QuerySelector):
    """Epsilon-greedy attribute bandit over degree-ranked value frontiers.

    Parameters
    ----------
    epsilon:
        Exploration probability for the attribute choice.
    """

    def __init__(self, epsilon: float = 0.1) -> None:
        super().__init__()
        if not 0.0 <= epsilon <= 1.0:
            raise CrawlError(f"epsilon must be in [0, 1], got {epsilon}")
        self.epsilon = epsilon
        self._frontiers: Dict[str, InternedPriorityFrontier] = {}
        self._stats: Dict[str, _AttributeStats] = {}
        # Builds each attribute's frontier exactly as GL builds its own.
        self._ranking = GreedyLinkSelector()

    @property
    def name(self) -> str:
        return "adaptive-attribute"

    def attribute_rates(self) -> Dict[str, float]:
        """Observed harvest rate per attribute (diagnostics/reporting)."""
        context = self._require_context()
        optimistic = float(context.page_size)
        return {
            attribute: stats.rate(optimistic)
            for attribute, stats in self._stats.items()
        }

    # ------------------------------------------------------------------
    def _frontier_for(self, attribute: str) -> InternedPriorityFrontier:
        frontier = self._frontiers.get(attribute)
        if frontier is None:
            local = self._require_context().local_db
            frontier = self._ranking.make_frontier(local)
            self._frontiers[attribute] = frontier
            self._stats[attribute] = _AttributeStats()
        return frontier

    def add_candidate(self, value: AttributeValue) -> None:
        self._require_context()
        self._frontier_for(value.attribute).push(value)

    def add_candidate_id(self, vid: int, value: AttributeValue) -> None:
        self._require_context()
        self._frontier_for(value.attribute).push_id(vid)

    def next_query(self) -> Optional[AttributeValue]:
        context = self._require_context()
        nonempty = [a for a, frontier in self._frontiers.items() if frontier]
        if not nonempty:
            return None
        if len(nonempty) > 1 and context.rng.random() < self.epsilon:
            attribute = nonempty[context.rng.randrange(len(nonempty))]
        else:
            optimistic = float(context.page_size)
            attribute = max(
                nonempty, key=lambda a: (self._stats[a].rate(optimistic), a)
            )
        return self._frontiers[attribute].pop()

    def observe_outcome(self, outcome: QueryOutcome) -> None:
        attribute = getattr(outcome.query, "attribute", None)
        if attribute is not None and attribute in self._stats:
            stats = self._stats[attribute]
            stats.pages += outcome.pages_fetched
            stats.new_records += len(outcome.new_records)
        frontiers = self._frontiers
        touched = set()
        values = outcome.candidate_values
        candidate_ids = outcome.candidate_ids
        if candidate_ids is not None:
            for vid, value in zip(candidate_ids, values):
                attribute = value.attribute
                if attribute in frontiers:
                    frontiers[attribute].refresh_id(vid)
                    touched.add(attribute)
        else:
            # Replayed outcomes carry values only (ids are never journaled).
            for value in values:
                attribute = value.attribute
                if attribute in frontiers:
                    frontiers[attribute].refresh(value)
                    touched.add(attribute)
        # Drain now, not at the next pop: the next step may pop another
        # attribute and then push into this one, and a push between a
        # refresh and its drain would reorder ticks (see
        # InternedPriorityFrontier).
        for attribute in touched:
            frontiers[attribute].flush()

    # ------------------------------------------------------------------
    # Checkpoint state (see repro.runtime)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        # Attribute order is load-bearing: exploration draws an index
        # into the nonempty-attribute list, which iterates the frontier
        # dict in insertion order — so serialize it in that order.
        return {
            "attributes": [
                [
                    attribute,
                    self._frontiers[attribute].state_dict(),
                    {
                        "pages": self._stats[attribute].pages,
                        "new_records": self._stats[attribute].new_records,
                    },
                ]
                for attribute in self._frontiers
            ]
        }

    def load_state(self, state: dict) -> None:
        self._frontiers = {}
        self._stats = {}
        for attribute, frontier_state, stats_state in state["attributes"]:
            frontier = self._frontier_for(attribute)
            frontier.load_state(frontier_state)
            stats = self._stats[attribute]
            stats.pages = stats_state["pages"]
            stats.new_records = stats_state["new_records"]

    def pending_count(self) -> int:
        return sum(len(frontier) for frontier in self._frontiers.values())
