"""Query selection for multi-attribute-only sources (beyond the paper).

The paper's Table 1 found domains — cars, airfares, hotels — whose
forms are "highly structured and restrictive in the sense that only
multi-attribute queries are accepted", and left crawling them as future
work.  This module supplies that extension.

Under the AVG model the generalization is natural: a conjunctive query
``a = x AND b = y`` visits an *edge* (more generally, a clique) of the
attribute-value graph and retrieves every record whose clique contains
it.  Crawling a source whose interface demands ``p`` predicates is
therefore traversal over the graph's ``p``-cliques: every harvested
record reveals all of its own sub-cliques as future query candidates,
exactly as records reveal vertices in the single-attribute case.

:class:`GreedyCliqueSelector` is GL lifted one level: it scores each
candidate predicate combination by the product heuristic
``min(degree) · cooccurrence`` — popular-but-co-occurring value
combinations are likelier to match many yet-unseen records — and issues
the best one.  :class:`RandomCliqueSelector` is the naive baseline.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, List, Optional, Set, Tuple

from repro.core.errors import CrawlError
from repro.core.query import ConjunctiveQuery
from repro.core.records import Record
from repro.core.values import AttributeValue
from repro.crawler.context import CrawlerContext
from repro.crawler.frontier import PriorityFrontier
from repro.crawler.prober import QueryOutcome
from repro.policies.base import QuerySelector

Combo = Tuple[AttributeValue, ...]


def record_combinations(
    record: Record, queriable: Iterable[str], arity: int
) -> List[Combo]:
    """All size-``arity`` distinct-attribute value combinations of a record.

    These are the record's sub-cliques expressible as conjunctive
    queries on the given interface.
    """
    queriable = set(queriable)
    eligible = [
        pair for pair in record.attribute_values() if pair.attribute in queriable
    ]
    combos: List[Combo] = []
    for combo in itertools.combinations(eligible, arity):
        attributes = [pair.attribute for pair in combo]
        if len(set(attributes)) == arity:
            combos.append(tuple(sorted(combo)))
    return combos


class _CliqueSelector(QuerySelector):
    """Shared plumbing: a frontier of predicate combinations.

    Candidates enter through ``observe_outcome`` (each returned record's
    sub-cliques) and through ``add_candidate`` for seeds — a single seed
    value cannot be issued alone on a multi-attribute interface, so
    seed values are held back until records containing them arrive; the
    engine's seeds must therefore be *combinations* (pass tuples of
    ``AttributeValue`` through ``seed_combinations``) or the crawl must
    start from at least one full record's worth of values.
    """

    def __init__(self, arity: Optional[int] = None) -> None:
        super().__init__()
        if arity is not None and arity < 1:
            raise CrawlError(f"arity must be >= 1, got {arity}")
        self._requested_arity = arity
        self._seen_combos: Set[Combo] = set()
        self._pending_values: List[AttributeValue] = []

    @property
    def arity(self) -> int:
        context = self._require_context()
        if self._requested_arity is not None:
            return self._requested_arity
        return max(context.interface.min_predicates, 1)

    # ------------------------------------------------------------------
    def bind(self, context: CrawlerContext) -> None:
        super().bind(context)
        self._make_frontier()

    def _make_frontier(self) -> None:
        raise NotImplementedError

    def _push(self, combo: Combo) -> None:
        raise NotImplementedError

    def _pop(self) -> Optional[Combo]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def seed_combinations(self, combos: Iterable[Combo]) -> None:
        """Register explicit starting combinations (pre-bind not allowed)."""
        self._require_context()
        for combo in combos:
            self.offer(tuple(sorted(combo)))

    def offer(self, combo: Combo) -> None:
        if combo in self._seen_combos:
            return
        self._seen_combos.add(combo)
        self._push(combo)

    def add_candidate(self, value: AttributeValue) -> None:
        # Individual values cannot be issued on this interface; they are
        # remembered only so diagnostics can report the discovery count.
        self._pending_values.append(value)

    def observe_outcome(self, outcome: QueryOutcome) -> None:
        context = self._require_context()
        for record in outcome.new_records:
            for combo in record_combinations(
                record, context.interface.queriable_attributes, self.arity
            ):
                self.offer(combo)

    def next_query(self) -> Optional[ConjunctiveQuery]:
        combo = self._pop()
        if combo is None:
            return None
        return ConjunctiveQuery.of(*combo)

    # ------------------------------------------------------------------
    # Checkpoint state (see repro.runtime)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        from repro.runtime.serialize import encode_combo, encode_value

        return {
            "seen_combos": [
                encode_combo(combo) for combo in sorted(self._seen_combos)
            ],
            "pending_values": [encode_value(v) for v in self._pending_values],
            "container": self._container_state(),
        }

    def load_state(self, state: dict) -> None:
        from repro.runtime.serialize import decode_combo, decode_value

        self._seen_combos = {
            decode_combo(combo) for combo in state["seen_combos"]
        }
        self._pending_values = [
            decode_value(v) for v in state["pending_values"]
        ]
        self._load_container(state["container"])

    def _container_state(self):
        raise NotImplementedError

    def _load_container(self, payload) -> None:
        raise NotImplementedError


class GreedyCliqueSelector(_CliqueSelector):
    """GL generalized to conjunctive queries.

    Scores a combination by ``(min vertex degree) · (1 + local
    co-occurrence)``: the bottleneck vertex bounds how many records the
    conjunction can match, and combinations already seen together in
    several records are likelier to be a genuinely frequent pairing
    (a popular make-model, not a one-off).  Scores grow as the local
    graph grows, so the frontier is refreshed from outcomes like GL's.
    """

    @property
    def name(self) -> str:
        return "greedy-clique"

    def _score(self, combo: Combo) -> float:
        # One interner lookup per predicate, then array reads and a
        # sorted-postings intersection.
        local = self._require_context().local_db
        lookup = local.value_id
        degree_id = local.degree_id
        vids = []
        min_degree: Optional[int] = None
        for pair in combo:
            vid = lookup(pair)
            if vid is None:
                # Unseen vertex: degree 0 bottlenecks the product.
                return 0.0
            vids.append(vid)
            degree = degree_id(vid)
            if min_degree is None or degree < min_degree:
                min_degree = degree
        if not min_degree:
            return 0.0
        joint = local.conjunctive_frequency_ids(vids)
        return min_degree * (1.0 + joint)

    def _make_frontier(self) -> None:
        self._frontier = PriorityFrontier(
            lambda combo: self._score(combo)  # type: ignore[arg-type]
        )

    def _push(self, combo: Combo) -> None:
        self._frontier.push(combo)  # type: ignore[arg-type]

    def _pop(self) -> Optional[Combo]:
        return self._frontier.pop()  # type: ignore[return-value]

    def observe_outcome(self, outcome: QueryOutcome) -> None:
        super().observe_outcome(outcome)
        # Refresh combinations touched by the new records.
        context = self._require_context()
        for record in outcome.new_records:
            for combo in record_combinations(
                record, context.interface.queriable_attributes, self.arity
            ):
                self._frontier.refresh(combo)  # type: ignore[arg-type]

    def _container_state(self):
        from repro.runtime.serialize import encode_combo

        return {"frontier": self._frontier.state_dict(encode=encode_combo)}

    def _load_container(self, payload) -> None:
        from repro.runtime.serialize import decode_combo

        self._frontier.load_state(payload["frontier"], decode=decode_combo)

    def pending_count(self) -> int:
        return len(self._frontier)


class RandomCliqueSelector(_CliqueSelector):
    """Naive baseline: issue discovered combinations in random order."""

    @property
    def name(self) -> str:
        return "random-clique"

    def _make_frontier(self) -> None:
        self._items: List[Combo] = []
        self._rng: random.Random = self._require_context().rng

    def _push(self, combo: Combo) -> None:
        self._items.append(combo)

    def _pop(self) -> Optional[Combo]:
        if not self._items:
            return None
        index = self._rng.randrange(len(self._items))
        self._items[index], self._items[-1] = self._items[-1], self._items[index]
        return self._items.pop()

    def _container_state(self):
        from repro.runtime.serialize import encode_combo

        # Item order matters: removal draws an index (the RNG stream is
        # checkpointed by the engine), so the list is stored verbatim.
        return {"items": [encode_combo(combo) for combo in self._items]}

    def _load_container(self, payload) -> None:
        from repro.runtime.serialize import decode_combo

        self._items = [decode_combo(combo) for combo in payload["items"]]

    def pending_count(self) -> int:
        return len(self._items)
