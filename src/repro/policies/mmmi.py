"""Min-Max Mutual-Information query selection — MMMI (Section 3.3).

GL's weakness is that popularity ignores *dependency*: once one
frequent co-author is queried, the other's results are mostly
duplicates.  MMMI scores each candidate ``q_i`` by its maximum pointwise
mutual information against the already-issued queries (Definition 3.1)

    s(q_i) = max_{q_j in L_queried} ln P(q_i, q_j | DB_local)
                                     / (P(q_i|DB_local) P(q_j|DB_local))

and serves candidates in *ascending* ``s`` — penalizing values strongly
correlated with anything already asked.  ``max`` (rather than a weighted
sum) is chosen to avoid single bad decisions, echoing query-optimizer
common wisdom; a linear-weighted alternative is provided for the
ablation bench (``aggregate="mean"``).

Because recomputing dependencies after every harvested record would be
prohibitive, the paper prescribes *batch mode*: scores are recomputed
once per ``batch_size`` issued queries.  The implementation exploits the
graph structure to keep each recompute cheap: PMI is ``-inf`` unless the
pair co-occurs, so only a candidate's ``G_local`` neighbours that were
already queried can contribute to its max.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Dict, List, Optional

from repro.core.errors import CrawlError
from repro.core.values import AttributeValue
from repro.crawler.prober import QueryOutcome
from repro.policies import vectorized
from repro.policies.base import QuerySelector

AGGREGATES = ("max", "mean")


class MinMaxMutualInformationSelector(QuerySelector):
    """Dependency-aware selection for the low-marginal-benefit regime.

    Parameters
    ----------
    batch_size:
        Queries issued between dependency recomputations (paper §3.3's
        batch-mode operation).
    aggregate:
        ``"max"`` (Definition 3.1) or ``"mean"`` (the linear-weighted
        alternative the paper mentions), over the issued queries that
        co-occur with the candidate.
    tie_break_degree:
        Among equally (in)dependent candidates — in particular the many
        with no co-occurrence at all (score ``-inf``) — prefer higher
        local degree, keeping GL's productivity signal as a secondary
        key.
    """

    def __init__(
        self,
        batch_size: int = 25,
        aggregate: str = "max",
        tie_break_degree: bool = True,
        popularity_weight: float = 1.0,
    ) -> None:
        super().__init__()
        if batch_size < 1:
            raise CrawlError(f"batch_size must be >= 1, got {batch_size}")
        if aggregate not in AGGREGATES:
            raise CrawlError(f"aggregate must be one of {AGGREGATES}")
        if not 0 <= popularity_weight < math.inf:
            raise CrawlError("popularity_weight must be finite and >= 0")
        self.batch_size = batch_size
        self.aggregate = aggregate
        self.tie_break_degree = tie_break_degree
        self.popularity_weight = popularity_weight
        # Candidate values mapped to their cached interned id (None
        # until the value is first seen in a harvested record); dict
        # order is insertion order but never influences selection — the
        # recompute's final key ends on the AttributeValue itself.
        self._candidates: Dict[AttributeValue, Optional[int]] = {}
        self._ordered: List[AttributeValue] = []
        self._since_recompute = 0

    @property
    def name(self) -> str:
        return "mmmi"

    # ------------------------------------------------------------------
    def add_candidate(self, value: AttributeValue) -> None:
        context = self._require_context()
        if value in context.queried_values:
            return
        if value not in self._candidates:
            self._candidates[value] = None

    def add_candidate_id(self, vid: int, value: AttributeValue) -> None:
        """Id-accompanied add: cache the interned id for the recompute.

        The engine has already filtered already-queried ids, but the
        value guard is kept so direct callers get :meth:`add_candidate`
        semantics exactly.
        """
        context = self._require_context()
        if value in context.queried_values:
            return
        self._candidates[value] = vid

    def next_query(self) -> Optional[AttributeValue]:
        self._require_context()
        if not self._ordered or self._since_recompute >= self.batch_size:
            self._recompute()
        while self._ordered:
            value = self._ordered.pop()
            if value in self._candidates:
                del self._candidates[value]
                self._since_recompute += 1
                return value
        # The ordered list went stale and empty; one recompute may still
        # surface candidates added after the last batch boundary.
        self._recompute()
        if not self._ordered:
            return None
        value = self._ordered.pop()
        self._candidates.pop(value, None)
        self._since_recompute += 1
        return value

    def observe_outcome(self, outcome: QueryOutcome) -> None:
        # Dependency scores shift as DB_local grows; the batch counter in
        # next_query already schedules the recompute, nothing to do here.
        return

    def state_dict(self) -> dict:
        from repro.runtime.serialize import encode_value

        return {
            "candidates": [encode_value(v) for v in sorted(self._candidates)],
            "ordered": [encode_value(v) for v in self._ordered],
            "since_recompute": self._since_recompute,
        }

    def load_state(self, state: dict) -> None:
        from repro.runtime.serialize import decode_value

        # Ids are not serialized (the payload predates the cache and
        # stays schema-stable); they re-resolve at the next recompute.
        self._candidates = dict.fromkeys(
            decode_value(v) for v in state["candidates"]
        )
        self._ordered = [decode_value(v) for v in state["ordered"]]
        self._since_recompute = state["since_recompute"]

    def pending_count(self) -> int:
        return len(self._candidates)

    # ------------------------------------------------------------------
    def dependency_score(self, value: AttributeValue) -> float:
        """``s(q_i, L_queried)`` of Definition 3.1 (or its mean variant).

        Only ``G_local`` neighbours of ``value`` that were already
        queried can co-occur with it, so the max/mean runs over that
        intersection; no co-occurring issued query yields ``-inf``
        (an entirely independent candidate — the best possible score).
        PMI is read from each issued query's co-occurrence row.
        """
        context = self._require_context()
        local = context.local_db
        # Set intersection iterates the smaller operand: cheap even when
        # the candidate is a hub with thousands of local neighbours.
        queried_neighbors = local.neighbors(value) & context.queried_values
        if not queried_neighbors:
            return -math.inf
        pmis = [local.pmi(q, value) for q in queried_neighbors]
        pmis = [p for p in pmis if p != -math.inf]
        if not pmis:
            return -math.inf
        if self.aggregate == "max":
            return max(pmis)
        return sum(pmis) / len(pmis)

    def selection_score(self, value: AttributeValue) -> float:
        """The full MMMI ranking key, lower = issued earlier.

        ``s(q_i) - w · ln(1 + degree(q_i))``: the Definition 3.1
        dependency penalty, discounted by log-popularity (both terms are
        log-scale).  ``popularity_weight = 0`` is the pure
        Definition 3.1 ordering; the default of 1 realizes the paper's
        "MMMI is used together with the greedy link-based approach" —
        among comparably popular candidates, strong dependency pushes a
        value back, instead of independence alone promoting the frontier's
        singleton tail.
        """
        context = self._require_context()
        score = self.dependency_score(value)
        if score == -math.inf:
            score = 0.0  # independent; judged on popularity alone
        if self.popularity_weight == 0.0:
            return score
        degree = context.local_db.degree(value)
        return score - self.popularity_weight * math.log1p(degree)

    def _recompute(self) -> None:
        """Sort pending candidates by the selection score.

        ``self._ordered`` is consumed from the tail, so it is stored
        descending: the *last* element is the best (lowest-score)
        candidate.

        The final tie-break key is the :class:`AttributeValue` itself
        (ids are first-seen order, not lexicographic, so they must never
        leak into the sort key).
        """
        emit = self._trace_emit
        if emit is not None:
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
        context = self._require_context()
        self._ordered = self._order(context.local_db, context)
        self._since_recompute = 0
        if emit is not None:
            emit(
                "score",
                time.perf_counter() - wall0,
                time.process_time() - cpu0,
                {"candidates": len(self._ordered)},
            )

    def _order(self, local, context) -> List[AttributeValue]:
        """The batch recompute on dense ids — the MMMI hot loop.

        One interner lookup per queried value; candidate ids are cached
        at discovery (:meth:`add_candidate_id`), so candidates hash only
        until first resolved.  Only the top ``batch_size`` keys can be
        consumed before the next recompute, so a bounded
        ``heapq.nlargest`` replaces the full sort — keys are unique
        (final tie-break is the value itself), making the selection
        independent of candidate iteration order.  ``aggregate="max"``
        keys through :meth:`_max_keys`, ``"mean"`` through
        :meth:`_scalar_keys`.  Candidates with no interned id get the
        ``(0.0, 0, value)`` key.
        """
        lookup = local.value_id
        queried_ids = {
            vid
            for vid in map(lookup, context.queried_values)
            if vid is not None
        }
        candidates = self._candidates
        values = list(candidates)
        ids = list(candidates.values())
        keyed = []
        if None in ids:
            # Seeds and restored checkpoints arrive without ids; resolve
            # (and cache) what has since been harvested.  The rest was
            # never seen in a harvested record: no neighbours, no
            # degree — fully independent, judged at score 0.
            pending = zip(values, ids)
            values, ids = [], []
            for value, vid in pending:
                if vid is None:
                    vid = lookup(value)
                    if vid is None:
                        keyed.append((0.0, 0, value))
                        continue
                    candidates[value] = vid
                values.append(value)
                ids.append(vid)
        if self.aggregate == "max":
            keyed += self._max_keys(local, queried_ids, values, ids)
        else:
            keyed += self._scalar_keys(local, queried_ids, values, ids, use_max=False)
        take = self.batch_size
        if len(keyed) <= take:
            keyed.sort()
            return [value for _neg_score, _degree, value in keyed]
        top = heapq.nlargest(take, keyed)
        top.reverse()  # ascending; consumed best-first from the tail
        return [value for _neg_score, _degree, value in top]

    def _max_keys(self, local, queried_ids, values, ids) -> list:
        """Exact keys of the candidates that can rank in the batch (``max``).

        Every candidate is scored at once by
        :func:`repro.policies.vectorized.mmmi_shortlist`: an approximate
        ``np.log``/``np.log1p`` score per candidate, ``np.partition``
        for the ``batch_size``-th best approximate key ``A_k``, and a
        shortlist of the candidates whose approximate key is at least
        ``A_k − margin`` (typically a few dozen of ~15k).  Only the
        shortlist gets an exact Python key, from the same
        ``math.log``/``math.log1p`` arithmetic as :meth:`_scalar_keys`.
        This is exact, not a heuristic: if numpy's logs differ from
        libm's by at most ``δ`` per key, every member of the exact top
        ``batch_size`` has an approximate key of at least ``A_k − 2δ``,
        and the fixed margin (``1e-9·max(1, S)``, ``S`` the largest
        score-term magnitude) is far above ``2δ``.  The differential
        suite pins the selection to :meth:`_scalar_keys` with
        ``use_max=True``.
        """
        weight = self.popularity_weight
        tie_break = self.tie_break_degree
        log = math.log
        log1p = math.log1p
        picks, ratios, degrees = vectorized.mmmi_shortlist(
            local, queried_ids, ids, weight, self.batch_size
        )
        keyed = []
        for index, ratio, degree in zip(picks, ratios, degrees):
            # log(max ratio) == max(log ratio): one scalar math.log per
            # shortlisted candidate keeps libm bit-identity with the
            # scalar keys.  Ratio 0 is the no-co-occurrence sentinel.
            score = log(ratio) if ratio > 0.0 else 0.0
            if weight:
                score -= weight * log1p(degree)
            keyed.append((-score, degree if tie_break else 0, values[index]))
        return keyed

    def _scalar_keys(self, local, queried_ids, values, ids, use_max: bool) -> list:
        """Exact keys of every candidate, candidate-major.

        The only path of ``aggregate="mean"``, whose log sum the numpy
        kernels do not reproduce.
        """
        weight = self.popularity_weight
        tie_break = self.tie_break_degree
        log1p = math.log1p
        dependency_score = local.dependency_score_ids
        degree_id = local.degree_id
        neg_inf = -math.inf
        keyed = []
        for value, vid in zip(values, ids):
            score = dependency_score(vid, queried_ids, use_max)
            if score == neg_inf:
                score = 0.0  # independent; judged on popularity alone
            degree = degree_id(vid)
            if weight:
                score -= weight * log1p(degree)
            keyed.append((-score, degree if tie_break else 0, value))
        return keyed
