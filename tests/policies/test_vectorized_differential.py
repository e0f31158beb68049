"""Differential tests: vectorized scoring must match scalar arithmetic bit for bit.

The numpy kernels in :mod:`repro.policies.vectorized` are the only
scoring path of GL, GF and MMMI — every selection decision they feed
must be *identical* to the pure-python per-id arithmetic, or the crawls
stop being reproductions of the paper's sequential definitions.  The
scalar references live in :mod:`tests.policies.scalar`.  These tests
pin that contract three ways:

- **Crawl-level**: full crawls on the shipped selectors vs their scalar
  subclasses produce equal :class:`~repro.crawler.engine.CrawlResult`\\ s
  (same query sequence, same step history, same coverage).
- **Kernel-level**: the batch scorers and :func:`mmmi_best_ratios`
  reproduce the scalar arithmetic exactly — including the zero
  frequency, empty-queried-set, no-co-occurrence, and id-past-column
  edges where the guards (not the arithmetic) decide the answer.
- **Recompute-level**: MMMI's ``_order`` returns the same ordering
  through the shortlist kernel and through the scalar key loop,
  including when the kernel's approximate ``np.log`` shortlist cuts
  through ties or through a candidate whose numpy and libm logarithms
  disagree.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttributeValue
from repro.crawler import CrawlerContext, CrawlerEngine, LocalDatabase
from repro.policies import (
    GreedyFrequencySelector,
    GreedyLinkSelector,
    MinMaxMutualInformationSelector,
)
from repro.policies import vectorized
from repro.server import QueryInterface, SimulatedWebDatabase
from tests.conftest import make_record
from tests.policies.scalar import ScalarGreedyFrequency, ScalarGreedyLink, ScalarMMMI


def AV(attribute, value):
    return AttributeValue(attribute, value)


def crawl_signature(table, selector, max_queries=45):
    """One deterministic crawl; the full result doubles as the signature."""
    server = SimulatedWebDatabase(table, page_size=10)
    engine = CrawlerEngine(server, selector, seed=11)
    seed_value = next(
        value
        for value in table.distinct_values("seller")
        if table.frequency(value) >= 3
    )
    result = engine.crawl([seed_value], max_queries=max_queries)
    return result, list(engine.context.lqueried)


class TestCrawlLevelIdentity:
    @pytest.mark.parametrize(
        "factory, scalar",
        [
            (GreedyLinkSelector, ScalarGreedyLink),
            (GreedyFrequencySelector, ScalarGreedyFrequency),
        ],
    )
    def test_priority_selectors_match_scalar(self, small_ebay, factory, scalar):
        fast, fast_q = crawl_signature(small_ebay, factory())
        slow, slow_q = crawl_signature(small_ebay, scalar())
        assert fast_q == slow_q
        assert fast == slow

    def test_mmmi_matches_scalar(self, small_ebay):
        fast, fast_q = crawl_signature(small_ebay, MinMaxMutualInformationSelector())
        slow, slow_q = crawl_signature(small_ebay, ScalarMMMI())
        assert fast_q == slow_q
        assert fast == slow

    def test_mmmi_small_batch_matches_scalar(self, small_ebay):
        """Frequent recomputes stress the queried-major scatter path."""
        fast, _ = crawl_signature(
            small_ebay, MinMaxMutualInformationSelector(batch_size=5)
        )
        slow, _ = crawl_signature(small_ebay, ScalarMMMI(batch_size=5))
        assert fast == slow


class TestVectorizedValidation:
    def test_mean_aggregate_auto_stays_scalar(self, small_ebay):
        """``aggregate="mean"`` crawls on the scalar key loop."""
        result, _ = crawl_signature(
            small_ebay,
            MinMaxMutualInformationSelector(aggregate="mean"),
            max_queries=20,
        )
        assert result.queries_issued > 0


def correlated_local():
    """A tiny database with known co-occurrence structure."""
    local = LocalDatabase()
    records = [
        make_record(1, a="lead", b="paired", c="x"),
        make_record(2, a="lead", b="paired", c="y"),
        make_record(3, a="lead", b="paired", c="x"),
        make_record(4, a="lead2", b="paired", c="y"),
        make_record(5, a="lead2", b="zzz", c="x"),
        make_record(6, a="other", b="free", c="y"),
        make_record(7, a="other2", b="free", c="x"),
    ]
    for record in records:
        local.add(record)
    return local


class TestMMMIKernelEdges:
    def scalar_bits(self, local, queried_ids, cand_ids):
        """The scalar reference: exp of dependency_score_ids per candidate."""
        out = []
        for vid in cand_ids:
            score = local.dependency_score_ids(vid, set(queried_ids), use_max=True)
            out.append(0.0 if score == -math.inf else math.exp(score))
        return out

    def test_matches_scalar_log_bit_for_bit(self):
        local = correlated_local()
        queried = [
            local.value_id(AV("a", "lead")),
            local.value_id(AV("a", "lead2")),
        ]
        cands = [
            local.value_id(AV("b", "paired")),
            local.value_id(AV("b", "free")),
            local.value_id(AV("b", "zzz")),
            local.value_id(AV("c", "x")),
        ]
        best = vectorized.mmmi_best_ratios(local, queried, cands)
        for vid, ratio in zip(cands, best):
            scalar = local.dependency_score_ids(vid, set(queried), use_max=True)
            if ratio == 0.0:
                assert scalar == -math.inf
            else:
                # Same bits: the scalar path is log(joint*n/(fu*fv)) over
                # ints; the kernel maximizes the exact ratios first.
                assert math.log(ratio) == scalar

    def test_no_cooccurrence_scores_zero(self):
        local = correlated_local()
        queried = [local.value_id(AV("a", "lead"))]
        cands = [local.value_id(AV("b", "free"))]
        assert vectorized.mmmi_best_ratios(local, queried, cands) == [0.0]

    def test_empty_queried_set(self):
        local = correlated_local()
        cands = [local.value_id(AV("b", "paired"))]
        assert vectorized.mmmi_best_ratios(local, [], cands) == [0.0]

    def test_empty_candidates(self):
        local = correlated_local()
        queried = [local.value_id(AV("a", "lead"))]
        assert vectorized.mmmi_best_ratios(local, queried, []) == []

    def test_empty_database(self):
        local = LocalDatabase()
        assert vectorized.mmmi_best_ratios(local, [0], [1]) == [0.0]

    def test_queried_id_past_column_end_is_skipped(self):
        local = correlated_local()
        queried = [local.value_id(AV("a", "lead")), 10_000]
        cands = [local.value_id(AV("b", "paired"))]
        with_garbage = vectorized.mmmi_best_ratios(local, queried, cands)
        clean = vectorized.mmmi_best_ratios(local, queried[:1], cands)
        assert with_garbage == clean

    def test_interned_but_unseen_query_is_harmless(self):
        """A vid interned without statistics behaves like frequency 0."""
        local = correlated_local()
        ghost = local.intern_value(AV("a", "never-harvested"))
        queried = [local.value_id(AV("a", "lead")), ghost]
        cands = [local.value_id(AV("b", "paired"))]
        assert vectorized.mmmi_best_ratios(local, queried, cands) == (
            vectorized.mmmi_best_ratios(local, queried[:1], cands)
        )


class TestColumnScorerEdges:
    @pytest.mark.parametrize(
        "make_scorer, scalar_name",
        [
            (vectorized.degree_batch_scorer, "degree_id"),
            (vectorized.frequency_batch_scorer, "frequency_id"),
        ],
    )
    def test_matches_scalar_loop(self, make_scorer, scalar_name):
        local = correlated_local()
        scorer = make_scorer(local)
        scalar = getattr(local, scalar_name)
        ids = list(range(len(local.interner)))
        random.Random(3).shuffle(ids)
        assert scorer(ids) == [float(scalar(vid)) for vid in ids]

    @pytest.mark.parametrize(
        "make_scorer",
        [vectorized.degree_batch_scorer, vectorized.frequency_batch_scorer],
    )
    def test_ids_past_column_end_score_zero(self, make_scorer):
        local = correlated_local()
        scorer = make_scorer(local)
        in_range = local.value_id(AV("b", "paired"))
        scores = scorer([in_range, 10_000])
        assert scores[1] == 0.0
        assert scores[0] == scorer([in_range])[0]

    @pytest.mark.parametrize(
        "make_scorer",
        [vectorized.degree_batch_scorer, vectorized.frequency_batch_scorer],
    )
    def test_empty_database_and_empty_batch(self, make_scorer):
        local = LocalDatabase()
        scorer = make_scorer(local)
        assert scorer([]) == []
        assert scorer([0, 5]) == [0.0, 0.0]

    def test_scorer_sees_live_column_growth(self):
        """Columns may reallocate on add; the scorer must re-fetch."""
        local = LocalDatabase()
        scorer = vectorized.frequency_batch_scorer(local)
        local.add(make_record(1, a="v"))
        vid = local.value_id(AV("a", "v"))
        assert scorer([vid]) == [1.0]
        for i in range(2, 200):
            local.add(make_record(i, a="v", b=f"pad{i}"))
        assert scorer([vid]) == [float(local.frequency_id(vid))]


def mmmi_orders(records, queried, candidates, batch_size, **options):
    """``_order`` through the shortlist kernel and through the scalar loop.

    Both selectors read one shared local database built from
    ``records``; ``candidates`` not interned there arrive by value and
    keep the ``(0.0, 0, value)`` key.
    """
    local = LocalDatabase()
    for record in records:
        local.add(record)
    orders = []
    for selector_cls in (MinMaxMutualInformationSelector, ScalarMMMI):
        context = CrawlerContext(
            local_db=local,
            interface=QueryInterface(frozenset({"a", "b", "c"})),
            page_size=10,
            rng=random.Random(0),
            queried_values=set(queried),
        )
        selector = selector_cls(batch_size=batch_size, **options)
        selector.bind(context)
        for value in candidates:
            vid = local.value_id(value)
            if vid is None:
                selector.add_candidate(value)
            else:
                selector.add_candidate_id(vid, value)
        orders.append(selector._order(local, context))
    return orders


def ebay_world(table, n_records=300, n_queried=40):
    """A harvested ebay prefix, some issued values, and the rest pending."""
    records = list(table)[:n_records]
    values = sorted({value for record in records for value in record})
    rng = random.Random(5)
    queried = set(rng.sample(values, n_queried))
    candidates = [value for value in values if value not in queried]
    # Two never-harvested candidates take the unresolved-id key.
    candidates += [AV("seller", "unseen-1"), AV("title", "unseen-2")]
    return records, queried, candidates


#: Attribute pools of the random record sets; every value, sorted.
POOLS = {"a": "pqrs", "b": "tuvwxyz", "c": "0123456789"}
UNIVERSE = sorted(AV(a, v) for a, pool in POOLS.items() for v in pool)


class TestMMMIShortlistExactness:
    @pytest.mark.parametrize("batch_size", [1, 5, 25, 100_000])
    def test_orderings_match_scalar(self, small_ebay, batch_size):
        records, queried, candidates = ebay_world(small_ebay)
        fast, slow = mmmi_orders(records, queried, candidates, batch_size)
        assert fast == slow
        assert len(fast) == min(batch_size, len(candidates))

    def test_tied_boundary_decided_by_value(self):
        """More than ``batch_size`` candidates share score and degree.

        Each ``t*`` co-occurs once with the issued ``q`` (ratio 1, log 0)
        and has degree 1, so the batch boundary falls inside the tie and
        only the :class:`AttributeValue` order can decide it.
        """
        tied = [AV("b", f"t{i:02d}") for i in range(12)]
        records = [make_record(i, a="q", b=value.value) for i, value in enumerate(tied)]
        # Better than the tie: independent, higher degree.
        records.append(make_record(20, b="hub", c="h1"))
        records.append(make_record(21, b="hub", c="h2"))
        # Worse than the tie: independent, degree 0.
        records.append(make_record(22, c="lone"))
        candidates = tied + [AV("b", "hub"), AV("c", "lone")]
        fast, slow = mmmi_orders(records, [AV("a", "q")], candidates, 5)
        assert fast == slow
        assert fast == sorted(tied)[-4:] + [AV("b", "hub")]

    def test_log_disagreement_at_the_boundary(self, monkeypatch):
        """A candidate whose ``np.log`` differs from ``math.log`` by ulps.

        ``linked`` (ratio exactly 1, so ``math.log`` gives 0) and
        ``free`` (no co-occurrence) tie exactly at degree 2; ``linked``
        wins on value.  A numpy ``log`` a few ulps high pushes
        ``linked``'s approximate key just below ``free``'s — a shortlist
        cut at ``A_k`` with no margin would select ``free``.
        """
        records = [
            make_record(1, a="q", b="linked"),
            make_record(2, a="q", c="z1"),
            make_record(3, b="linked", c="z2"),
            make_record(4, b="free", c="z3", a="z4"),
        ]
        linked, free = AV("b", "linked"), AV("b", "free")
        assert linked > free

        numpy = vectorized.np

        class HighLog:
            def __getattr__(self, name):
                return getattr(numpy, name)

            @staticmethod
            def log(x):
                out = numpy.log(x)
                return out + 4 * numpy.spacing(numpy.maximum(numpy.abs(out), 1.0))

        monkeypatch.setattr(vectorized, "np", HighLog())
        fast, slow = mmmi_orders(records, [AV("a", "q")], [free, linked], 1)
        assert slow == [linked]
        assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.fixed_dictionaries(
                {attribute: st.sampled_from(pool) for attribute, pool in POOLS.items()}
            ),
            min_size=1,
            max_size=30,
        ),
        queried_mask=st.lists(
            st.booleans(), min_size=len(UNIVERSE), max_size=len(UNIVERSE)
        ),
        batch_size=st.integers(min_value=1, max_value=12),
        popularity_weight=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        tie_break_degree=st.booleans(),
    )
    def test_random_worlds_match_scalar(
        self, rows, queried_mask, batch_size, popularity_weight, tie_break_degree
    ):
        records = [make_record(i, **row) for i, row in enumerate(rows)]
        queried = [v for v, hit in zip(UNIVERSE, queried_mask) if hit]
        candidates = [v for v, hit in zip(UNIVERSE, queried_mask) if not hit]
        fast, slow = mmmi_orders(
            records,
            queried,
            candidates,
            batch_size,
            popularity_weight=popularity_weight,
            tie_break_degree=tie_break_degree,
        )
        assert fast == slow
