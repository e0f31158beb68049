"""Batch scoring kernels over the interned statistic columns.

These kernels are the only scoring path of GL, GF and MMMI's ``max``
aggregate (numpy is a hard dependency).  They read numpy views built
**directly on the live ``array('I')`` columns** of
:class:`~repro.crawler.localdb.LocalDatabase` (no copies of the
statistics, only of the gathered results):

- :func:`degree_batch_scorer` / :func:`frequency_batch_scorer` gather
  many frontier scores in one fancy-index read — the incremental
  frontier's flush hands its whole dirty set to one call.
- :func:`mmmi_best_ratios` computes, for every candidate, the **maximum
  co-occurrence ratio** ``joint·n / (f_cand·f_q)`` over the issued
  queries, iterating *queried-major*: the issued queries' co-occurrence
  rows (:meth:`~repro.crawler.localdb.LocalDatabase.cooc_row`) bulk-load
  into flat arrays and reduce into a per-candidate max.
- :func:`mmmi_shortlist` builds on it for MMMI's batch recompute: it
  scores every candidate approximately and returns only the few that
  can rank in the batch, for the caller to key exactly.

Bit-identity with the per-id scalar arithmetic (``degree_id``,
``dependency_score_ids``) is a design constraint, not an accident — the
differential tests keep scalar references in ``tests/`` and pin every
kernel to them:

- The ratio arithmetic is exact.  All inputs are integers below 2⁵³, so
  ``joint * n`` and ``f_cand * f_q`` are exact in float64 and the single
  division is correctly rounded — the same bits CPython's ``int/int``
  true division produces in the scalar loop.
- No numpy ``log`` reaches a key.  ``max_i log(r_i) == log(max_i r_i)``
  because ``log`` is monotonic, so the kernel maximizes the exact ratios
  and the caller applies one ``math.log`` per keyed candidate — numpy's
  SIMD ``np.log`` may differ from libm by an ulp, ``math.log`` cannot.
  :func:`mmmi_shortlist` uses ``np.log`` only to *discard* candidates,
  with a margin far wider than that disagreement.
- Queried-major and candidate-major visit exactly the same ``(cand, q)``
  pairs: a co-occurrence row holds precisely the positive-joint
  neighbours, and ``max`` is order-independent.

The MMMI kernels are only equivalent to ``aggregate="max"``; the
``mean`` variant sums logs in set-iteration order and keeps MMMI's
scalar key loop.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: The zero-copy uint32 views below read ``array('I')`` buffers directly.
if array("I").itemsize != 4:  # pragma: no cover - no supported platform
    raise ImportError("repro needs a 4-byte array('I') for its uint32 column views")

BatchScoreFn = Callable[[Sequence[int]], List[float]]


def _column_scorer(column_fn: Callable[[], array]) -> BatchScoreFn:
    """Batch scorer gathering float scores from a live uint32 column."""

    def score_ids(ids: Sequence[int]) -> List[float]:
        column = column_fn()
        view = np.frombuffer(column, dtype=np.uint32)
        idx = np.fromiter(ids, dtype=np.int64, count=len(ids))
        if view.shape[0] == 0 or (idx >= view.shape[0]).any():
            # Ids past the column's end score 0, like the scalar guard.
            size = view.shape[0]
            return [float(view[i]) if i < size else 0.0 for i in ids]
        return view[idx].astype(np.float64).tolist()

    return score_ids


def degree_batch_scorer(local) -> BatchScoreFn:
    """GL's batch scorer over the live degree column."""
    return _column_scorer(local.degree_column)


def frequency_batch_scorer(local) -> BatchScoreFn:
    """GF's batch scorer over the live frequency column."""
    return _column_scorer(local.frequency_column)


def mmmi_best_ratios(
    local, queried_ids: Sequence[int], cand_ids: Sequence[int]
) -> List[float]:
    """Per-candidate max co-occurrence ratio against the issued queries.

    Returns ``best[i] = max_q joint(c_i, q)·n / (f(c_i)·f(q))`` over the
    issued queries ``q`` co-occurring with candidate ``c_i``, or ``0.0``
    when none co-occurs (ratios are strictly positive, so 0 is a safe
    sentinel; ``dependency_score_ids``'s ``-inf`` maps to the same
    "independent" outcome).  ``math.log`` of each positive entry equals
    the scalar ``dependency_score_ids(..., use_max=True)`` bit for bit.
    """
    cand = np.fromiter(cand_ids, dtype=np.int64, count=len(cand_ids))
    return _best_ratios(local, queried_ids, cand).tolist()


def mmmi_shortlist(
    local,
    queried_ids: Sequence[int],
    cand_ids: Sequence[int],
    popularity_weight: float,
    take: int,
) -> Tuple[List[int], List[float], List[int]]:
    """The candidates that can rank in MMMI's top ``take``, and their inputs.

    Returns ``(indices, ratios, degrees)``: positions into ``cand_ids``
    plus each one's :func:`mmmi_best_ratios` entry and local degree, as
    Python numbers for the caller's exact ``math.log`` keys.

    Every candidate gets the approximate key ``A = w·log1p(degree) −
    log(ratio)`` (the negated selection score; ``log`` term 0 for ratio
    0) from ``np.log``/``np.log1p``.  With ``A_k`` the ``take``-th
    largest, the shortlist is every candidate with ``A ≥ A_k − margin``,
    ``margin = 1e-9·max(1, S)`` and ``S`` the largest ``|log term| +
    popularity term`` among the candidates.  If numpy's logs differ from
    libm's by at most ``δ`` per key, a candidate with ``A < A_k − 2δ``
    has an exact key below that of ``take`` others (each ``≥ A_k − δ``)
    and cannot be selected; ``δ`` is a few ulps of ``S`` (~1e-15·S), so
    the margin exceeds ``2δ`` by orders of magnitude and the shortlist
    always contains the exact top ``take``.  With ``take`` or fewer
    candidates, all of them are returned.
    """
    total = len(cand_ids)
    cand = np.fromiter(cand_ids, dtype=np.int64, count=total)
    best = _best_ratios(local, queried_ids, cand)
    degree = np.frombuffer(local.degree_column(), dtype=np.uint32)[cand]
    if total > take:
        dependency = np.zeros(total, dtype=np.float64)
        linked = best > 0.0
        dependency[linked] = np.log(best[linked])
        popularity = popularity_weight * np.log1p(degree.astype(np.float64))
        approx = popularity - dependency
        kth = np.partition(approx, total - take)[total - take]
        scale = float(np.max(np.abs(dependency) + popularity))
        picks = np.flatnonzero(approx >= kth - 1e-9 * max(1.0, scale))
        best = best[picks]
        degree = degree[picks]
    else:
        picks = np.arange(total)
    return picks.tolist(), best.tolist(), degree.tolist()


def _best_ratios(local, queried_ids: Sequence[int], cand) -> "np.ndarray":
    """:func:`mmmi_best_ratios` over an int64 id array, as an array.

    All issued queries' co-occurrence rows are flattened into one
    ``(partner, joint, f_q)`` triple per entry — two ``np.fromiter``
    passes over the chained rows — so the ratio arithmetic and the
    per-candidate max run once per recompute, not once per query.
    """
    total = cand.shape[0]
    best = np.zeros(total, dtype=np.float64)
    n = len(local)
    freq_col = local.frequency_column()
    num_ids = len(freq_col)
    if total == 0 or n == 0 or num_ids == 0:
        return best
    cooc_row = local.cooc_row
    queried = [q for q in queried_ids if q < num_ids]
    rows: List[Dict[int, int]] = [cooc_row(q) for q in queried]
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    entries = int(lengths.sum())
    if entries == 0:
        return best
    freq = np.frombuffer(freq_col, dtype=np.uint32).astype(np.float64)
    partners = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=entries)
    joints = np.fromiter(
        chain.from_iterable(map(dict.values, rows)), dtype=np.float64, count=entries
    )
    fq = np.repeat(freq[np.array(queried, dtype=np.int64)], lengths)
    slot_of = np.full(num_ids, -1, dtype=np.int64)
    slot_of[cand] = np.arange(total, dtype=np.int64)
    slots = slot_of[partners]
    mask = slots >= 0
    # Exact: joints·n and f_cand·f_q are integer-valued float64 products
    # (< 2^53), the division is correctly rounded — the same bits as the
    # scalar int/int true division.
    ratios = (joints[mask] * float(n)) / (freq[partners[mask]] * fq[mask])
    # max is exact and order-independent: duplicate slots (one candidate
    # in several rows) reduce to the same value in any order.
    np.maximum.at(best, slots[mask], ratios)
    return best
