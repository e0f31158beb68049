"""Scalar reference selectors for the differential tests.

The shipped GL, GF and MMMI score through numpy kernels
(:mod:`repro.policies.vectorized`).  These subclasses swap each kernel
for the per-id Python arithmetic it must reproduce bit for bit, so a
crawl on a reference selector and one on the shipped selector can be
compared step for step.
"""

from __future__ import annotations

from repro.policies import (
    GreedyFrequencySelector,
    GreedyLinkSelector,
    MinMaxMutualInformationSelector,
)


def _per_id_batch(score_id_fn):
    return lambda ids: [score_id_fn(vid) for vid in ids]


class ScalarGreedyLink(GreedyLinkSelector):
    """GL whose frontier flushes score one id at a time."""

    def _batch_score_fn(self, local):
        return _per_id_batch(self._score_id_fn(local))


class ScalarGreedyFrequency(GreedyFrequencySelector):
    """GF whose frontier flushes score one id at a time."""

    def _batch_score_fn(self, local):
        return _per_id_batch(self._score_id_fn(local))


class ScalarMMMI(MinMaxMutualInformationSelector):
    """MMMI keying every candidate with the scalar loop (``max``)."""

    def _max_keys(self, local, queried_ids, values, ids):
        return self._scalar_keys(local, queried_ids, values, ids, use_max=True)
