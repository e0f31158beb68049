"""Crash/resume under the performance knobs.

The incremental frontier and the vectorized kernels must reproduce the
scalar arithmetic exactly — so a crawl running on them must not only
match a scalar reference crawl (:mod:`tests.policies.scalar`), it must
*crash and resume* into the same bit-identical result.  The resumed
process may even disagree with the crashed one about the kernel (scalar
reference crashes, vectorized resume): the checkpoint encodes scores and
values, never kernel choices, so any configuration must resume any
other's checkpoint losslessly.
"""

from __future__ import annotations

import pytest

from repro.policies import (
    AdaptiveAttributeSelector,
    GreedyLinkSelector,
    GreedyMmmiSelector,
    MinMaxMutualInformationSelector,
)
from repro.runtime.crawler import RuntimeCrawler
from repro.runtime.events import CrashAfterSteps, EventBus, SimulatedCrash

from tests.runtime.conftest import (
    CHECKPOINT_EVERY,
    MAX_QUERIES,
    make_backoff,
    make_engine,
    make_flaky_server,
    seed_values,
)
from tests.policies.scalar import ScalarGreedyLink, ScalarMMMI

CRASH_AFTER = 13

#: (reference selector, crashing selector, resuming selector) — each row
#: pins one acceleration knob across a crash boundary.
CONFIGS = {
    "gl-full-rescore": (
        lambda: GreedyLinkSelector(),
        lambda: GreedyLinkSelector(full_rescore_every=1),
        lambda: GreedyLinkSelector(full_rescore_every=1),
    ),
    "gl-scalar-to-vectorized": (
        lambda: GreedyLinkSelector(),
        lambda: ScalarGreedyLink(),
        lambda: GreedyLinkSelector(),
    ),
    "mmmi-vectorized": (
        lambda: ScalarMMMI(batch_size=5),
        lambda: MinMaxMutualInformationSelector(batch_size=5),
        lambda: MinMaxMutualInformationSelector(batch_size=5),
    ),
    # Switches to MMMI at step 6 of 50, before the crash at step 13, so
    # the resume crosses the MMMI phase: its candidate ids are not
    # checkpointed and must re-resolve at the next recompute.
    "greedy-mmmi": (
        lambda: GreedyMmmiSelector(switch_coverage=0.2, detector=None, batch_size=5),
        lambda: GreedyMmmiSelector(switch_coverage=0.2, detector=None, batch_size=5),
        lambda: GreedyMmmiSelector(switch_coverage=0.2, detector=None, batch_size=5),
    ),
    # Per-attribute interned frontiers: the replayed steps refresh by
    # value and must flush exactly as the live id path does.
    "adaptive": (
        lambda: AdaptiveAttributeSelector(epsilon=0.3),
        lambda: AdaptiveAttributeSelector(epsilon=0.3),
        lambda: AdaptiveAttributeSelector(epsilon=0.3),
    ),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_crash_resume_matches_unaccelerated_reference(
    tmp_path, config, flaky_table
):
    make_reference, make_crashing, make_resuming = CONFIGS[config]

    reference = make_engine(flaky_table, make_reference()).crawl(
        seed_values(flaky_table), max_queries=MAX_QUERIES
    )

    bus = EventBus()
    bus.attach(CrashAfterSteps(CRASH_AFTER))
    runtime = RuntimeCrawler(
        make_engine(flaky_table, make_crashing(), bus=bus),
        checkpoint_dir=tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    with pytest.raises(SimulatedCrash):
        runtime.crawl(seed_values(flaky_table), max_queries=MAX_QUERIES)
    runtime.close()

    resumed = RuntimeCrawler.resume(
        tmp_path,
        make_flaky_server(flaky_table),
        make_resuming(),
        backoff=make_backoff(),
    )
    result = resumed.run()
    resumed.close()
    assert result == reference
