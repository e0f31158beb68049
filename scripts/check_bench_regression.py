"""Guard a benchmark's speedup ratios against silent regressions.

Compares a freshly produced ``BENCH_*.json`` report against its
committed baseline (``benchmarks/baselines/``) and fails when any
policy's *speedup ratio* dropped by more than the tolerance.  The
fleet (``benchmarks/test_fleet.py``) and network-lane
(``benchmarks/test_net_loadtest.py``) benchmarks emit such reports.

A speedup ratio — two legs of the same work measured back-to-back in
one process — is the machine-independent signal: absolute timings
shift with the runner's hardware and load, but a genuine regression
shrinks the ratio everywhere.

Only the metrics in :data:`GATED_METRICS` gate the build, and only when
both sides carry them: benchmark schemas grow over time (new per-policy
diagnostics, steps/sec fields, frontier counters), and a fresh run must
not fail — or crash — just because it reports more (or fewer) keys than
the committed baseline.  Absolute-time keys are deliberately ungated.

Usage::

    python scripts/check_bench_regression.py fresh.json baseline.json \
        [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Per-policy metrics gated against regression.  Ratios only — machine
#: load rescales absolute seconds on both legs but cancels out here.
GATED_METRICS = ("speedup",)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="just-measured BENCH_*.json report")
    parser.add_argument("baseline", help="committed baseline report")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="maximum allowed fractional speedup drop (default 0.25)",
    )
    args = parser.parse_args(argv)

    fresh = json.loads(Path(args.fresh).read_text())
    baseline = json.loads(Path(args.baseline).read_text())

    if fresh.get("scale") != baseline.get("scale"):
        # Speedup ratios are machine-independent but NOT scale-independent:
        # shorter runs amortize shared fixed costs over less work,
        # deflating the ratio.  Compare like with like.
        print(
            f"scale mismatch: fresh run at {fresh.get('scale')}, baseline "
            f"at {baseline.get('scale')} — regenerate the baseline with "
            f"the same REPRO_BENCH_SCALE"
        )
        return 1

    failures = []
    for policy, base in sorted(baseline["policies"].items()):
        current = fresh["policies"].get(policy)
        if current is None:
            failures.append(f"{policy}: missing from fresh results")
            continue
        # Gate only on metrics both sides actually report; extra keys on
        # either side are diagnostics, not part of the contract.
        shared = [m for m in GATED_METRICS if m in base and m in current]
        if not shared:
            print(f"{policy:12s} no shared gated metrics — skipped")
            continue
        for metric in shared:
            floor = base[metric] * (1.0 - args.tolerance)
            verdict = "ok" if current[metric] >= floor else "REGRESSION"
            print(
                f"{policy:12s} {metric} baseline {base[metric]:5.2f}x  "
                f"fresh {current[metric]:5.2f}x  "
                f"floor {floor:5.2f}x  {verdict}"
            )
            if current[metric] < floor:
                failures.append(
                    f"{policy}: {metric} {current[metric]:.2f}x fell below "
                    f"{floor:.2f}x (baseline {base[metric]:.2f}x minus "
                    f"{args.tolerance:.0%})"
                )

    if failures:
        print("\n".join(["", "speedup regression:"] + failures))
        return 1
    print("speedups within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
