"""Crawl benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dblp-hybrid --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: it sets
up each of the workload's generated inputs once (timed), then crawls
each to the target coverage, repeating a crawl while that input's share
of ``--seconds`` allows.  ``--trace 1`` is the separate traced run: it
crawls the first input once untraced and once with the span recorder
wrapped around every layer, prints the self-time ledger, writes the
spans as JSONL, and reports the per-layer metrics.

Every crawl passes the correctness gate (``gate.py``) or the run fails.
The last line of standard output is the result object; the full record
(with seed and provenance) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "crawl_s": "s",
    "page_p50_ms": "ms",
    "rounds": "count",
    "peak_rss_mb": "MB",
}

#: name -> unit of every per-layer metric (``--trace 1``).  Layers a
#: workload does not use report 0.
PER_LAYER = {
    "datasets.load_dataset_s": "s",
    "core.table.insert_rows_s": "s",
    "policies.next_query_s": "s",
    "policies.next_query_calls": "count",
    "policies.add_candidate_s": "s",
    "policies.add_candidate_calls": "count",
    "policies.value_path_frac": "ratio",
    "policies.observe_outcome_s": "s",
    "crawler.extract_s": "s",
    "crawler.extract_calls": "count",
    "crawler.localdb.add_s": "s",
    "crawler.localdb.add_calls": "count",
    "crawler.new_record_frac": "ratio",
    "crawler.engine.step_s": "s",
    "crawler.engine.step_p50_ms": "ms",
    "crawler.engine.step_p99_ms": "ms",
    "crawler.unattributed_s": "s",
    "server.submit_s": "s",
    "server.submit_calls": "count",
    "runtime.journal.record_s": "s",
    "runtime.journal.record_calls": "count",
    "runtime.journal.flush_s": "s",
    "runtime.checkpoint.save_s": "s",
    "runtime.bytes_written": "bytes",
    "net.client.submit_s": "s",
    "net.client.page_p99_ms": "ms",
    "net.client.cpu_s": "s",
    "net.client.connections": "count",
    "net.server.cpu_s": "s",
    "net.server.requests": "count",
    "net.cache.hit_frac": "ratio",
    "net.cluster.start_s": "s",
    "net.cluster.stop_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}

STEP_SPAN = "crawler.engine.step"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--records",
        type=int,
        default=None,
        help="table size override (the benchmark's own tests run tiny tables)",
    )
    return parser.parse_args(argv)


def p99(samples) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance() -> dict:
    """Where and on what the numbers were measured."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    import numpy

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
def run_untraced(workload, seed, records, seconds, nproc, wl, gate):
    """End-to-end metrics over every generated input of the workload."""
    setups, crawl_medians, rounds = [], [], []
    step_ms, page_ms = [], []
    errors, crawls = [], []
    expected = gate.load_expected(workload.name, seed, records, workload.records)
    for index in range(workload.instances):
        inst_seed = wl.instance_seed(seed, index)
        instance = wl.Instance(workload, inst_seed, records, OUT_DIR)
        try:
            setups.append(instance.setup())
            share = seconds / workload.instances
            started = time.perf_counter()
            runs = []
            while True:
                facts = instance.crawl()
                runs.append(facts)
                elapsed = time.perf_counter() - started
                if elapsed + facts.crawl_s > share:
                    break
            reference = (
                instance.reference_crawl() if workload.lane == "remote" else None
            )
        finally:
            instance.close()
        for facts in runs:
            errors += gate.check_crawl(
                facts,
                wl.TARGET_COVERAGE,
                nproc,
                expected=expected[str(inst_seed)] if expected else None,
                reference=reference,
                first=runs[0],
            )
            step_ms += facts.step_ms
            page_ms += facts.page_ms
        crawls += runs
        crawl_medians.append(statistics.median(f.crawl_s for f in runs))
        rounds.append(runs[0].rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "crawl_s": statistics.fmean(crawl_medians),
        "page_p50_ms": statistics.median(page_ms),
        "rounds": statistics.fmean(rounds),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"inputs: {workload.instances} (seeds "
        f"{[wl.instance_seed(seed, i) for i in range(workload.instances)]}), "
        f"crawls: {len(crawls)}, setups: {len(setups)}",
        f"samples: {len(step_ms)} steps, {len(page_ms)} pages",
    ]
    return metrics, crawls, errors, notes


def crawl_input(workload, seed, records, wl, recorder=None):
    """Set up input 0; crawl it untraced, then traced if ``recorder``.

    Returns the crawls and, on the remote lane, the in-process crawl of
    the same table they must match.
    """
    instance = wl.Instance(workload, wl.instance_seed(seed, 0), records, OUT_DIR)
    try:
        instance.setup(recorder)
        crawls = [instance.crawl()]
        if recorder is not None:
            crawls.append(instance.crawl(recorder))
        reference = instance.reference_crawl() if workload.lane == "remote" else None
    finally:
        instance.close()
    return crawls, reference


def net_metrics(facts) -> dict:
    """The remote lane, measured from outside on an untraced crawl (page
    waits, process clock, ``/proc``, cluster snapshot); 0 without one."""
    names = [n for n in PER_LAYER if n.startswith("net.")]
    if facts is None:
        return dict.fromkeys(names, 0.0)
    lookups = facts.cache_hits + facts.cache_misses
    return {
        "net.client.submit_s": sum(facts.page_ms) / 1e3,
        "net.client.page_p99_ms": p99(facts.page_ms),
        "net.client.cpu_s": facts.client_cpu_s,
        "net.client.connections": facts.connections,
        "net.server.cpu_s": facts.server_cpu_s,
        "net.server.requests": facts.server_requests,
        "net.cache.hit_frac": facts.cache_hits / lookups if lookups else 0.0,
        "net.cluster.start_s": facts.cluster_start_s,
        "net.cluster.stop_s": facts.cluster_stop_s,
    }


def run_traced(workload, seed, records, nproc, wl, gate, spans_path):
    """Per-layer metrics: one untraced and one traced crawl of input 0.

    A workload with a companion adds the companion's untraced crawl of
    the same input; the ``net.*`` metrics come from the remote crawl.
    """
    from spans import SpanRecorder

    recorder = SpanRecorder()
    inst_seed = wl.instance_seed(seed, 0)
    (plain, traced), reference = crawl_input(workload, seed, records, wl, recorder)
    checks = [(workload, plain, reference), (workload, traced, reference)]
    net = plain if workload.lane == "remote" else None
    if workload.companion is not None:
        companion = wl.WORKLOADS[workload.companion]
        (net,), net_reference = crawl_input(companion, seed, records, wl)
        checks.append((companion, net, net_reference))
    errors = []
    for owner, facts, ref in checks:
        expected = gate.load_expected(owner.name, seed, records, owner.records)
        errors += gate.check_crawl(
            facts,
            wl.TARGET_COVERAGE,
            nproc,
            expected=expected[str(inst_seed)] if expected else None,
            reference=ref,
            first=plain if owner is workload else None,
        )
    recorder.write_jsonl(spans_path)
    totals = recorder.totals()
    selfs = recorder.self_times()

    def seconds(name):
        return totals.get(name, [0, 0.0])[1]

    def calls(name):
        return totals.get(name, [0, 0.0])[0]

    id_calls = calls("policies.add_candidate_id")
    metrics = {
        "datasets.load_dataset_s": seconds("datasets.load_dataset"),
        "core.table.insert_rows_s": seconds("core.table.insert_rows"),
        "policies.next_query_s": seconds("policies.next_query"),
        "policies.next_query_calls": calls("policies.next_query"),
        "policies.add_candidate_s": seconds("policies.add_candidate")
        + seconds("policies.add_candidate_id"),
        "policies.add_candidate_calls": calls("policies.add_candidate") + id_calls,
        "policies.value_path_frac": (
            recorder.nested_calls("policies.add_candidate") / id_calls
            if id_calls else 0.0
        ),
        "policies.observe_outcome_s": seconds("policies.observe_outcome"),
        "crawler.extract_s": seconds("crawler.extract"),
        "crawler.extract_calls": calls("crawler.extract"),
        "crawler.localdb.add_s": seconds("crawler.localdb.add"),
        "crawler.localdb.add_calls": calls("crawler.localdb.add"),
        "crawler.new_record_frac": traced.records / max(calls("crawler.localdb.add"), 1),
        "crawler.engine.step_s": seconds(STEP_SPAN),
        # Step percentiles of the untraced crawl: too machine-sensitive
        # to gate (see README), reported here without a bound.
        "crawler.engine.step_p50_ms": statistics.median(plain.step_ms),
        "crawler.engine.step_p99_ms": p99(plain.step_ms),
        "crawler.unattributed_s": selfs.get(STEP_SPAN, 0.0),
        "server.submit_s": seconds("server.submit"),
        "server.submit_calls": traced.submit_calls,
        "runtime.journal.record_s": seconds("runtime.journal.record"),
        "runtime.journal.record_calls": calls("runtime.journal.record"),
        "runtime.journal.flush_s": seconds("runtime.journal.flush"),
        "runtime.checkpoint.save_s": seconds("runtime.checkpoint.save"),
        "runtime.bytes_written": traced.bytes_written,
        **net_metrics(net),
        "trace.overhead_frac": (traced.crawl_s - plain.crawl_s) / plain.crawl_s,
    }
    ledger = recorder.ledger(STEP_SPAN)
    notes = [
        f"input seed {inst_seed}: untraced crawl {plain.crawl_s:.3f}s, "
        f"traced crawl {traced.crawl_s:.3f}s (trace.overhead_frac "
        f"{metrics['trace.overhead_frac']:+.3f}), {len(recorder.spans)} spans "
        f"-> {spans_path.relative_to(ROOT)}",
        "self-time ledger (traced crawl and set-up):",
        ledger,
    ]
    return metrics, [facts for _, facts, _ in checks], errors, notes


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    # Anything that asks for a temp dir (multiprocessing included)
    # stays inside the checkout.
    tmp_dir = OUT_DIR / "tmp"
    tmp_dir.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp_dir)
    tempfile.tempdir = None

    import gate
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(wl.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    records = args.records or workload.records
    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()
    stem = f"{workload.name}-s{args.seed}-t{args.trace}"
    if args.trace:
        metrics, crawls, errors, notes = run_traced(
            workload, args.seed, records, nproc, wl, gate,
            OUT_DIR / f"spans-{workload.name}-s{args.seed}.jsonl",
        )
    else:
        metrics, crawls, errors, notes = run_untraced(
            workload, args.seed, records, args.seconds, nproc, wl, gate
        )
    load_after = os.getloadavg()

    attempted = sum(f.queries + f.rejected_queries for f in crawls)
    failed = sum(f.failed_queries + f.rejected_queries + f.failed_pages for f in crawls)
    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        metrics["failed_frac"] = failed / attempted
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "records": records,
        "provenance": {
            **provenance(),
            "loadavg_before": load_before,
            "loadavg_after": load_after,
        },
        "crawls": [
            {"seed": f.seed, "crawl_s": f.crawl_s, **f.key_facts()} for f in crawls
        ],
        "errors": errors,
        "result": result,
    }
    with open(OUT_DIR / f"result-{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    for line in notes:
        print(line)
    for error in errors:
        print(f"GATE FAILED: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
