"""The benchmark's own tests, at a tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import gate  # noqa: E402
import workloads as wl  # noqa: E402
from spans import SpanRecorder  # noqa: E402

TINY = 400
NPROC = len(os.sched_getaffinity(0))


def run_bench(workload: str, trace: int, cwd: Path = ROOT, records: int = TINY):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--records", str(records),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def declared(kind: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        remote = workload == "dblp-gl-remote" or wl.WORKLOADS[workload].companion
        connections = result["metrics"]["net.client.connections"]["value"]
        assert (1 <= connections <= NPROC) if remote else connections == 0
        assert "unattributed" in done.stdout
        spans_path = BENCH_DIR / "out" / f"spans-{workload}-s1.jsonl"
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
        steps = [s for s in spans if s["name"] == "crawler.engine.step"]
        assert steps and all(
            {"id", "parent", "step", "name", "start", "end"} <= set(s) for s in spans
        )
        by_id = {s["id"]: s for s in spans}
        children = [s for s in spans if s["parent"] in by_id]
        assert children and all(by_id[s["parent"]]["step"] == s["step"] for s in children)


def test_layer_map_covers_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))["layers"]
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert workloads <= set(wl.WORKLOADS)
    for entry in layers.values():
        assert set(entry["moves"]) <= end_to_end
        assert entry["on"] and set(entry["on"]) <= workloads
    for name in workloads:
        companion = wl.WORKLOADS[name].companion
        assert companion is None or companion in wl.WORKLOADS


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("dblp-hybrid", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def remote_facts(tmp_path_factory):
    workload = wl.WORKLOADS["dblp-gl-remote"]
    instance = wl.Instance(workload, 5, TINY, tmp_path_factory.mktemp("remote"))
    try:
        instance.setup()
        facts = instance.crawl()
        reference = instance.reference_crawl()
    finally:
        instance.close()
    return facts, reference


def test_gate_accepts_an_honest_crawl(remote_facts):
    facts, reference = remote_facts
    assert gate.check_crawl(facts, wl.TARGET_COVERAGE, NPROC, reference=reference) == []


#: field -> the tampered value, given the honest facts.
TAMPERS = {
    "submit_calls": lambda f: f.submit_calls + 1,
    "rounds": lambda f: f.rounds + 1,
    "records": lambda f: f.records - 1,
    "digest": lambda f: "0" * 16,
    "journal_entries": lambda f: f.steps + 1,
    "connections": lambda f: NPROC + 1,
}


@pytest.mark.parametrize("field", sorted(TAMPERS))
def test_gate_rejects_a_tampered_count(remote_facts, field):
    facts, reference = remote_facts
    tampered = dataclasses.replace(facts, **{field: TAMPERS[field](facts)})
    assert gate.check_crawl(tampered, wl.TARGET_COVERAGE, NPROC, reference=reference)


def test_gate_rejects_a_mismatch_with_committed_facts(remote_facts):
    facts, _ = remote_facts
    expected = dict(facts.key_facts(), rounds=facts.rounds + 1)
    errors = gate.check_crawl(facts, wl.TARGET_COVERAGE, NPROC, expected=expected)
    assert len(errors) == 1 and "expected.json" in errors[0]


def test_remote_crawl_opens_at_most_nproc_connections(remote_facts):
    facts, _ = remote_facts
    assert 1 <= facts.connections <= NPROC
    assert facts.cache_hits == 0 and facts.cache_misses == facts.rounds


def test_span_self_time_and_folded_calls():
    recorder = SpanRecorder()
    ticks = iter(range(100))
    recorder._clock = lambda: float(next(ticks))

    def leaf():
        return None

    fold_inner = recorder.fold("inner", leaf)
    fold_outer = recorder.fold("outer", lambda: fold_inner())
    step = recorder.span("step", lambda: (child(), fold_outer()), new_step=True)
    child = recorder.span("child", leaf)
    step()
    step()
    totals = recorder.totals()
    assert totals["step"][0] == 2 and totals["child"][0] == 2
    assert totals["outer"][0] == 2 and recorder.nested_calls("inner") == 2
    assert totals["inner"][0] == 0
    selfs = recorder.self_times()
    # Each step lasts 5 ticks: child covers 1, the folded call 1.
    assert selfs["step"] == pytest.approx(2 * 3)
    assert [s[2] for s in recorder.spans] == [1, 1, 2, 2]
    assert recorder.spans[1][1] == recorder.spans[0][0]
