"""The bench-regression gate must survive benchmark-schema drift.

``scripts/check_bench_regression.py`` compares a fresh
``BENCH_*.json`` report against its committed baseline.  Benchmarks grow
new per-policy keys over time (steps/sec, frontier counters, shm
accounting), and old baselines may predate keys the fresh run emits —
the gate must compare only the gated metrics both sides share, never
crash on a one-sided key, and still fail hard on a genuine speedup
regression or a policy that disappeared.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_bench_regression.py"
)


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", _SCRIPT
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(tmp_path: Path, name: str, policies: dict, scale: float = 0.25):
    path = tmp_path / name
    path.write_text(json.dumps({"scale": scale, "policies": policies}))
    return str(path)


def test_passes_on_matching_schemas(checker, tmp_path):
    fresh = _write(tmp_path, "fresh.json", {"gl": {"speedup": 2.0}})
    base = _write(tmp_path, "base.json", {"gl": {"speedup": 2.0}})
    assert checker.main([fresh, base]) == 0


def test_tolerates_added_and_removed_per_policy_keys(checker, tmp_path):
    """Mixed schemas: each side carries keys the other has never seen."""
    fresh = _write(
        tmp_path,
        "fresh.json",
        {
            "gl": {
                "speedup": 2.1,
                "steps_per_sec_interned": 3000.0,
                "frontier_rescored": 512,
            }
        },
    )
    base = _write(
        tmp_path,
        "base.json",
        {"gl": {"speedup": 2.0, "legacy_only_seconds": 1.5}},
    )
    assert checker.main([fresh, base]) == 0


def test_skips_policy_without_shared_gated_metrics(checker, tmp_path, capsys):
    """A side missing the gated metric entirely is skipped, not a crash."""
    fresh = _write(tmp_path, "fresh.json", {"gl": {"steps_per_sec": 9.0}})
    base = _write(tmp_path, "base.json", {"gl": {"speedup": 2.0}})
    assert checker.main([fresh, base]) == 0
    assert "skipped" in capsys.readouterr().out


def test_fails_on_regression_despite_extra_keys(checker, tmp_path):
    fresh = _write(
        tmp_path, "fresh.json", {"gl": {"speedup": 1.0, "new_key": 1}}
    )
    base = _write(tmp_path, "base.json", {"gl": {"speedup": 2.0}})
    assert checker.main([fresh, base, "--tolerance", "0.25"]) == 1


def test_fails_on_missing_policy(checker, tmp_path):
    fresh = _write(tmp_path, "fresh.json", {"gl": {"speedup": 2.0}})
    base = _write(
        tmp_path,
        "base.json",
        {"gl": {"speedup": 2.0}, "mmmi": {"speedup": 2.0}},
    )
    assert checker.main([fresh, base]) == 1


def test_fails_on_scale_mismatch(checker, tmp_path):
    fresh = _write(tmp_path, "fresh.json", {"gl": {"speedup": 2.0}}, scale=1.0)
    base = _write(tmp_path, "base.json", {"gl": {"speedup": 2.0}}, scale=0.25)
    assert checker.main([fresh, base]) == 1
