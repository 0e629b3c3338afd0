"""Self-tests for the benchmark's own rules (run with pytest from the repo root)."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import perf_checks
import perf_trace

HERE = Path(__file__).resolve().parent


def test_tail_is_highest_rank_with_ten_beyond():
    values = list(range(1, 101))  # 1..100, shuffled order must not matter
    values.reverse()
    value, percentile, n = perf_checks.tail(values)
    assert (value, n) == (90, 100)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(90.0)


def test_tail_with_the_fewest_samples_that_allow_one():
    value, percentile, n = perf_checks.tail([5.0] * 10 + [1.0])
    assert (value, n) == (1.0, 11)
    assert percentile == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        perf_checks.tail(list(range(10)))


def test_snapshots_match_the_due_time_of_each_batch_last_edge():
    t0, rate, batch = 100.0, 1000.0, 4
    # Batch 1 closes with edge 3 (due at t0 + 0.003), batch 2 with edge 7.
    reads = [(t0 + 0.010, 4, False), (t0 + 0.027, 8, False), (t0 + 0.030, 8, True)]
    latencies, problems = perf_checks.match_snapshots(reads, t0, rate, batch, 8)
    assert problems == []
    assert latencies[1] == pytest.approx(0.007)
    assert latencies[2] == pytest.approx(0.020)


def test_missing_misaligned_and_short_snapshots_are_failures():
    reads = [(1.0, 4, False), (1.1, 6, False), (1.2, 4, False), (1.3, 10, True)]
    _, problems = perf_checks.match_snapshots(reads, 0.0, 100.0, 4, 12)
    assert any("off a batch boundary" in p for p in problems)
    assert any("reported twice" in p for p in problems)
    assert "no snapshot for batch 2" in problems
    assert "no snapshot for batch 3" in problems
    assert any("final snapshot covers 10 edges, sent 12" in p for p in problems)
    _, problems = perf_checks.match_snapshots([(1.0, 4, False)], 0.0, 100.0, 4, 4)
    assert problems == ["no final snapshot"]


def test_a_wrong_estimate_fails_the_check():
    rules = {
        "count": [("triangles", 1000, 0.3)],
        "triest-fd": [("net_edges", 50, None), ("triangles", 400, 0.2)],
    }
    good = {"count": {"triangles": 1100.0}, "triest-fd": {"net_edges": 50, "triangles": 450.0}}
    assert perf_checks.check_estimates(good, rules) == []
    for bad in (
        {"count": {"triangles": 2000.0}},
        {"count": {"triangles": -1100.0}},
        {"count": {"triangles": math.nan}},
        {"count": {"triangles": None}},
        {"triest-fd": {"net_edges": 49, "triangles": 400.0}},
        {"triest-fd": {"net_edges": 50, "triangles": 481.0}},
    ):
        results = {**good, **bad}
        assert perf_checks.check_estimates(results, rules), bad
    assert perf_checks.check_estimates({"count": good["count"]}, rules) == ["triest-fd: no result"]


def test_self_time_subtracts_direct_children(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    monkeypatch.setattr(perf_trace, "_clock", lambda: next(ticks))
    tracer = perf_trace.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    spans = tracer.summary()["spans"]
    assert spans["outer"] == {"total": 10.0, "self": 6.0, "calls": 1}
    assert spans["inner"] == {"total": 4.0, "self": 4.0, "calls": 2}


def test_benchmark_json_names_what_run_py_reports():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-file", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
