#!/usr/bin/env python3
"""The repository benchmark: five seeded workloads on the paths users run.

    python3 perfbench/run.py --workload bulk-file --seed 1 --seconds 15 --trace 0

Run from the repository root (the program is imported from ``src/``).
Each run generates (or reuses) its seeded input, times several launches
of the process under test up to its first batch (``setup_s``), measures
for ``--seconds`` after a discarded warm-up, checks every output
against ground truth, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (from passes run
with the layer wrappers of ``perf_trace.py`` installed) together with the
tracing overhead. See ``perfbench/README.md`` for the workloads, the
metric definitions and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import perf_checks
import perf_data
import perf_live

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FILERUN = HERE / "perf_filerun.py"
WATCH_TRACED = HERE / "perf_watch_traced.py"
_clock = time.perf_counter

#: Launches of the process under test timed for ``setup_s`` (median).
SETUP_LAUNCHES = 5
#: Live-watch batches dropped from the latency sample while the fresh
#: watcher warms up (first allocations, first kernel calls).
LIVE_WARMUP_BATCHES = 8

END_TO_END = {
    "throughput_meps": "Medges/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

ESTIMATOR_NAMES = ("count", "transitivity", "sliding-window", "triest-fd", "dynamic-sampler")

PER_LAYER = {
    "io.parse_s": "s",
    "io.rows_in": "count",
    "io.dedup_s": "s",
    "io.dedup_keep_ratio": "ratio",
    "source.wait_s": "s",
    "batch.context_s": "s",
    "batch.contexts_built": "count",
    **{f"est.{name}.update_s": "s" for name in ESTIMATOR_NAMES},
    **{f"est.{name}.edges": "count" for name in ESTIMATOR_NAMES},
    "journal.append_s": "s",
    "journal.sync_s": "s",
    "journal.bytes": "bytes",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "bytes",
    "checkpoint.saves": "count",
    "pipeline.snapshot_encode_s": "s",
    "shm.send_s": "s",
    "shm.bytes": "bytes",
    "worker.consume_s.max": "s",
    "worker.consume_s.min": "s",
    "worker.idle_s.max": "s",
    "supervisor.snapshot_s": "s",
    "supervisor.restarts": "count",
    "sharded.merge_s": "s",
    "gen.late_ms_max": "ms",
    "gen.backlog_max_edges": "count",
    "trace.overhead_pct": "%",
}

# Relative tolerances of the estimate checks: six or more standard
# deviations of each estimator's error over seeds at these sizes
# (README: "Correctness checks").
_TOL_COUNT = 0.3
_TOL_WEDGES = 0.05
_TOL_TRANSITIVITY = 0.3
_TOL_TURNSTILE = 0.2
_TOL_WINDOW = 0.5

WORKLOADS = {
    "bulk-file": {
        "kind": "file",
        "recipe": "snap",
        "params": {"num_edges": 196_608},
        "estimators": ["count", "transitivity"],
        "batch_size": 65_536,
        "workers": 1,
        "signed": False,
    },
    "sharded-file": {
        "kind": "file",
        "recipe": "snap",
        "params": {"num_edges": 196_608},
        "estimators": ["count", "transitivity"],
        "batch_size": 65_536,
        "workers": 2,
        "signed": False,
    },
    "turnstile-file": {
        "kind": "file",
        "recipe": "turnstile",
        "params": {"n_events": 8_192, "n_vertices": 700, "delete_ratio": 0.2},
        "estimators": ["triest-fd", "dynamic-sampler"],
        "batch_size": 1_024,
        "workers": 1,
        "signed": True,
    },
    "window-file": {
        "kind": "file",
        "recipe": "window",
        "params": {"num_edges": 1_024, "clique_size": 12, "window": 65_536},
        "estimators": ["sliding-window"],
        "batch_size": 128,
        "workers": 1,
        "signed": False,
    },
    "live-watch": {
        "kind": "live",
        "rate": 30_000.0,
        "batch_size": 4_096,
        "checkpoint_every": 16,
    },
}


def info(text: str) -> None:
    print(f"# {text}", flush=True)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_FAULT_PLAN", None)
    return env


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _expected(cfg, truth) -> dict:
    """The estimate rules for one workload's passes (see perf_checks)."""
    if cfg["recipe"] == "snap":
        return {
            "count": [("triangles", truth["triangles"], _TOL_COUNT)],
            "transitivity": [
                ("triangles", truth["triangles"], _TOL_COUNT),
                ("wedges", truth["wedges"], _TOL_WEDGES),
                ("transitivity", truth["transitivity"], _TOL_TRANSITIVITY),
            ],
        }
    if cfg["recipe"] == "turnstile":
        return {
            name: [
                ("net_edges", truth["net_edges"], None),
                ("triangles", truth["triangles"], _TOL_TURNSTILE),
            ]
            for name in ("triest-fd", "dynamic-sampler")
        }
    return {"sliding-window": [("window_triangles", truth["window_triangles"], _TOL_WINDOW)]}


# ----------------------------------------------------------------------
# file workloads
# ----------------------------------------------------------------------
def _child(spec, env):
    return subprocess.Popen(
        [sys.executable, str(FILERUN), json.dumps(spec)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )


def _probe_setup(spec, env) -> float:
    start = _clock()
    proc = _child(dict(spec, mode="probe"), env)
    try:
        line = proc.stdout.readline()
        elapsed = _clock() - start
        proc.stdout.read()
        proc.wait(60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def _measure(spec, env, timeout) -> dict:
    proc = _child(dict(spec, mode="measure"), env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _span(summary, name, field="total"):
    return summary["spans"].get(name, {}).get(field, 0.0)


def _count(summary, name):
    return summary["counts"].get(name, 0.0)


def _layers(parent, workers=(), restarts=0) -> dict:
    """Per-layer metrics from one process's span summary (plus its workers')."""
    every = [parent, *workers]
    rows_in = _count(parent, "io.dedup_rows_in")
    consume = [_span(w, "worker.consume") for w in workers] or [0.0]
    idle = [_span(w, "worker.idle") for w in workers] or [0.0]
    out = {
        "io.parse_s": _span(parent, "io.parse"),
        "io.rows_in": _count(parent, "io.rows_in"),
        "io.dedup_s": _span(parent, "io.dedup", "self"),
        "io.dedup_keep_ratio": (
            _count(parent, "io.dedup_rows_out") / rows_in if rows_in else 0.0
        ),
        "source.wait_s": _span(parent, "source", "self"),
        "batch.context_s": sum(_span(s, "batch.context") for s in every),
        "batch.contexts_built": sum(_count(s, "batch.contexts_built") for s in every),
        "journal.append_s": _span(parent, "journal.append"),
        "journal.sync_s": _span(parent, "journal.sync"),
        "journal.bytes": _count(parent, "journal.bytes"),
        "checkpoint.save_s": _span(parent, "checkpoint.save"),
        "checkpoint.bytes": _count(parent, "checkpoint.bytes"),
        "checkpoint.saves": _count(parent, "checkpoint.saves"),
        "pipeline.snapshot_encode_s": _span(parent, "pipeline.snapshot_encode"),
        "shm.send_s": _span(parent, "shm.send"),
        "shm.bytes": _count(parent, "shm.bytes"),
        "worker.consume_s.max": max(consume),
        "worker.consume_s.min": min(consume),
        "worker.idle_s.max": max(idle),
        "supervisor.snapshot_s": _span(parent, "supervisor.snapshot"),
        "supervisor.restarts": restarts,
        "sharded.merge_s": _span(parent, "sharded.merge"),
    }
    for name in ESTIMATOR_NAMES:
        out[f"est.{name}.update_s"] = sum(_span(s, f"est.{name}.update") for s in every)
        out[f"est.{name}.edges"] = sum(_count(s, f"est.{name}.edges") for s in every)
    return out


def _layer_table(summaries, label: str) -> None:
    """Print per-layer self time (span minus child spans), per pass."""
    merged: dict[str, list[float]] = {}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            row = merged.setdefault(name, [0.0, 0.0, 0.0])
            row[0] += entry["calls"]
            row[1] += entry["total"]
            row[2] += entry["self"]
    if not merged:
        return
    n = len(summaries)
    info(f"layer table ({label}): calls  total_s  self_s")
    for name, (calls, total, self_time) in sorted(merged.items(), key=lambda kv: -kv[1][2]):
        info(f"  {name:<28} {calls / n:8.1f} {total / n:9.4f} {self_time / n:9.4f}")


def run_file(name, cfg, args, env) -> dict:
    start = _clock()
    path, truth, folder = perf_data.prepare(cfg["recipe"], cfg["params"], args.seed, env)
    info(f"data {path.name} in {folder.name}: {json.dumps(truth, sort_keys=True)}")
    info(f"data ready in {_clock() - start:.2f}s (not part of setup_s)")
    spec = {
        "path": str(path),
        "signed": cfg["signed"],
        "estimators": cfg["estimators"],
        "batch_size": cfg["batch_size"],
        "workers": cfg["workers"],
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "min_passes": 4 if args.trace else 5,
    }
    setups = [_probe_setup(spec, env) for _ in range(SETUP_LAUNCHES)]
    work_dir = tempfile.mkdtemp(prefix="run-", dir=perf_data.CACHE)
    try:
        spec["work_dir"] = work_dir
        out = _measure(spec, env, timeout=args.seconds * 3 + 60)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    passes = out["passes"]

    # Correctness: every pass, the warm-up included, is one operation.
    expected = _expected(cfg, truth)
    want_edges = truth["distinct_edges"] if cfg["recipe"] != "turnstile" else truth["lines"]
    reference = passes[0]["results"]
    failed = 0
    for p in passes:
        problems = perf_checks.check_estimates(p["results"], expected)
        if p["edges"] != want_edges:
            problems.append(f"edges {p['edges']} != {want_edges}")
        if p["results"] != reference:
            problems.append("results differ from the first pass with the same seed")
        if p["restarts"]:
            problems.append(f"{p['restarts']} worker restarts")
        if p["index"] == 0 and not perf_data.same_as_before(folder, name, p["results"]):
            problems.append("results differ from an earlier run with this seed")
        if p.get("trace") and name == "bulk-file":
            summary = p["trace"]
            busy = _span(summary, "source") + _span(summary, "batch.context") + sum(
                _span(summary, f"est.{e}.update") for e in ESTIMATOR_NAMES
            )
            share = busy / _span(summary, "pass")
            info(f"pass {p['index']}: source+context+estimators = {share:.3f} of pass time")
            if abs(1.0 - share) > 0.1:
                problems.append(f"layers account for {share:.3f} of the pass, not within 0.1")
        if problems:
            failed += 1
            info(f"pass {p['index']} FAILED: {'; '.join(problems)}")
    info(f"results: {json.dumps(reference, sort_keys=True)}")

    measured = [p for p in passes if p["index"] > 0 and not p["traced"]]
    times = [p["seconds"] for p in measured]
    info(
        f"{len(measured)} timed passes after 1 warm-up: pass s median {statistics.median(times):.4f}"
        f" (min {min(times):.4f}, max {max(times):.4f}); setup launches {setups}"
    )
    # Workers fork afresh for every pass and count only what they add to
    # the pages they share with the parent; the median pass stands for them.
    rss_kb = out["rss_kb"] + statistics.median(p.get("worker_rss_kb", 0) for p in measured)
    result = {"correct": failed == 0, "attempted": len(passes), "failed": failed}
    if not args.trace:
        intervals = [i for p in measured for i in p["intervals"]]
        tail_value, tail_pct, n = perf_checks.tail(intervals)
        info(f"latency_tail_ms is p{tail_pct:.1f} of {n} per-batch samples")
        result["metrics"] = {
            "throughput_meps": _metric(
                statistics.median(p["edges"] / p["seconds"] for p in measured) / 1e6,
                END_TO_END["throughput_meps"],
            ),
            "latency_p50_ms": _metric(statistics.median(intervals) * 1e3, "ms"),
            "latency_tail_ms": _metric(tail_value * 1e3, "ms"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
        }
        return result
    traced = [p for p in passes if p["traced"]]
    rows = [_layers(p["trace"], p.get("worker_traces", []), p["restarts"]) for p in traced]
    layers = {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}
    _layer_table([p["trace"] for p in traced], "parent process, per pass")
    workers = [w for p in traced for w in p.get("worker_traces", [])]
    if workers:
        _layer_table(workers, f"{len(workers) // len(traced)} workers summed, per pass")
    overhead = statistics.median(p["seconds"] for p in traced) / statistics.median(times)
    layers["trace.overhead_pct"] = (overhead - 1.0) * 100.0
    result["metrics"] = _layer_metrics(layers)
    return result


def _layer_metrics(values: dict) -> dict:
    return {key: _metric(float(values.get(key, 0.0)), unit) for key, unit in PER_LAYER.items()}


# ----------------------------------------------------------------------
# live-watch
# ----------------------------------------------------------------------
def _watch_argv(cfg, work: Path, tag: str, trace_out: Path | None):
    journal = work / f"journal-{tag}"
    checkpoint = work / f"checkpoint-{tag}"
    args = [
        "watch",
        "--input",
        "-",
        "--estimator",
        "count",
        "--jsonl",
        "/dev/stdout",
        "--journal",
        str(journal),
        "--checkpoint",
        str(checkpoint),
        "--checkpoint-every",
        str(cfg["checkpoint_every"]),
    ]
    if trace_out is not None:
        return [sys.executable, str(WATCH_TRACED), str(trace_out), *args], journal
    return [sys.executable, "-m", "repro", *args], journal


def _journal_matches(journal: Path, edges: np.ndarray) -> bool:
    from repro.streaming import journal_records

    arrays = [batch.array for batch, _ in journal_records(journal)]
    got = np.concatenate(arrays) if arrays else np.empty((0, 2), dtype=np.int64)
    return np.array_equal(got, edges)


def _live_pass(cfg, env, work, tag, blob, offsets, edges, truth_triangles, trace_out, timeout):
    """One watcher over the schedule; returns (latencies, problems, run)."""
    argv, journal = _watch_argv(cfg, work, tag, trace_out)
    run = perf_live.run(argv, env, blob, offsets, cfg["rate"], timeout)
    total = len(offsets) - 1
    latencies, problems = perf_checks.match_snapshots(
        [(stamp, n, final) for stamp, n, final, _ in run["reads"]],
        run["t0"],
        cfg["rate"],
        cfg["batch_size"],
        total,
    )
    problems.extend(run["errors"])
    finals = [results for _, _, final, results in run["reads"] if final]
    final = finals[-1] if finals else {}
    problems.extend(
        perf_checks.check_estimates(
            final, {"count": [("triangles", truth_triangles, _TOL_COUNT)]}
        )
    )
    if not _journal_matches(journal, edges[:total]):
        problems.append("journal does not hold exactly the edges sent")
    run["final"] = final
    run["sent"] = total
    return latencies, problems, run


def _rendered(path: Path, total: int):
    blob = path.read_bytes()
    ends = np.flatnonzero(np.frombuffer(blob, dtype=np.uint8) == 10) + 1
    offsets = [0, *ends[:total].tolist()]
    edges = np.loadtxt(path, dtype=np.int64, max_rows=total).reshape(-1, 2)
    return blob[: offsets[-1]], offsets, edges


def run_live(name, cfg, args, env) -> dict:
    batch = cfg["batch_size"]
    # The whole schedule fits in --seconds; with --trace 1 the run is an
    # untraced and a traced watcher over the first half each.
    total = max(2, int(cfg["rate"] * args.seconds) // batch) * batch
    half = (total // 2) // batch * batch
    start = _clock()
    path, truth, folder = perf_data.prepare(
        "simple", {"num_edges": total, "prefix": half}, args.seed, env
    )
    blob, offsets, edges = _rendered(path, total)
    info(f"data {path.name} in {folder.name}: {json.dumps(truth, sort_keys=True)}")
    half_truth = truth["prefix_triangles"]
    info(f"data ready in {_clock() - start:.2f}s (not part of setup_s)")
    work = Path(tempfile.mkdtemp(prefix="live-", dir=perf_data.CACHE))
    try:
        setups = []
        for i in range(SETUP_LAUNCHES):
            argv, _ = _watch_argv(cfg, work, f"setup{i}", None)
            setups.append(perf_live.setup_seconds(argv, env))
        timeout = args.seconds * 2 + 30
        if not args.trace:
            latencies, problems, run = _live_pass(
                cfg, env, work, "run", blob, offsets, edges, truth["triangles"], None, timeout
            )
            runs = [(latencies, problems, run)]
        else:
            trace_out = work / "trace.json"
            h_blob, h_offsets = blob[: offsets[half]], offsets[: half + 1]
            runs = [
                _live_pass(cfg, env, work, tag, h_blob, h_offsets, edges, half_truth, out, timeout)
                for tag, out in (("plain", None), ("traced", trace_out))
            ]
            summary = json.loads(trace_out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = 0
    failed = 0
    for _, problems, run in runs:
        # One operation per batch snapshot plus the final one.
        attempted += run["sent"] // batch + 1
        failed += len(problems)
        for problem in problems[:10]:
            info(f"FAILED: {problem}")
    finals = [run["final"] for _, _, run in runs]
    if args.trace and finals[0] != finals[1]:
        failed += 1
        info("FAILED: traced and untraced watchers disagree on the same stream")
    if not perf_data.same_as_before(folder, name + ("-half" if args.trace else ""), finals[0]):
        failed += 1
        info("FAILED: results differ from an earlier run with this seed")
    info(f"final results: {json.dumps(finals[0], sort_keys=True)}")
    info(f"setup launches {setups}")

    def kept(latencies):
        return [v for b, v in sorted(latencies.items()) if b > LIVE_WARMUP_BATCHES]

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    latencies, _, run = runs[0]
    samples = kept(latencies)
    if not args.trace:
        tail_value, tail_pct, n = perf_checks.tail(samples)
        info(f"latency_tail_ms is p{tail_pct:.1f} of {n} per-batch samples "
             f"(first {LIVE_WARMUP_BATCHES} batches dropped as warm-up)")
        info(f"generator: late by at most {run['late_ms_max']:.2f} ms, "
             f"backlog at most {run['backlog_max']} edges")
        finals_at = [stamp for stamp, _, final, _ in run["reads"] if final]
        result["metrics"] = {
            "throughput_meps": _metric(total / (finals_at[-1] - run["t0"]) / 1e6, "Medges/s"),
            "latency_p50_ms": _metric(statistics.median(samples) * 1e3, "ms"),
            "latency_tail_ms": _metric(tail_value * 1e3, "ms"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(run["rss_kb"] / 1024.0, "MB"),
        }
        return result
    traced_samples = kept(runs[1][0])
    _layer_table([summary], "traced watcher, whole run")
    layers = _layers(summary)
    layers.update(
        {
            "gen.late_ms_max": max(r["late_ms_max"] for _, _, r in runs),
            "gen.backlog_max_edges": max(r["backlog_max"] for _, _, r in runs),
            "trace.overhead_pct": (
                statistics.median(traced_samples) / statistics.median(samples) - 1.0
            )
            * 100.0,
        }
    )
    result["metrics"] = _layer_metrics(layers)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    perf_data.CACHE.mkdir(exist_ok=True)
    cfg = WORKLOADS[args.workload]
    runner = run_live if cfg["kind"] == "live" else run_file
    result = runner(args.workload, cfg, args, _env())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
