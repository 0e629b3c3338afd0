"""The process under test for the file workloads.

Run as ``python perfbench/perf_filerun.py '<spec json>'`` with the
program's ``src`` on ``PYTHONPATH``. It builds what ``repro pipeline``
builds for the spec -- ``FileSource`` (dedup at its default) feeding a
``Pipeline.from_registry`` or a ``ShardedPipeline`` with the CLI's
defaults -- and then, by ``mode``:

- ``probe``: prints ``ready`` when the pipeline asks for its first
  batch, then stops. The parent times launch-to-``ready`` as set-up.
- ``measure``: runs one discarded warm-up pass, then timed passes until
  ``seconds`` have passed, each with a fresh pipeline over the same
  file and seed. With ``trace`` every second timed pass runs with the
  layer wrappers installed. The last stdout line is a JSON summary.
"""

from __future__ import annotations

import json
import os
import sys
import time

from perf_trace import Tracer, install, install_process_reports, peak_rss_kb

from repro.core.backend import set_backend
from repro.streaming import EdgeSource, FileSource, Pipeline, ShardedPipeline

_clock = time.perf_counter


class StampedSource(EdgeSource):
    """Delegate to ``inner``, stamping when each batch is requested.

    ``stamps[k]`` is when the pipeline asked for batch ``k``; the last
    stamp is when it asked past the end. Consecutive differences are
    the per-batch intervals as the pipeline sees them.
    """

    def __init__(self, inner, stamps: list) -> None:
        self.inner = inner
        self.signed = inner.signed
        self.replayable = inner.replayable
        self._stamps = stamps

    def batches(self, batch_size: int):
        return self._stamped(self.inner.batches(batch_size))

    def _stamped(self, batches):
        stamps = self._stamps
        stamps.append(_clock())
        for batch in batches:
            yield batch
            stamps.append(_clock())


class ProbeSource(EdgeSource):
    """An empty stream that prints ``ready`` when its first batch is asked for.

    ``batches`` is a generator, so nothing runs until the first ``next``:
    a sharded run asks only after its workers are spawned.
    Ending the stream there (rather than raising) lets the pipeline and
    its workers shut down the normal way, quickly and without leaking
    shared memory.
    """

    def __init__(self, signed: bool) -> None:
        self.signed = signed

    def batches(self, batch_size: int):
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        yield from ()


def _runner(spec):
    if spec["workers"] > 1:
        return ShardedPipeline(
            spec["estimators"],
            workers=spec["workers"],
            seed=0,
            transport="auto",
            max_restarts=2,
        )
    return Pipeline.from_registry(spec["estimators"], seed=0)


def _source(spec, stamps):
    return StampedSource(FileSource(spec["path"], signed=spec["signed"]), stamps)


def probe(spec) -> None:
    # The file is opened as a run would open it, but not read.
    FileSource(spec["path"], signed=spec["signed"])
    _runner(spec).run(ProbeSource(spec["signed"]), batch_size=spec["batch_size"])


def _worker_reports(directory: str) -> list[dict]:
    reports = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                reports.append(json.load(handle))
    return reports


def measure(spec) -> dict:
    tracer = Tracer()
    sharded = spec["workers"] > 1
    pass_dir = [spec["work_dir"]]
    if sharded:
        install_process_reports(lambda: pass_dir[0], tracer if spec["trace"] else None)
    passes = []
    deadline = None
    index = 0
    # A single-process pass runs on one CPU, pinned in turn to each CPU
    # the process may use: the CPUs of a shared machine slow down
    # independently of each other for seconds at a time, so alternating
    # samples both instead of whichever one the scheduler happened to
    # pick. Sharded runs keep every CPU for their workers.
    cpus = sorted(os.sched_getaffinity(0))
    while True:
        if not sharded:
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        traced = spec["trace"] and index > 0 and index % 2 == 0
        pass_dir[0] = os.path.join(spec["work_dir"], f"pass-{index}")
        os.makedirs(pass_dir[0], exist_ok=True)
        undo = None
        if traced:
            tracer.reset()
            undo = install(tracer)
        try:
            runner = _runner(spec)
            stamps: list[float] = []
            source = _source(spec, stamps)
            start = _clock()
            if traced:
                with tracer.span("pass"):
                    report = runner.run(source, batch_size=spec["batch_size"])
            else:
                report = runner.run(source, batch_size=spec["batch_size"])
            seconds = _clock() - start
        finally:
            if undo is not None:
                undo()
        record = {
            "index": index,
            "traced": traced,
            "seconds": seconds,
            "edges": report.edges,
            "intervals": [b - a for a, b in zip(stamps, stamps[1:])],
            "results": {e.name: e.results for e in report.estimators},
            "restarts": sum(getattr(runner, "last_restarts", None) or []),
        }
        if sharded:
            workers = _worker_reports(pass_dir[0])
            record["worker_rss_kb"] = sum(w["rss_kb"] for w in workers)
            record["worker_traces"] = [w["trace"] for w in workers if w["trace"]]
        if traced:
            record["trace"] = tracer.summary()
        passes.append(record)
        if index == 0:
            deadline = _clock() + spec["seconds"]
        elif _clock() >= deadline and index >= spec["min_passes"]:
            break
        index += 1
    return {
        "passes": passes,
        "rss_kb": peak_rss_kb(),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    set_backend(None)  # what the CLI does before building anything
    if spec["mode"] == "probe":
        probe(spec)
        return 0
    result = measure(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
