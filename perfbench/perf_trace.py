"""Spans and counters around each layer's entry points, from outside ``src/``.

:func:`install` wraps the calls a pass makes into each layer -- the
parser, dedup, the source, the per-batch index, every estimator's
update, the journal, checkpoints, snapshot encoding, the shared-memory
hand-off, supervision and the state merge -- by replacing attributes
on the program's modules and classes at run time, and returns a
function that puts the originals back. Nothing under ``src/`` changes.

A wrapper is skipped when its target no longer exists, so a refactor
that moves a layer loses that layer's numbers instead of breaking the
run. Spans nest on one stack per process; a span's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """Spans (name, start, end, parent) and named counters, in memory."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, _clock(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = _clock()
            self._stack.pop()

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0.0), value)

    def summary(self) -> dict:
        """``{"spans": {name: {total, self, calls}}, "counts": {...}}``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        spans: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = spans.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            entry["total"] += end - start
            entry["self"] += end - start - child_time[i]
            entry["calls"] += 1
        return {"spans": spans, "counts": dict(self.counts)}


def traced_iter(tracer: Tracer, name: str, iterable, rows: str | None = None):
    """Yield from ``iterable``, timing each step as a ``name`` span.

    With ``rows``, each item's length is added to that counter.
    """
    it = iter(iterable)
    try:
        while True:
            with tracer.span(name):
                try:
                    item = next(it)
                except StopIteration:
                    return
            if rows is not None:
                tracer.add(rows, len(item))
            yield item
    finally:
        close = getattr(it, "close", None)
        if close is not None:
            close()


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def replace(self, owner, attr: str, make) -> bool:
        original = owner.__dict__.get(attr, self._MISSING) if isinstance(
            owner, type
        ) else getattr(owner, attr, self._MISSING)
        if original is self._MISSING:
            return False
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))
        return True

    def add(self, owner, attr: str, value) -> None:
        setattr(owner, attr, value)
        self._undo.append((owner, attr, self._MISSING))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _iter_wrapper(tracer, name, rows=None):
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return traced_iter(tracer, name, original(*args, **kwargs), rows)

        return wrapper

    return make


def _span_wrapper(tracer, name):
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return wrapper

    return make


def _traced_estimator(tracer: Tracer, name: str, estimator):
    """Time ``estimator``'s batch updates as ``est.<name>.update`` spans."""
    busy = [False]  # an update that delegates to another is timed once

    def wrap(method):
        @functools.wraps(method)
        def wrapper(batch):
            if busy[0]:
                return method(batch)
            busy[0] = True
            try:
                with tracer.span(f"est.{name}.update"):
                    result = method(batch)
                tracer.add(f"est.{name}.edges", len(batch))
                return result
            finally:
                busy[0] = False

        return wrapper

    for attr in ("update_prepared", "update_batch"):
        method = getattr(estimator, attr, None)
        if callable(method):
            setattr(estimator, attr, wrap(method))
    return estimator


def peak_rss_kb(pid="self", field="VmHWM") -> int:
    """``VmHWM`` of a live process, in KiB: its own resident high-water mark.

    Unlike ``ru_maxrss``, it does not inherit the launching process's
    peak across ``exec``. ``field="VmRSS"`` reads the current size.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def _dir_bytes(path) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def install(tracer: Tracer):
    """Wrap every layer entry point that exists; return the undo function."""
    from repro.streaming import batch as batch_mod
    from repro.streaming import pipeline as pipeline_mod
    from repro.streaming import registry as registry_mod
    from repro.streaming import source as source_mod

    patches = _Patches()

    # graph.io via the names the sources call it by.
    for attr in ("iter_edge_array_chunks", "iter_signed_edge_array_chunks"):
        patches.replace(source_mod, attr, _iter_wrapper(tracer, "io.parse", "io.rows_in"))

    def make_dedup(original):
        @functools.wraps(original)
        def wrapper(chunks, *args, **kwargs):
            counted = _counting(chunks, tracer, "io.dedup_rows_in")
            return traced_iter(
                tracer, "io.dedup", original(counted, *args, **kwargs), "io.dedup_rows_out"
            )

        return wrapper

    patches.replace(source_mod, "dedup_edge_arrays", make_dedup)

    # streaming.source: one span per batch the source hands out.
    for cls_name in ("FileSource", "LineSource"):
        cls = getattr(source_mod, cls_name, None)
        if cls is not None:
            patches.replace(cls, "batches", _iter_wrapper(tracer, "source"))

    # streaming.batch: the shared per-batch index, counted per build.
    edge_batch = getattr(batch_mod, "EdgeBatch", None)
    if edge_batch is not None and isinstance(edge_batch.__dict__.get("context"), property):

        def make_context(prop):
            def fget(self):
                if getattr(self, "_context", True) is not None:
                    return prop.fget(self)
                with tracer.span("batch.context"):
                    value = prop.fget(self)
                tracer.add("batch.contexts_built")
                return value

            return property(fget, doc=prop.__doc__)

        patches.replace(edge_batch, "context", make_context)

    # core engines: every estimator the registry builds, here or in a worker.
    spec_cls = getattr(registry_mod, "EstimatorSpec", None)
    if spec_cls is not None:

        def make_create(original):
            @functools.wraps(original)
            def create(self, *args, **kwargs):
                return _traced_estimator(tracer, self.name, original(self, *args, **kwargs))

            return create

        patches.replace(spec_cls, "create", make_create)

    # streaming.journal and streaming.checkpoint.
    try:
        from repro.streaming import journal as journal_mod
    except ImportError:
        journal_mod = None
    writer = getattr(journal_mod, "JournalWriter", None)
    if writer is not None:

        def make_append(original):
            @functools.wraps(original)
            def append(self, batch):
                with tracer.span("journal.append"):
                    result = original(self, batch)
                stats = getattr(self, "stats", None)
                if callable(stats):
                    tracer.peak("journal.bytes", stats().get("bytes_appended", 0))
                return result

            return append

        patches.replace(writer, "append", make_append)
        patches.replace(writer, "sync", _span_wrapper(tracer, "journal.sync"))
    pipeline_cls = getattr(pipeline_mod, "Pipeline", None)
    if pipeline_cls is not None:

        def make_checkpoint(original):
            @functools.wraps(original)
            def checkpoint(self, path):
                with tracer.span("checkpoint.save"):
                    result = original(self, path)
                tracer.add("checkpoint.saves")
                tracer.peak("checkpoint.bytes", _dir_bytes(path))
                return result

            return checkpoint

        patches.replace(pipeline_cls, "checkpoint", make_checkpoint)
    snapshot_cls = getattr(pipeline_mod, "PipelineSnapshot", None)
    if snapshot_cls is not None:
        patches.replace(
            snapshot_cls, "to_dict", _span_wrapper(tracer, "pipeline.snapshot_encode")
        )

    # streaming.shm / supervisor / sharded (parent side; workers inherit
    # the patched classes when they fork).
    try:
        from repro.streaming import sharded as sharded_mod
        from repro.streaming import shm as shm_mod
        from repro.streaming import supervisor as supervisor_mod
    except ImportError:
        sharded_mod = shm_mod = supervisor_mod = None
    sender = getattr(shm_mod, "BatchSender", None)
    if sender is not None:

        def make_descriptor(original):
            @functools.wraps(original)
            def descriptor(self, batch, *args, **kwargs):
                result = original(self, batch, *args, **kwargs)
                if result is not None:
                    tracer.add("shm.bytes", batch.wire.nbytes)
                return result

            return descriptor

        patches.replace(sender, "descriptor", make_descriptor)
    supervisor = getattr(supervisor_mod, "ShardSupervisor", None)
    if supervisor is not None:
        # The whole hand-off of one batch: ring copy, waits for a free
        # slot and for room on every worker's queue.
        patches.replace(supervisor, "_broadcast", _span_wrapper(tracer, "shm.send"))
        patches.replace(supervisor, "_sync", _span_wrapper(tracer, "supervisor.snapshot"))
    sharded_cls = getattr(sharded_mod, "ShardedPipeline", None)
    if sharded_cls is not None:
        patches.replace(sharded_cls, "_merge_states", _span_wrapper(tracer, "sharded.merge"))
    feed = getattr(shm_mod, "TransportFeed", None)
    if feed is not None:
        patches.replace(feed, "__iter__", _iter_wrapper(tracer, "worker.idle"))
    program = getattr(supervisor_mod, "EstimatorShardProgram", None)
    if program is not None:
        patches.replace(program, "consume", _span_wrapper(tracer, "worker.consume"))
    return patches.undo


def install_cli(tracer: Tracer):
    """Also time the JSON encoding and write of each ``watch --jsonl`` line."""
    import json as json_mod

    from repro import cli

    patches = _Patches()

    class _TimedJson:
        def __getattr__(self, attr):
            return getattr(json_mod, attr)

        def dumps(self, *args, **kwargs):
            with tracer.span("pipeline.snapshot_encode"):
                return json_mod.dumps(*args, **kwargs)

    class _TimedFile:
        def __init__(self, handle):
            self._handle = handle

        def write(self, data):
            with tracer.span("pipeline.snapshot_encode"):
                return self._handle.write(data)

        def __getattr__(self, attr):
            return getattr(self._handle, attr)

    def traced_open(*args, **kwargs):
        return _TimedFile(open(*args, **kwargs))

    patches.add(cli, "json", _TimedJson())
    patches.add(cli, "open", traced_open)
    return patches.undo


def _counting(chunks, tracer: Tracer, name: str):
    for chunk in chunks:
        tracer.add(name, len(chunk))
        yield chunk


def install_process_reports(directory_of, tracer: Tracer | None):
    """Have every forked ``multiprocessing`` worker report as it exits.

    Each worker writes ``<directory_of()>/<pid>.json`` holding how far
    its resident memory rose above what it shared with the parent when
    it was forked (``VmHWM`` at exit minus ``VmRSS`` at start, KiB) and,
    when ``tracer`` is given, its span summary (the tracer is reset when
    the worker starts, so the summary covers that worker only). The
    worker calls ``directory_of`` on a copy of the parent's state as of
    the fork, so the caller can point each pass at its own directory.
    """
    import multiprocessing.process as process_mod

    patches = _Patches()

    def make_run(original):
        @functools.wraps(original)
        def run(self):
            directory = directory_of()
            inherited = peak_rss_kb(field="VmRSS")
            if tracer is not None:
                tracer.reset()
            try:
                return original(self)
            finally:
                report = {
                    "rss_kb": peak_rss_kb() - inherited,
                    "trace": tracer.summary() if tracer is not None else None,
                }
                path = os.path.join(directory, f"{os.getpid()}.json")
                with open(path + ".tmp", "w", encoding="utf-8") as handle:
                    json.dump(report, handle)
                os.replace(path + ".tmp", path)

        return run

    patches.replace(process_mod.BaseProcess, "run", make_run)
    return patches.undo
