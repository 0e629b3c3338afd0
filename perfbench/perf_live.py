"""The live-watch workload: an open-loop edge generator feeding ``repro watch -``.

The generator writes pre-rendered edge lines into the watcher's stdin on
a fixed schedule (edge ``i`` is due ``i / rate`` seconds after the
start) that does not slow down when the watcher does; a reader thread
stamps each ``--jsonl`` snapshot line as it arrives on the watcher's
stdout. The pipe is enlarged with ``F_SETPIPE_SZ`` so a full pipe does
not stall the schedule; how late the schedule ran is reported anyway.
"""

from __future__ import annotations

import fcntl
import json
import os
import subprocess
import tempfile
import threading
import time

from perf_trace import peak_rss_kb

_clock = time.perf_counter
_PIPE_BYTES = 1 << 20
_TICK = 0.002  # the generator writes whatever fell due, then sleeps 2 ms


def render(edges) -> tuple[bytes, list[int]]:
    """Edge lines as one blob plus the byte offset of every line start."""
    lines = [f"{u} {v}\n".encode() for u, v in edges]
    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line))
    return b"".join(lines), offsets


def _grow_pipe(fd: int) -> None:
    setter = getattr(fcntl, "F_SETPIPE_SZ", 1031)
    try:
        fcntl.fcntl(fd, setter, _PIPE_BYTES)
    except OSError:
        pass  # the schedule's lateness is reported either way


def run(argv, env, blob: bytes, offsets, rate: float, timeout: float) -> dict:
    """Drive one watcher over the whole schedule and collect its snapshots.

    Returns ``t0`` (when edge 0 was due), every snapshot read as
    ``(read_time, edges, final, results)``, the watcher's peak resident
    memory (its ``VmHWM``, read as each snapshot arrives), and the
    generator's health: the most an edge was handed to the pipe after
    its due time, and the largest backlog (edges written but not yet
    covered by a snapshot) seen at a snapshot.
    """
    total = len(offsets) - 1
    stderr = tempfile.TemporaryFile()
    proc = subprocess.Popen(
        argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr
    )
    _grow_pipe(proc.stdin.fileno())
    written = [0]
    late_max = [0.0]
    reads: list[tuple] = []
    backlog_max = [0]
    rss_kb = [0]
    errors: list[str] = []
    t0 = _clock() + 0.05

    def writer():
        fd = proc.stdin.fileno()
        view = memoryview(blob)
        try:
            while written[0] < total:
                now = _clock()
                due = min(total, int((now - t0) * rate) + 1) if now >= t0 else 0
                if due > written[0]:
                    chunk = view[offsets[written[0]] : offsets[due]]
                    while chunk:
                        chunk = chunk[os.write(fd, chunk) :]
                    late_max[0] = max(late_max[0], _clock() - (t0 + written[0] / rate))
                    written[0] = due
                # One write per tick, not per edge: a loop that writes each
                # edge as it falls due would spin and take a core from
                # the watcher.
                time.sleep(_TICK)
        except OSError as exc:
            errors.append(f"generator: {exc}")
        finally:
            proc.stdin.close()

    def reader():
        for line in proc.stdout:
            stamp = _clock()
            try:
                snap = json.loads(line)
            except ValueError:
                errors.append(f"unparseable snapshot line {line[:80]!r}")
                continue
            try:
                rss_kb[0] = max(rss_kb[0], peak_rss_kb(proc.pid))
            except OSError:
                pass  # exited between the line and the read
            edges = int(snap.get("edges", -1))
            backlog_max[0] = max(backlog_max[0], written[0] - edges)
            results = {e["name"]: e["results"] for e in snap.get("estimators", [])}
            reads.append((stamp, edges, bool(snap.get("final")), results))

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join(max(1.0, timeout - (_clock() - t0)))
        if any(thread.is_alive() for thread in threads):
            errors.append("watcher did not finish in time")
    finally:
        if any(thread.is_alive() for thread in threads):
            proc.kill()
            for thread in threads:
                thread.join(5.0)
        proc.wait()
        proc.stdout.close()
        stderr.seek(0)
        tail = stderr.read()[-400:].decode(errors="replace")
        stderr.close()
    if proc.returncode != 0:
        errors.append(f"watcher exited {proc.returncode}: {tail}")
    return {
        "t0": t0,
        "reads": reads,
        "rss_kb": rss_kb[0],
        "late_ms_max": late_max[0] * 1e3,
        "backlog_max": backlog_max[0],
        "errors": errors,
    }


def setup_seconds(argv, env) -> float:
    """Launch-to-exit time of the same watcher over an empty stdin."""
    start = _clock()
    proc = subprocess.Popen(
        argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL
    )
    try:
        proc.wait(60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"watcher over empty stdin exited {proc.returncode}")
    return _clock() - start
