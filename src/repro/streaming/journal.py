"""Durable ingest journal: a write-ahead log for edge batches.

Checkpoints (PR 3) make *replayable* sources crash-safe: resume seeks
the file back to the recorded position. A non-replayable source --
stdin, a socket, a follow file whose history rotated away -- cannot be
re-read, so every edge since the last checkpoint dies with the
process. The journal closes that gap with the standard write-ahead
contract: each batch is appended (and flushed to the OS) *before* any
estimator sees it, so a ``kill -9`` can lose at most edges the kernel
never received. On resume the pipeline replays the journal from the
``(segment, offset)`` recorded in the checkpoint manifest and only
then returns to the live source -- exactly once, bit-identical,
because replay re-delivers the *exact* recorded batches in their
original arrival order (the arbitrary-order model the estimators
assume).

Format (native byte order; a journal is a same-machine crash artifact,
not an interchange file):

- segment files ``segment-<seq>.wal``, each starting with an 8-byte
  magic, rotated once they exceed ``max_segment_bytes``;
- one record per batch: a ``<length, crc32>`` header followed by the
  payload -- one flags byte (bit 0: signed) and the batch's int64 wire
  image (``(w, 2)`` unsigned, ``(w, 3)`` turnstile, signs included).

Durability is tiered by the fsync policy:

- ``always``: fsync after every append -- power-loss safe, slowest;
- ``batch`` (default): fsync at rotation, at :meth:`JournalWriter.sync`
  (the pipeline calls it before every checkpoint save, so a manifest
  never references non-durable journal bytes), and on close;
- ``off``: never fsync -- still ``kill -9``-safe (every append is
  flushed to the OS), but an OS crash may lose the tail.

Recovery: opening a journal truncates a *torn tail* (a final record
whose bytes end mid-write) and nothing else; a complete record that
fails its CRC is never silently skipped -- it raises
:class:`~repro.errors.JournalCorruptError`. A full disk degrades the
writer to warn-and-continue (:class:`~repro.errors.JournalWriteWarning`),
mirroring periodic checkpoint saves.

Segments wholly behind the newest checkpoint are dead weight;
:meth:`JournalWriter.compact` unlinks them oldest-first, so a crash
mid-compaction can only leave *extra* segments behind, never remove
one a resume still needs.
"""

from __future__ import annotations

import os
import struct
import time
import warnings
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import InvalidParameterError, JournalCorruptError, JournalWriteWarning
from . import faults as _faults
from .batch import EdgeBatch
from .source import EdgeSource

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "FSYNC_POLICIES",
    "JournalSource",
    "JournalWriter",
    "journal_records",
]

#: fsync policies accepted by :class:`JournalWriter`.
FSYNC_POLICIES = ("always", "batch", "off")

DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024
_MIN_SEGMENT_BYTES = 64

_MAGIC = b"RPRJNL01"
#: Record header: payload length, CRC32 of the payload.
_HEADER = struct.Struct("<II")
_FLAG_SIGNED = 1

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".wal"


def _segment_name(seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{seq:08d}{_SEGMENT_SUFFIX}"


def _list_segments(directory: Path) -> list[tuple[int, Path]]:
    """``(seq, path)`` for every segment file, ascending by sequence."""
    found = []
    for path in directory.iterdir():
        name = path.name
        if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
            continue
        stem = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
        try:
            found.append((int(stem), path))
        except ValueError:
            continue
    found.sort()
    return found


def _encode_batch(batch: EdgeBatch) -> bytes:
    flags = _FLAG_SIGNED if batch.signs is not None else 0
    wire = np.ascontiguousarray(batch.wire)
    return bytes([flags]) + wire.tobytes()


def _decode_batch(payload: bytes, where: str) -> EdgeBatch:
    if not payload:
        raise JournalCorruptError(f"{where}: empty journal record payload")
    width = 3 if payload[0] & _FLAG_SIGNED else 2
    body = payload[1:]
    if len(body) % (8 * width):
        raise JournalCorruptError(
            f"{where}: journal record payload is not a whole number of "
            f"{width}-column int64 rows"
        )
    wire = np.frombuffer(body, dtype=np.int64).reshape(-1, width).copy()
    return EdgeBatch.from_wire(wire)


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _scan_segment_tail(path: Path) -> int:
    """The byte offset after the last *complete, valid* record.

    Returns 0 when even the magic is truncated (the segment is rebuilt
    from scratch). A torn trailing record -- header or payload cut
    short -- ends the scan at the last good record. A complete record
    with a CRC mismatch is corruption, not a torn tail, and raises:
    truncating past it would silently discard valid data.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC))
        if len(magic) < len(_MAGIC):
            return 0
        if magic != _MAGIC:
            raise JournalCorruptError(f"{path.name}: bad segment magic")
        offset = len(_MAGIC)
        while True:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                return offset
            length, crc = _HEADER.unpack(header)
            payload = handle.read(length)
            if len(payload) < length:
                return offset
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise JournalCorruptError(
                    f"{path.name}: CRC mismatch at offset {offset}; a "
                    "complete record failed its checksum -- refusing to "
                    "truncate past it"
                )
            offset += _HEADER.size + length


def journal_records(
    directory, *, start: tuple[int, int] | None = None, limit: int | None = None
) -> Iterator[tuple[EdgeBatch, tuple[int, int]]]:
    """Replay ``(batch, (segment, offset))`` pairs from a journal.

    ``start`` is a position as recorded in a checkpoint manifest: the
    replay begins at the first record *after* it (positions name the
    byte offset following a record). With ``start=None`` the whole
    journal replays. ``offset`` in each yielded pair is again the
    offset after that record, so it can be stored directly.

    A torn trailing record in the *final* segment ends the iteration
    (it is recoverable: the writer truncates it on open). Anything
    else -- CRC mismatch, a short record mid-journal, a missing
    segment inside the replay range -- raises
    :class:`~repro.errors.JournalCorruptError`.
    """
    directory = Path(directory)
    segments = _list_segments(directory)
    if start is not None:
        start_seq, start_offset = int(start[0]), int(start[1])
        if segments and start_seq > segments[-1][0]:
            raise JournalCorruptError(
                f"journal position (segment {start_seq}) is beyond the "
                f"newest segment {segments[-1][0]}; wrong --journal "
                "directory for this checkpoint?"
            )
        segments = [(seq, path) for seq, path in segments if seq >= start_seq]
        if not segments and start is not None:
            raise JournalCorruptError(
                f"journal segment {start_seq} referenced by the checkpoint "
                "is missing (compacted or deleted)"
            )
        if segments and segments[0][0] != start_seq:
            raise JournalCorruptError(
                f"journal segment {start_seq} referenced by the checkpoint "
                "is missing (compacted or deleted)"
            )
    for prev, cur in zip(segments, segments[1:]):
        if cur[0] != prev[0] + 1:
            raise JournalCorruptError(
                f"journal has a gap: segment {prev[0]} is followed by "
                f"{cur[0]}"
            )
    yielded = 0
    for index, (seq, path) in enumerate(segments):
        final = index == len(segments) - 1
        offset = start_offset if (start is not None and seq == start_seq) else len(_MAGIC)
        with open(path, "rb") as handle:
            magic = handle.read(len(_MAGIC))
            if len(magic) < len(_MAGIC):
                if final:
                    return
                raise JournalCorruptError(f"{path.name}: truncated segment magic")
            if magic != _MAGIC:
                raise JournalCorruptError(f"{path.name}: bad segment magic")
            handle.seek(offset)
            while True:
                header = handle.read(_HEADER.size)
                if not header:
                    break
                if len(header) < _HEADER.size:
                    if final:
                        return
                    raise JournalCorruptError(
                        f"{path.name}: truncated record header at offset "
                        f"{offset} in a non-final segment"
                    )
                length, crc = _HEADER.unpack(header)
                payload = handle.read(length)
                if len(payload) < length:
                    if final:
                        return
                    raise JournalCorruptError(
                        f"{path.name}: truncated record payload at offset "
                        f"{offset} in a non-final segment"
                    )
                if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                    raise JournalCorruptError(
                        f"{path.name}: CRC mismatch at offset {offset}: "
                        "journal record is corrupt"
                    )
                offset += _HEADER.size + length
                yield _decode_batch(payload, f"{path.name}@{offset}"), (seq, offset)
                yielded += 1
                if limit is not None and yielded >= limit:
                    return


class JournalWriter:
    """Append :class:`EdgeBatch` records to a segmented on-disk journal.

    Opening a directory with existing segments recovers it first: a
    torn tail is truncated back to the last complete record, and the
    writer resumes appending there. Every append writes *and flushes*
    the record before returning, so the delivered stream is always a
    prefix of what a post-``kill -9`` replay yields.

    ``append`` returns the ``(segment, offset)`` position after the
    record -- the value checkpoints store -- or ``None`` once the
    writer has degraded (an append failed, e.g. disk full; a
    :class:`~repro.errors.JournalWriteWarning` was issued and the run
    continues un-journaled).
    """

    def __init__(
        self,
        directory,
        *,
        fsync: str = "batch",
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise InvalidParameterError(
                f"fsync must be one of {'/'.join(FSYNC_POLICIES)}, got {fsync!r}"
            )
        max_segment_bytes = int(max_segment_bytes)
        if max_segment_bytes < _MIN_SEGMENT_BYTES:
            raise InvalidParameterError(
                f"max_segment_bytes must be >= {_MIN_SEGMENT_BYTES}, "
                f"got {max_segment_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._max_segment_bytes = max_segment_bytes
        self._handle = None
        self._appends = 0
        self._bytes_appended = 0
        self._fsyncs = 0
        self._compacted = 0
        self._pending = 0
        self._last_sync = time.monotonic()
        self.degraded = False

        segments = _list_segments(self.directory)
        self._segments = len(segments)
        if segments:
            self._seq = segments[-1][0]
            self._recover_tail(segments[-1][1])
        else:
            self._seq = 1
            self._segments = 1
            self._open_segment()

    # -- lifecycle ----------------------------------------------------

    def _segment_path(self) -> Path:
        return self.directory / _segment_name(self._seq)

    def _recover_tail(self, path: Path) -> None:
        end = _scan_segment_tail(path)
        with open(path, "r+b") as handle:
            if end == 0:
                handle.truncate(0)
                handle.write(_MAGIC)
                end = len(_MAGIC)
            else:
                handle.seek(0, os.SEEK_END)
                if handle.tell() > end:
                    handle.truncate(end)
            handle.flush()
        self._handle = open(path, "ab")
        self._offset = end

    def _open_segment(self) -> None:
        self._handle = open(self._segment_path(), "ab")
        if self._handle.tell() == 0:
            self._handle.write(_MAGIC)
            self._handle.flush()
            if self._fsync != "off":
                _fsync_dir(self.directory)
        self._offset = self._handle.tell()

    def _rotate(self) -> None:
        handle, self._handle = self._handle, None
        handle.flush()
        if self._fsync != "off":
            os.fsync(handle.fileno())
            self._fsyncs += 1
            self._pending = 0
            self._last_sync = time.monotonic()
        handle.close()
        self._seq += 1
        self._segments += 1
        self._open_segment()

    def close(self) -> None:
        """Make the tail segment durable (:meth:`sync`) and close it."""
        handle = self._handle
        if handle is None or handle.closed:
            self._handle = None
            return
        try:
            self.sync()
        except OSError:
            pass
        finally:
            self._handle = None
            handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # -- appending ----------------------------------------------------

    def append(self, batch: EdgeBatch) -> tuple[int, int] | None:
        """Durably record ``batch``; return the position after it.

        Must be called *before* the batch is delivered to any
        estimator (append-before-deliver). Once degraded, appends are
        no-ops returning ``None``.
        """
        if self.degraded or self._handle is None:
            return None
        try:
            mangle = _faults.fire_journal_append()
            payload = _encode_batch(batch)
            record = (
                _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
                + payload
            )
            if (
                self._offset > len(_MAGIC)
                and self._offset + len(record) > self._max_segment_bytes
            ):
                self._rotate()
            record_start = self._offset
            self._handle.write(record)
            self._handle.flush()
            self._offset += len(record)
            if self._fsync == "always":
                os.fsync(self._handle.fileno())
                self._fsyncs += 1
                self._last_sync = time.monotonic()
            else:
                self._pending += 1
        except OSError as exc:
            self.degraded = True
            warnings.warn(
                JournalWriteWarning(
                    f"journal append failed ({exc}); durable ingest is "
                    f"disabled for the rest of the run -- a resume can "
                    f"replay only the {self._appends} batches already "
                    "journaled"
                ),
                stacklevel=2,
            )
            return None
        self._appends += 1
        self._bytes_appended += len(record)
        position = (self._seq, self._offset)
        if mangle is not None:
            self._apply_mangle(mangle, record_start, len(payload))
        return position

    def _apply_mangle(self, kind: str, record_start: int, payload_len: int) -> None:
        """Damage the just-written record (fault injection only).

        ``torn`` truncates the segment mid-record, simulating a crash
        with only part of the append durable -- meaningful as the
        *last* append of a run (later appends would land after the
        tear and be unreachable by replay). ``corrupt`` flips one
        payload byte, leaving a complete record with a bad CRC.
        """
        path = self._segment_path()
        if kind == "torn":
            cut = record_start + _HEADER.size + payload_len // 2
            self._handle.close()
            with open(path, "r+b") as handle:
                handle.truncate(cut)
            self._handle = open(path, "ab")
            self._offset = cut
        elif kind == "corrupt":
            flip_at = record_start + _HEADER.size + payload_len // 2
            with open(path, "r+b") as handle:
                handle.seek(flip_at)
                byte = handle.read(1)
                handle.seek(flip_at)
                handle.write(bytes([byte[0] ^ 0xFF]))

    def sync(self) -> None:
        """Make every appended record durable (per the fsync policy).

        The pipeline calls this before each checkpoint save so the
        manifest's journal position never points past what would
        survive a power loss. Under ``fsync='off'`` this only flushes
        to the OS -- the caller opted out of durability.
        """
        if self._handle is None or self._handle.closed:
            return
        self._handle.flush()
        if self._fsync != "off":
            os.fsync(self._handle.fileno())
            self._fsyncs += 1
            self._pending = 0
            self._last_sync = time.monotonic()

    # -- maintenance --------------------------------------------------

    def position(self) -> tuple[int, int]:
        """``(segment, offset)`` of the journal tail."""
        return (self._seq, self._offset)

    def compact(self, position) -> int:
        """Unlink segments wholly behind ``position``; return the count.

        ``position`` is a ``(segment, offset)`` pair or the
        ``{"segment": ..., "offset": ...}`` mapping stored in
        checkpoint metadata (``None`` is a no-op). Only segments with
        a *smaller* sequence than the position's are removed --
        oldest-first, so an interruption partway leaves extra
        segments, never a hole a resume needs.
        """
        if position is None:
            return 0
        if isinstance(position, dict):
            keep_seq = int(position["segment"])
        else:
            keep_seq = int(position[0])
        removed = 0
        for seq, path in _list_segments(self.directory):
            if seq >= keep_seq or seq == self._seq:
                break
            try:
                path.unlink()
            except OSError:
                break
            removed += 1
        self._compacted += removed
        self._segments -= removed
        return removed

    def stats(self) -> dict:
        """Journal health for the live surface (``watch --jsonl``)."""
        lag = time.monotonic() - self._last_sync if self._pending else 0.0
        return {
            "fsync": self._fsync,
            "segments": self._segments,
            "segment": self._seq,
            "offset": self._offset,
            "appends": self._appends,
            "bytes_appended": self._bytes_appended,
            "fsyncs": self._fsyncs,
            "compacted_segments": self._compacted,
            "fsync_lag_s": round(lag, 3),
            "degraded": self.degraded,
        }


class JournalSource(EdgeSource):
    """Replay a journal directory as an :class:`EdgeSource`.

    Yields the *exact* batches that were appended, in order, with
    their sign columns intact -- the journal preserves the original
    arrival batching, so ``batch_size`` is ignored (documented
    deviation: re-batching would move checkpoint boundaries and break
    bit-identical resume).
    """

    replayable = True

    def __init__(self, directory, *, start: tuple[int, int] | None = None) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise FileNotFoundError(f"journal directory not found: {directory}")
        self._start = (int(start[0]), int(start[1])) if start is not None else None
        self._signed: bool | None = None

    @property
    def signed(self) -> bool:  # type: ignore[override]
        """Whether the first journaled batch carries a sign column."""
        if self._signed is None:
            self._signed = False
            for batch, _position in self.records():
                self._signed = batch.signs is not None
                break
        return self._signed

    def records(self) -> Iterator[tuple[EdgeBatch, tuple[int, int]]]:
        """``(batch, (segment, offset))`` pairs, for position-aware replay."""
        return journal_records(self.directory, start=self._start)

    def batches(self, batch_size: int) -> Iterator[EdgeBatch]:
        for batch, _position in self.records():
            yield batch

    def __repr__(self) -> str:
        start = f", start={self._start}" if self._start is not None else ""
        return f"JournalSource({str(self.directory)!r}{start})"
