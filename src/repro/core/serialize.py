"""Trace serialization: JSON-lines persistence for recorded executions.

Traces are this library's interchange format (record once, replay through
any analyzer), so being able to park them on disk matters: long benchmark
runs can be analyzed offline, failing interleavings can be attached to bug
reports, and regression suites can replay frozen traces.

Format: one JSON object per line.  The first line is a header
(``{"repro-trace": 1, "root": ...}``); each following line is one event::

    {"kind": "action", "tid": 1, "obj": "o", "method": "put",
     "args": ["a.com", "c1"], "returns": [{"$nil": true}]}

Values are restricted to JSON scalars, lists/tuples and two sentinels:
``{"$nil": true}`` encodes the paper's ``NIL`` and ``{"$tuple": [...]}``
preserves tuple-ness (actions' argument containers are always tuples; this
sentinel covers tuples *nested inside* argument values).  Unsupported
values fail loudly — silent lossy encoding would corrupt replay verdicts.
"""

from __future__ import annotations

import json
import time as _time
from typing import Any, IO, Iterator, List, Optional, Tuple

from .errors import FrameTooLargeError, ReproError
from .events import (NIL, Action, Event, EventKind, acquire_event,
                     action_event, begin_event, commit_event, fork_event,
                     join_event, read_event, release_event, write_event)
from .trace import Trace

__all__ = ["dump_trace", "dumps_trace", "load_trace", "loads_trace",
           "MAX_RECORD_BYTES", "TailReader", "follow_trace"]

_FORMAT_KEY = "repro-trace"
_FORMAT_VERSION = 1

#: Default single-record size cap for incremental readers.  Far above any
#: legitimate event line (events are a handful of scalars), far below a
#: footprint that could hurt the process — a frame past this cap is a
#: corrupt or adversarial stream, not a slow writer.
MAX_RECORD_BYTES = 1 << 20


class _TraceFormatError(ReproError):
    pass


def _encode_value(value: Any) -> Any:
    if value is NIL:
        return {"$nil": True}
    if isinstance(value, tuple):
        return {"$tuple": [_encode_value(item) for item in value]}
    if isinstance(value, list):
        return [_encode_value(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise _TraceFormatError(
        f"cannot serialize value {value!r} of type {type(value).__name__}; "
        f"traces may only carry JSON scalars, tuples/lists and NIL")


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if value.get("$nil") is True:
            return NIL
        if "$tuple" in value:
            return tuple(_decode_value(item) for item in value["$tuple"])
        raise _TraceFormatError(f"unknown value sentinel {value!r}")
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


def _encode_event(event: Event) -> dict:
    record: dict = {"kind": event.kind.value,
                    "tid": _encode_value(event.tid)}
    if event.kind is EventKind.ACTION:
        action = event.action
        record["obj"] = _encode_value(action.obj)
        record["method"] = action.method
        record["args"] = [_encode_value(v) for v in action.args]
        record["returns"] = [_encode_value(v) for v in action.returns]
    elif event.kind in (EventKind.FORK, EventKind.JOIN):
        record["peer"] = _encode_value(event.peer)
    elif event.kind in (EventKind.ACQUIRE, EventKind.RELEASE):
        record["lock"] = _encode_value(event.lock)
    elif event.kind.is_memory():
        record["location"] = _encode_value(event.location)
    return record


def _decode_header(record: Any) -> Tuple[Any, Optional[int]]:
    """A header record's ``(root, declared event count)``.

    The count is None for a header that declares none.  Any other shape
    raises :class:`_TraceFormatError`.
    """
    if not isinstance(record, dict) \
            or record.get(_FORMAT_KEY) != _FORMAT_VERSION:
        raise _TraceFormatError(
            f"not a repro trace (or unsupported version): header {record!r}")
    if "root" not in record:
        raise _TraceFormatError(f"trace header has no root: {record!r}")
    declared = record.get("events")
    if declared is not None and (type(declared) is not int or declared < 0):
        raise _TraceFormatError(
            f"trace header declares a bad event count: {record!r}")
    return _decode_value(record["root"]), declared


def _decode_event(record: dict) -> Event:
    # A record of the wrong shape (not an object, a field missing or of
    # the wrong type) raises KeyError, TypeError or AttributeError in the
    # body; one try around it reports them all as format errors.  On
    # CPython 3.11 a try costs nothing until something raises.
    try:
        try:
            kind = EventKind(record["kind"])
        except ValueError as exc:
            raise _TraceFormatError(f"bad event record {record!r}") from exc
        tid = _decode_value(record["tid"])
        if kind is EventKind.ACTION:
            action = Action(
                obj=_decode_value(record["obj"]),
                method=record["method"],
                args=tuple(_decode_value(v) for v in record["args"]),
                returns=tuple(_decode_value(v) for v in record["returns"]))
            return action_event(tid, action)
        if kind is EventKind.FORK:
            return fork_event(tid, _decode_value(record["peer"]))
        if kind is EventKind.JOIN:
            return join_event(tid, _decode_value(record["peer"]))
        if kind is EventKind.ACQUIRE:
            return acquire_event(tid, _decode_value(record["lock"]))
        if kind is EventKind.RELEASE:
            return release_event(tid, _decode_value(record["lock"]))
        if kind is EventKind.READ:
            return read_event(tid, _decode_value(record["location"]))
        if kind is EventKind.WRITE:
            return write_event(tid, _decode_value(record["location"]))
        if kind is EventKind.BEGIN:
            return begin_event(tid)
        return commit_event(tid)
    except (KeyError, TypeError, AttributeError) as exc:
        raise _TraceFormatError(f"bad event record {record!r}") from exc


def dump_trace(trace: Trace, stream: IO[str]) -> None:
    """Write a trace to a text stream as JSON lines."""
    header = {_FORMAT_KEY: _FORMAT_VERSION,
              "root": _encode_value(trace.root),
              "events": len(trace)}
    stream.write(json.dumps(header) + "\n")
    for event in trace:
        stream.write(json.dumps(_encode_event(event)) + "\n")


def dumps_trace(trace: Trace) -> str:
    """The trace as a JSONL string."""
    import io
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


def load_trace(stream: IO[str], stamp: bool = True) -> Trace:
    """Read a trace written by :func:`dump_trace`; stamps by default."""
    lines = iter(stream)
    try:
        header = json.loads(next(lines))
    except StopIteration:
        raise _TraceFormatError("empty trace stream") from None
    root, declared = _decode_header(header)
    trace = Trace(root=root)
    for line in lines:
        line = line.strip()
        if not line:
            continue
        trace.append(_decode_event(json.loads(line)))
    if declared is not None and declared != len(trace):
        raise _TraceFormatError(
            f"truncated trace: header declares {declared} events, "
            f"found {len(trace)}")
    if stamp:
        trace.stamp()
    return trace


def loads_trace(text: str, stamp: bool = True) -> Trace:
    """Parse a trace from a JSONL string."""
    import io
    return load_trace(io.StringIO(text), stamp=stamp)


# -- incremental reading (streaming analysis) --------------------------------


class TailReader:
    """Incremental JSONL trace reader that tolerates a partial tail.

    :func:`load_trace` treats a trace whose event count falls short of the
    header's declaration as fatally truncated — correct for batch analysis
    of a finished file, wrong for a trace *still being written*: the
    stream analyzer must distinguish "corrupt" from "not yet flushed".
    This reader makes that distinction mechanical.  It reads the file in
    chunks, decodes every newline-terminated record, and stops at the
    first incomplete one, remembering its byte offset; the next
    :meth:`poll` retries from there, so a writer killed mid-record leaves
    the reader parked at the last complete event instead of wedged or
    crashed.  A *complete* line that fails to decode is real corruption
    and still raises.

    Typical loop::

        reader = TailReader(path)
        while not reader.done:
            for event in reader.poll():
                analyzer.process(event)
            time.sleep(poll_interval)   # or give up after an idle budget

    ``done`` turns true once the header's declared event count has been
    read; headerless writers never report done and the caller decides
    when to stop (idle timeout).

    One pathology is *not* retried: a record larger than
    ``max_record_bytes`` (complete or still growing) raises
    :class:`~repro.core.errors.FrameTooLargeError` and bumps the
    ``stream_frame_errors`` obs counter.  Without the cap a corrupt
    length-runaway line would park the reader at a poisoned resume
    offset forever — every poll re-reading a "partial" record that can
    never complete.
    """

    def __init__(self, path: str, chunk_size: int = 1 << 16,
                 max_record_bytes: int = MAX_RECORD_BYTES, obs=None):
        if max_record_bytes < 1:
            raise ValueError(
                f"max_record_bytes must be >= 1, got {max_record_bytes}")
        self._path = path
        self._chunk_size = chunk_size
        self._max_record = max_record_bytes
        self._obs = obs if (obs is not None and obs.enabled) else None
        #: True when the last poll ended on a partially written record.
        self.truncated = False
        #: Byte offset of the first unread (possibly partial) record.
        self.offset = 0
        self.root: Any = None
        self.declared_events: Optional[int] = None
        self.events_read = 0
        self._header_done = False

    @property
    def header_ready(self) -> bool:
        """True once the header line has been read and validated."""
        return self._header_done

    @property
    def done(self) -> bool:
        """All declared events read (never true for headerless counts)."""
        return (self.declared_events is not None
                and self.events_read >= self.declared_events)

    def poll(self) -> List[Event]:
        """Decode every complete record appended since the last poll.

        Returns the (possibly empty) list of new events.  Leaves
        ``offset`` at the first byte of the first incomplete record —
        where the next poll starts — and sets ``truncated`` accordingly.
        """
        try:
            handle = open(self._path, "rb")
        except FileNotFoundError:
            return []
        with handle:
            handle.seek(self.offset)
            chunks = []
            while True:
                chunk = handle.read(self._chunk_size)
                if not chunk:
                    break
                chunks.append(chunk)
        buffer = b"".join(chunks)
        events: List[Event] = []
        start = 0
        while True:
            newline = buffer.find(b"\n", start)
            if newline < 0:
                break
            line = buffer[start:newline]
            if len(line) > self._max_record:
                self._frame_error(len(line))
            consumed = newline + 1 - start
            start = newline + 1
            self.offset += consumed
            text = line.strip()
            if not text:
                continue
            record = json.loads(text.decode("utf-8"))
            if not self._header_done:
                self._read_header(record)
                continue
            events.append(_decode_event(record))
            self.events_read += 1
        remainder = len(buffer) - start
        if remainder > self._max_record:
            # The unterminated tail can only grow; parking at this offset
            # would retry a record that will never fit the cap.
            self._frame_error(remainder)
        self.truncated = start < len(buffer)
        return events

    def _frame_error(self, size: int) -> None:
        if self._obs is not None:
            self._obs.add("stream_frame_errors")
        raise FrameTooLargeError(
            f"trace record at byte offset {self.offset} of {self._path} "
            f"spans {size} bytes (cap {self._max_record}); refusing to "
            f"park at a poisoned resume offset")

    def _read_header(self, record: Any) -> None:
        self.root, self.declared_events = _decode_header(record)
        self._header_done = True


def follow_trace(path: str, poll_interval: float = 0.05,
                 idle_timeout: Optional[float] = 10.0,
                 reader: Optional[TailReader] = None) -> Iterator[Event]:
    """Yield a growing trace's events as they land on disk.

    Polls ``path`` every ``poll_interval`` seconds through a
    :class:`TailReader` and yields each complete event once.  Returns
    when the header's declared event count has been read, or — so a
    killed writer cannot wedge the consumer — after ``idle_timeout``
    seconds without a single new complete record (``None`` waits
    forever).  Pass your own ``reader`` (to meter it, say) and inspect
    it after the generator ends to tell completion (``reader.done``) from
    an abandoned partial trace (``reader.truncated``).
    """
    if reader is None:
        reader = TailReader(path)
    idle = 0.0
    while True:
        events = reader.poll()
        for event in events:
            yield event
        if reader.done:
            return
        if events:
            idle = 0.0
        elif idle_timeout is not None:
            idle += poll_interval
            if idle >= idle_timeout:
                return
        _time.sleep(poll_interval)
