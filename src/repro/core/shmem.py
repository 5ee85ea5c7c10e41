"""Shared-memory transports: stamped-action record rings and byte rings.

The sharded pipeline's pickle backend serializes every stamped action —
including its vector clock, an O(threads) mapping — across each process
boundary.  This module is the zero-pickle alternative: phase A writes
events into a ``multiprocessing.shared_memory`` ring buffer per shard in
the fixed-width record format of :mod:`repro.core.events`, and shard
workers decode straight out of the mapped pages with ``struct``/
``memoryview`` — no object graph ever crosses a pipe.

Three layers live here:

:class:`RecordRing`
    A single-producer/single-consumer ring of 40-byte records plus a
    byte side-region for variable-length payloads.  Counters are 64-bit
    monotonic positions in the ring header; head/tail never wrap, slots
    are addressed modulo capacity.  A full ring *blocks the producer*
    (callers retry/poll) — records are never dropped or overwritten.
:class:`StampedEncoder` / :class:`StampedDecoder`
    The stamped-action codec over a ring: a unified value intern table
    (methods, tids, arguments, returns are interned once per ring as
    tagged bytes), per-thread clock *bases* shipped once per
    synchronization window (detected in O(1) by base-dict identity,
    exploiting the copy-on-write stamping of PR 4), and one fixed-width
    ACTION record per event carrying only the 8-byte own-component
    stamp.  The decoder reconstructs value-identical clocks as
    ``_SteppedClock`` views over the shipped base.
:class:`ByteRing`
    An unstructured SPSC byte stream over shared memory with a writer
    close flag — the detection service's shm ingest path carries its
    newline-delimited trace frames through one of these instead of the
    unix socket (the socket stays for handshake and acks).

Memory-ordering note: counters are aligned 8-byte stores/loads via
``struct``.  CPython performs them under the buffer protocol without
tearing, and both supported platforms (x86-64 TSO, AArch64 with the
interpreter's own barriers) observe the side-region/record stores no
later than the published head; the consumer additionally only trusts
data strictly behind the head it read.
"""

from __future__ import annotations

import struct
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from multiprocessing import shared_memory

from .events import (FLAG_SPILL, FLAG_WIDE, REC_ACTION, REC_BASE, REC_END,
                     REC_INTERN, REC_OBJECT, RECORD_SIZE, RECORD_STRUCT,
                     decode_value, encode_value)
from .vector_clock import VectorClock, _SteppedClock

__all__ = ["RingFull", "RecordRing", "ByteRing", "StampedEncoder",
           "StampedDecoder", "DEFAULT_RING_SLOTS", "DEFAULT_SIDE_BYTES"]

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_HH = struct.Struct("<HH")
_IQ = struct.Struct("<IQ")

#: Default ring geometry: 8192 slots × 40 B ≈ 320 KiB of records plus a
#: 1 MiB side region per shard — small enough to sit comfortably in
#: /dev/shm for dozens of shards, deep enough that the producer rarely
#: blocks on a healthy consumer.
DEFAULT_RING_SLOTS = 8192
DEFAULT_SIDE_BYTES = 1 << 20

_HEADER = 64
# Header offsets (all u64 except the flag byte).
_OFF_HEAD = 0         # records published (producer)
_OFF_TAIL = 8         # records consumed (consumer)
_OFF_SIDE_HEAD = 16   # side bytes written (producer)
_OFF_SIDE_TAIL = 24   # side bytes consumed (consumer)
_OFF_SLOTS = 32       # record capacity (creator)
_OFF_SIDE_CAP = 40    # side capacity (creator)
_OFF_FLAGS = 48       # bit 0: writer closed (ByteRing)


class RingFull(Exception):
    """A record (plus its side bytes) does not fit right now — retry."""


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    Only the creator may unlink; without this, every attaching process
    registers the segment with its own ``resource_tracker`` and the
    first to exit destroys (or double-frees) memory the others still
    map.  Python 3.13 grew ``track=False`` for exactly this; on older
    interpreters we unregister by hand.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    # Pre-3.13: attaching registers with the resource tracker exactly like
    # creating does.  Under fork the tracker process is *shared* with the
    # creator, so an attach-side ``unregister`` would clobber the creator's
    # registration; suppressing registration locally is the only edit that
    # stays confined to this process.
    from multiprocessing import resource_tracker
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class RecordRing:
    """SPSC ring of fixed-width records + ordered varlen side bytes.

    Exactly one producer and one consumer.  The producer's writes become
    visible only at :meth:`publish`; the consumer acknowledges space
    back after every :meth:`get`.  Side bytes belong to records
    implicitly, in order: record N's ``side`` field says how many bytes
    of the side stream it owns, so the consumer never needs an offset.
    """

    def __init__(self, shm: shared_memory.SharedMemory, slots: int,
                 side_bytes: int, owner: bool):
        self._shm = shm
        self._owner = owner
        self.buf = shm.buf
        self.slots = slots
        self.side_capacity = side_bytes
        self._rec0 = _HEADER
        self._side0 = _HEADER + slots * RECORD_SIZE
        # Consumer ack batching: shared tail counters are written through
        # every ``ack_interval`` records (and whenever the ring reads
        # empty, so a blocked producer always unblocks).  1 = write-through
        # on every get, the fully conservative default.
        self.ack_interval = 1
        self._acks_pending = 0
        # Producer-local positions (authoritative: single producer).
        self._head = _U64.unpack_from(self.buf, _OFF_HEAD)[0]
        self._side_head = _U64.unpack_from(self.buf, _OFF_SIDE_HEAD)[0]
        self._tail_cache = _U64.unpack_from(self.buf, _OFF_TAIL)[0]
        self._side_tail_cache = _U64.unpack_from(self.buf, _OFF_SIDE_TAIL)[0]
        # Consumer-local positions.
        self._tail = self._tail_cache
        self._side_tail = self._side_tail_cache
        self._head_cache = self._head

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def create(cls, slots: int = DEFAULT_RING_SLOTS,
               side_bytes: int = DEFAULT_SIDE_BYTES) -> "RecordRing":
        if slots < 1 or side_bytes < 1:
            raise ValueError(f"ring needs >= 1 slot and >= 1 side byte, "
                             f"got {slots}/{side_bytes}")
        size = _HEADER + slots * RECORD_SIZE + side_bytes
        shm = shared_memory.SharedMemory(create=True, size=size)
        shm.buf[:_HEADER] = bytes(_HEADER)
        _U64.pack_into(shm.buf, _OFF_SLOTS, slots)
        _U64.pack_into(shm.buf, _OFF_SIDE_CAP, side_bytes)
        return cls(shm, slots, side_bytes, owner=True)

    @classmethod
    def attach(cls, name: str) -> "RecordRing":
        shm = _attach_untracked(name)
        slots = _U64.unpack_from(shm.buf, _OFF_SLOTS)[0]
        side = _U64.unpack_from(shm.buf, _OFF_SIDE_CAP)[0]
        return cls(shm, slots, side, owner=False)

    # -- producer ----------------------------------------------------------

    def try_put(self, kind: int, counts: int, flags: int, tid: int,
                index: int, stamp: int, method: int, v0: int, v1: int,
                side: bytes = b"") -> bool:
        """Stage one record; False (nothing written) when it cannot fit."""
        if self._head - self._tail_cache >= self.slots:
            self._tail_cache = _U64.unpack_from(self.buf, _OFF_TAIL)[0]
            if self._head - self._tail_cache >= self.slots:
                return False
        need = len(side)
        if need:
            if self._side_head + need - self._side_tail_cache \
                    > self.side_capacity:
                self._side_tail_cache = _U64.unpack_from(
                    self.buf, _OFF_SIDE_TAIL)[0]
                if self._side_head + need - self._side_tail_cache \
                        > self.side_capacity:
                    return False
            at = self._side0 + self._side_head % self.side_capacity
            first = min(need, self._side0 + self.side_capacity - at)
            self.buf[at:at + first] = side[:first]
            if first < need:
                self.buf[self._side0:self._side0 + need - first] = side[first:]
            self._side_head += need
        RECORD_STRUCT.pack_into(
            self.buf, self._rec0 + (self._head % self.slots) * RECORD_SIZE,
            kind, counts, flags, tid, index, stamp, method, v0, v1, need)
        self._head += 1
        return True

    def publish(self) -> None:
        """Make every staged record visible to the consumer."""
        _U64.pack_into(self.buf, _OFF_SIDE_HEAD, self._side_head)
        _U64.pack_into(self.buf, _OFF_HEAD, self._head)

    def occupancy_bytes(self) -> int:
        """Producer-side view of bytes currently queued in the ring."""
        tail = _U64.unpack_from(self.buf, _OFF_TAIL)[0]
        side_tail = _U64.unpack_from(self.buf, _OFF_SIDE_TAIL)[0]
        return ((self._head - tail) * RECORD_SIZE
                + (self._side_head - side_tail))

    def capacity_bytes(self) -> int:
        return self.slots * RECORD_SIZE + self.side_capacity

    # -- consumer ----------------------------------------------------------

    def get(self) -> Optional[Tuple[Any, ...]]:
        """One record ``(kind..v1, side_bytes)``, or None when empty."""
        if self._tail >= self._head_cache:
            self._head_cache = _U64.unpack_from(self.buf, _OFF_HEAD)[0]
            if self._tail >= self._head_cache:
                if self._acks_pending:
                    self._flush_acks()
                return None
        rec = RECORD_STRUCT.unpack_from(
            self.buf, self._rec0 + (self._tail % self.slots) * RECORD_SIZE)
        side_len = rec[9]
        side = b""
        if side_len:
            at = self._side0 + self._side_tail % self.side_capacity
            first = min(side_len, self._side0 + self.side_capacity - at)
            side = bytes(self.buf[at:at + first])
            if first < side_len:
                side += bytes(self.buf[self._side0:
                                       self._side0 + side_len - first])
            self._side_tail += side_len
        self._tail += 1
        # Acknowledge space only after the bytes are copied out.
        self._acks_pending += 1
        if self._acks_pending >= self.ack_interval:
            self._flush_acks()
        return rec[:9] + (side,)

    def _flush_acks(self) -> None:
        _U64.pack_into(self.buf, _OFF_SIDE_TAIL, self._side_tail)
        _U64.pack_into(self.buf, _OFF_TAIL, self._tail)
        self._acks_pending = 0

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.buf = None
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass

    def unlink(self) -> None:
        if self._owner:
            try:
                self._shm.unlink()
            except OSError:
                pass


class ByteRing:
    """SPSC byte stream over shared memory, with a writer close flag.

    The detection service's shm ingest transport: the client creates one,
    streams its newline-delimited trace into it (blocking while full —
    the same backpressure contract as the socket), sets the close flag,
    and the server consumes until EOF (closed *and* drained).
    """

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int,
                 owner: bool):
        self._shm = shm
        self._owner = owner
        self.buf = shm.buf
        self.capacity = capacity
        self._data0 = _HEADER
        self._head = _U64.unpack_from(self.buf, _OFF_HEAD)[0]
        self._tail = _U64.unpack_from(self.buf, _OFF_TAIL)[0]

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def create(cls, capacity: int = 1 << 20) -> "ByteRing":
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        shm = shared_memory.SharedMemory(create=True,
                                         size=_HEADER + capacity)
        shm.buf[:_HEADER] = bytes(_HEADER)
        _U64.pack_into(shm.buf, _OFF_SLOTS, capacity)
        return cls(shm, capacity, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ByteRing":
        shm = _attach_untracked(name)
        capacity = _U64.unpack_from(shm.buf, _OFF_SLOTS)[0]
        return cls(shm, capacity, owner=False)

    # -- writer ------------------------------------------------------------

    def try_write(self, data) -> int:
        """Write as much of ``data`` as fits; returns bytes consumed."""
        tail = _U64.unpack_from(self.buf, _OFF_TAIL)[0]
        free = self.capacity - (self._head - tail)
        if free <= 0:
            return 0
        chunk = data[:free] if len(data) > free else data
        need = len(chunk)
        at = self._data0 + self._head % self.capacity
        first = min(need, self._data0 + self.capacity - at)
        self.buf[at:at + first] = chunk[:first]
        if first < need:
            self.buf[self._data0:self._data0 + need - first] = chunk[first:]
        self._head += need
        _U64.pack_into(self.buf, _OFF_HEAD, self._head)
        return need

    def write_all(self, data: bytes, timeout: Optional[float] = None,
                  poll: float = 0.001) -> None:
        """Blocking write of the whole buffer (the backpressure contract)."""
        view = memoryview(data)
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        while view.nbytes:
            wrote = self.try_write(view)
            if wrote:
                view = view[wrote:]
                continue
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"byte ring full for {timeout:g}s (stalled consumer)")
            time.sleep(poll)

    def close_write(self) -> None:
        self.buf[_OFF_FLAGS] = 1

    # -- reader ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return bool(self.buf[_OFF_FLAGS])

    @property
    def eof(self) -> bool:
        if not self.closed:
            return False
        head = _U64.unpack_from(self.buf, _OFF_HEAD)[0]
        return self._tail >= head

    def read(self, max_bytes: int = 1 << 16) -> bytes:
        """Up to ``max_bytes`` of available data (b"" when empty)."""
        head = _U64.unpack_from(self.buf, _OFF_HEAD)[0]
        avail = min(head - self._tail, max_bytes)
        if avail <= 0:
            return b""
        at = self._data0 + self._tail % self.capacity
        first = min(avail, self._data0 + self.capacity - at)
        out = bytes(self.buf[at:at + first])
        if first < avail:
            out += bytes(self.buf[self._data0:self._data0 + avail - first])
        self._tail += avail
        _U64.pack_into(self.buf, _OFF_TAIL, self._tail)
        return out

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.buf = None
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass

    def unlink(self) -> None:
        if self._owner:
            try:
                self._shm.unlink()
            except OSError:
                pass


# -- the stamped-action codec -------------------------------------------------

def _typed_key(value: Any):
    """Intern key that separates equal-but-distinct values (1 vs True vs
    1.0, recursively inside tuples) — reports must reproduce exact types."""
    cls = value.__class__
    if cls is tuple:
        return (tuple, tuple(_typed_key(item) for item in value))
    return (cls, value)


class StampedEncoder:
    """Producer half: packed stamped actions → ring records.

    Every public method either fully writes its records or raises
    :class:`RingFull` having registered nothing, so a blocked encode is
    safely retried after the consumer drains (already-interned values and
    already-shipped bases are skipped on retry).  Call
    :meth:`~RecordRing.publish` on the ring (or :meth:`publish` here)
    to make staged records visible — and always publish before waiting
    on a full ring, or the consumer can never drain it.
    """

    def __init__(self, ring: RecordRing):
        self._ring = ring
        self._ids: Dict[Any, int] = {}
        self._next_id = 0
        self._bases: Dict[int, Any] = {}       # tid value id -> base dict
        # Packed REC_BASE payloads keyed by id(base).  Copy-on-write
        # stamping shares base dicts across threads and windows, and the
        # payload's actions keep every base alive for the encoder's whole
        # lifetime, so identity is a sound cache key here.
        self._base_blobs: Dict[int, bytes] = {}
        self.bytes_written = 0

    def publish(self) -> None:
        self._ring.publish()

    def _intern(self, value: Any) -> int:
        try:
            key = _typed_key(value)
            vid = self._ids.get(key)
        except TypeError:           # unhashable: encode fresh every time
            key = None
            vid = None
        if vid is not None:
            return vid
        blob = encode_value(value)
        vid = self._next_id
        if not self._ring.try_put(REC_INTERN, 0, 0, 0, 0, 0, 0, vid, 0, blob):
            raise RingFull
        self.bytes_written += RECORD_SIZE + len(blob)
        if key is not None:
            self._ids[key] = vid
        self._next_id = vid + 1
        return vid

    def begin_object(self, position: int) -> None:
        """Switch the decoder to the shard's object at ``position``."""
        if not self._ring.try_put(REC_OBJECT, 0, 0, 0, 0, 0, 0, position, 0):
            raise RingFull
        self.bytes_written += RECORD_SIZE

    def end(self) -> None:
        if not self._ring.try_put(REC_END, 0, 0, 0, 0, 0, 0, 0, 0):
            raise RingFull
        self.bytes_written += RECORD_SIZE

    def _pack_base(self, base) -> bytes:
        blob = self._base_blobs.get(id(base))
        if blob is None:
            ids = self._ids
            intern = self._intern
            pack = _IQ.pack
            parts = [_U32.pack(len(base))]
            append = parts.append
            for part_tid, part_stamp in base.items():
                if part_tid.__class__ is tuple:
                    part_id = intern(part_tid)
                else:
                    part_id = ids.get((part_tid.__class__, part_tid))
                    if part_id is None:
                        part_id = intern(part_tid)
                append(pack(part_id, part_stamp))
            blob = b"".join(parts)
            self._base_blobs[id(base)] = blob
        return blob

    def encode_action(self, packed: Tuple[Any, ...]) -> None:
        """One stamped action → (intern/base as needed) + one ACTION record."""
        done = self.encode_actions((packed,))
        if not done:
            raise RingFull

    def encode_actions(self, actions, start: int = 0,
                       limit: Optional[int] = None) -> int:
        """Encode ``actions[start:start + limit]``; returns the index of the
        first action *not* encoded (== the stop index when everything fit).

        Stops early — having fully written some prefix and nothing of the
        rest — when the ring fills; already-interned values and
        already-shipped bases are skipped when the caller retries.  This
        is the fan-out hot path: one Python frame per chunk, not per
        action.
        """
        ring = self._ring
        try_put = ring.try_put
        ids = self._ids
        intern = self._intern
        bases = self._bases
        u32_pack = _U32.pack
        stop = len(actions)
        if limit is not None and start + limit < stop:
            stop = start + limit
        at = start
        written = 0
        stepped = _SteppedClock
        try:
            while at < stop:
                index, tid, method, args, returns, clock = actions[at]
                # Fast-path intern lookups use the plain ``(class, value)``
                # key — identical to ``_typed_key`` for every non-tuple, but
                # tuples intern under a recursive key, so they (and
                # unhashables) take the slow path to avoid false hits.
                if tid.__class__ is tuple:
                    tid_id = intern(tid)
                else:
                    tid_id = ids.get((tid.__class__, tid))
                    if tid_id is None:
                        tid_id = intern(tid)
                if clock.__class__ is stepped:
                    base = clock._base
                    stamp = clock._stamp
                else:
                    base = clock._mapping()
                    stamp = base.get(tid, 0)
                if bases.get(tid_id) is not base:
                    # New synchronization window (or first sight of this
                    # thread): ship the base mapping once; subsequent
                    # actions in the window ride on the 8-byte stamp alone.
                    blob = self._pack_base(base)
                    if not try_put(REC_BASE, 0, 0, tid_id, 0, 0, 0, 0, 0,
                                   blob):
                        break
                    written += RECORD_SIZE + len(blob)
                    bases[tid_id] = base
                if method.__class__ is tuple:
                    method_id = intern(method)
                else:
                    method_id = ids.get((method.__class__, method))
                    if method_id is None:
                        method_id = intern(method)
                nargs = len(args)
                nrets = len(returns)
                flags = 0
                side = b""
                if nargs <= 15 and nrets <= 15:
                    counts = (nargs << 4) | nrets
                else:
                    counts = 0
                    flags = FLAG_WIDE
                    side = _HH.pack(nargs, nrets)
                n = nargs + nrets
                v0 = v1 = 0
                if n <= 2:
                    if n:
                        v = args[0] if nargs else returns[0]
                        if v.__class__ is tuple:
                            v0 = intern(v)
                        else:
                            try:
                                v0 = ids.get((v.__class__, v))
                            except TypeError:
                                v0 = None
                            if v0 is None:
                                v0 = intern(v)
                        if n == 2:
                            v = returns[-1] if nrets else args[1]
                            if v.__class__ is tuple:
                                v1 = intern(v)
                            else:
                                try:
                                    v1 = ids.get((v.__class__, v))
                                except TypeError:
                                    v1 = None
                                if v1 is None:
                                    v1 = intern(v)
                else:
                    flags |= FLAG_SPILL
                    vids = [intern(v) for v in args]
                    vids += [intern(v) for v in returns]
                    side += b"".join(u32_pack(i) for i in vids)
                if not try_put(REC_ACTION, counts, flags, tid_id, index,
                               stamp, method_id, v0, v1, side):
                    break
                written += RECORD_SIZE + len(side)
                at += 1
        except RingFull:
            pass
        self.bytes_written += written
        return at


class StampedDecoder:
    """Consumer half: ring records → per-object packed-action streams.

    :meth:`streams` yields ``(object_position, actions)`` in ring order;
    each ``actions`` iterator must be drained before advancing (the
    replay loop naturally does).  Blocks (poll + short sleep) while the
    ring is empty; a REC_END record terminates the stream.
    """

    #: Idle-wait ceiling: an empty ring means the producer is busy encoding
    #: (or feeding another shard), so polls back off exponentially to this
    #: bound — on a saturated host, 5000 wakeups/s per idle shard worker
    #: would steal the CPU from the very producer being waited on.
    MAX_POLL = 0.004

    def __init__(self, ring: RecordRing, poll: float = 0.0002):
        self._ring = ring
        self._poll = poll
        ring.ack_interval = 64
        self._values: List[Any] = []
        self._bases: Dict[int, Dict[Any, int]] = {}
        self._boundary: Optional[Tuple[Any, ...]] = None

    def _next(self) -> Tuple[Any, ...]:
        get = self._ring.get
        delay = self._poll
        limit = self.MAX_POLL
        while True:
            rec = get()
            if rec is not None:
                return rec
            time.sleep(delay)
            if delay < limit:
                delay += delay

    def _absorb(self, rec: Tuple[Any, ...]) -> bool:
        """Consume a metadata record; False if ``rec`` is not metadata."""
        kind = rec[0]
        if kind == REC_INTERN:
            assert rec[7] == len(self._values)
            self._values.append(decode_value(rec[9]))
            return True
        if kind == REC_BASE:
            side = rec[9]
            count = _U32.unpack_from(side, 0)[0]
            base: Dict[Any, int] = {}
            at = 4
            values = self._values
            for _ in range(count):
                part_tid_id, part_stamp = _IQ.unpack_from(side, at)
                at += 12
                base[values[part_tid_id]] = part_stamp
            self._bases[rec[3]] = base
            return True
        return False

    def _actions(self) -> Iterator[Tuple[Any, ...]]:
        values = self._values
        bases = self._bases
        get = self._ring.get
        stepped = _SteppedClock
        stepped_new = stepped.__new__
        action_kind = REC_ACTION
        while True:
            rec = get()
            if rec is None:
                rec = self._next()
            kind = rec[0]
            if kind != action_kind:
                if self._absorb(rec):
                    continue
                self._boundary = rec
                return
            _, counts, flags, tid_id, index, stamp, method_id, v0, v1, \
                side = rec
            at = 0
            if flags & FLAG_WIDE:
                nargs, nrets = _HH.unpack_from(side, 0)
                at = 4
            else:
                nargs = counts >> 4
                nrets = counts & 0xF
            n = nargs + nrets
            if flags & FLAG_SPILL:
                ids = _U32.iter_unpack(side[at:at + 4 * n])
                resolved = [values[i] for (i,) in ids]
            elif n == 2:
                resolved = [values[v0], values[v1]]
            elif n == 1:
                resolved = [values[v0]]
            else:
                resolved = []
            tid = values[tid_id]
            base = bases[tid_id]
            if stamp:
                clock = stepped_new(stepped)
                clock._base = base
                clock._tid = tid
                clock._stamp = stamp
                clock._entries = None
                clock._hash = None
            else:
                # A clock with no own component (cannot arise from Fig. 3
                # stamping, but the codec stays total): the base *is* the
                # mapping.
                clock = VectorClock._trusted(dict(base))
            yield (index, tid, values[method_id], tuple(resolved[:nargs]),
                   tuple(resolved[nargs:]), clock)

    def streams(self) -> Iterator[Tuple[int, Iterator[Tuple[Any, ...]]]]:
        rec = self._next()
        while True:
            if self._absorb(rec):
                rec = self._next()
                continue
            kind = rec[0]
            if kind == REC_END:
                return
            if kind != REC_OBJECT:
                raise ValueError(f"unexpected record kind {kind} between "
                                 f"object sections")
            self._boundary = None
            inner = self._actions()
            yield rec[7], inner
            for _ in inner:     # guarantee the section is fully consumed
                pass
            rec = self._boundary


def feed_shard(encoder: StampedEncoder, objects, chunk: int = 128
               ) -> Iterator[bool]:
    """Generator driving one shard's encode: yields after every ``chunk``
    actions (True = progressed) or whenever the ring is full (False —
    give the consumer, or another shard, the CPU).  ``objects`` is the
    payload's object list; StopIteration means the END record (and a
    final publish) went out.
    """
    for position, entry in enumerate(objects):
        while True:
            try:
                encoder.begin_object(position)
                break
            except RingFull:
                encoder.publish()
                yield False
        packed_actions = entry[4]
        at = 0
        total = len(packed_actions)
        while at < total:
            to = encoder.encode_actions(packed_actions, at, chunk)
            encoder.publish()
            if to == at:
                yield False         # ring full: let the consumer drain
            else:
                at = to
                if at < total:
                    yield True
    while True:
        try:
            encoder.end()
            break
        except RingFull:
            encoder.publish()
            yield False
    encoder.publish()
