"""Shared-memory byte rings: the detection service's shm ingest path.

:class:`ByteRing` is an unstructured single-producer/single-consumer byte
stream over a ``multiprocessing.shared_memory`` segment with a writer
close flag.  A ``repro-serve`` client can carry its newline-delimited
trace frames through one of these instead of the unix socket (the socket
stays for handshake and acks).  Counters are 64-bit monotonic positions
in the ring header; head/tail never wrap, bytes are addressed modulo
capacity.  A full ring *blocks the writer* (callers retry/poll) — bytes
are never dropped or overwritten.

Memory-ordering note: counters are aligned 8-byte stores/loads via
``struct``.  CPython performs them under the buffer protocol without
tearing, and both supported platforms (x86-64 TSO, AArch64 with the
interpreter's own barriers) observe the data stores no later than the
published head; the reader additionally only trusts data strictly behind
the head it read.
"""

from __future__ import annotations

import struct
import time
from typing import Optional

from multiprocessing import shared_memory

__all__ = ["ByteRing"]

_U64 = struct.Struct("<Q")

_HEADER = 64
# Header offsets (all u64 except the flag byte).
_OFF_HEAD = 0         # bytes published (writer)
_OFF_TAIL = 8         # bytes consumed (reader)
_OFF_CAPACITY = 32    # data capacity (creator)
_OFF_FLAGS = 48       # bit 0: writer closed


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
        _U64.pack_into(shm.buf, _OFF_CAPACITY, capacity)
        return cls(shm, capacity, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ByteRing":
        shm = _attach_untracked(name)
        capacity = _U64.unpack_from(shm.buf, _OFF_CAPACITY)[0]
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
