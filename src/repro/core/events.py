"""Actions and trace events (the execution model of Section 3.1).

An *action* ``o.m(~u)/~v`` is a method invocation on a shared object ``o``
with arguments ``~u`` and return values ``~v``; the paper treats invocations
as atomic transitions (the object is assumed linearizable).  An *event* is an
occurrence ``τ : a`` of an action by thread ``τ`` at a position in a trace.

Besides action events this module models the synchronization events of
Table 1 (``fork``, ``join``, ``acq``, ``rel``), low-level ``read``/``write``
memory events consumed by the FastTrack/Eraser baselines (RD2 never looks
at them), and ``begin``/``commit`` transaction boundaries consumed by the
atomicity analyses.  The paper's ``joinall`` is a sequence of ``join``
events (see :meth:`repro.core.trace.TraceBuilder.join_all`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional, Tuple

from .vector_clock import Tid, VectorClock

__all__ = [
    "NIL",
    "Nil",
    "ObjectId",
    "Action",
    "EventKind",
    "Event",
    "action_event",
    "fork_event",
    "join_event",
    "acquire_event",
    "release_event",
    "begin_event",
    "commit_event",
    "read_event",
    "write_event",
    "pack_stamped_action",
    "unpack_stamped_action",
]


class Nil:
    """The paper's ``nil`` no-value (distinct from Python's ``None``).

    A dictionary maps absent keys to ``nil``; ``put`` returns ``nil`` when it
    inserts a fresh key.  Using a dedicated singleton keeps ``None`` free to
    be an ordinary storable value in monitored collections.
    """

    _instance: "Nil | None" = None

    def __new__(cls) -> "Nil":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "nil"

    def __bool__(self) -> bool:
        return False

    def __hash__(self) -> int:
        # Stable across interpreters (the default id() hash is not):
        # ``nil`` appears inside Const/Atom/β-schema hashes, and spawned
        # workers re-import a fresh singleton at a new address.
        return 0x6E696C  # "nil"

    def __reduce__(self):
        return (Nil, ())


NIL = Nil()

ObjectId = Hashable
"""Identity of a shared object; the runtime uses ``(kind, serial)`` pairs."""


@dataclass(frozen=True)
class Action:
    """A method invocation ``obj.method(args)/returns`` on a shared object.

    ``args`` and ``returns`` are tuples so that actions are hashable and can
    key dictionaries in the analyses.  Most library methods return a single
    value; a method returning nothing uses an empty ``returns`` tuple.
    """

    obj: ObjectId
    method: str
    args: Tuple[Any, ...] = ()
    returns: Tuple[Any, ...] = ()

    @property
    def values(self) -> Tuple[Any, ...]:
        """``w1..wn = ~u~v``: arguments followed by returns (Section 6.2)."""
        return self.args + self.returns

    def __str__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        rets = ", ".join(repr(r) for r in self.returns)
        return f"{self.obj}.{self.method}({args})/{rets or '()'}"


class EventKind(enum.Enum):
    """Discriminates trace events (rows of Table 1 plus baseline events).

    ``BEGIN``/``COMMIT`` delimit transactions (atomic blocks) for the
    atomicity analysis of :mod:`repro.atomicity`; they carry no payload,
    do not synchronize, and are ignored by the race detectors.
    """

    ACTION = "action"
    FORK = "fork"
    JOIN = "join"
    ACQUIRE = "acq"
    RELEASE = "rel"
    READ = "read"
    WRITE = "write"
    BEGIN = "begin"
    COMMIT = "commit"

    def is_sync(self) -> bool:
        return self in (EventKind.FORK, EventKind.JOIN,
                        EventKind.ACQUIRE, EventKind.RELEASE)

    def is_memory(self) -> bool:
        return self in (EventKind.READ, EventKind.WRITE)

    def is_transactional(self) -> bool:
        return self in (EventKind.BEGIN, EventKind.COMMIT)


@dataclass
class Event:
    """One trace event ``τ : label``.

    Exactly one of the payload fields is populated, depending on ``kind``:

    * ``ACTION`` — ``action`` holds the :class:`Action`.
    * ``FORK`` / ``JOIN`` — ``peer`` holds the forked/joined thread id.
    * ``ACQUIRE`` / ``RELEASE`` — ``lock`` holds the lock identity.
    * ``READ`` / ``WRITE`` — ``location`` holds the memory-location identity.

    ``index`` is the event's position in its trace (the ``≤π`` total order);
    ``clock`` is filled in by happens-before tracking once known — it is the
    ``vc(e)`` of the paper.
    """

    kind: EventKind
    tid: Tid
    action: Optional[Action] = None
    peer: Optional[Tid] = None
    lock: Optional[Hashable] = None
    location: Optional[Hashable] = None
    index: int = -1
    clock: Optional[VectorClock] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind is EventKind.ACTION and self.action is None:
            raise ValueError("ACTION event requires an action payload")
        if self.kind in (EventKind.FORK, EventKind.JOIN) and self.peer is None:
            raise ValueError(f"{self.kind.value} event requires a peer thread")
        if self.kind in (EventKind.ACQUIRE, EventKind.RELEASE) and self.lock is None:
            raise ValueError(f"{self.kind.value} event requires a lock")
        if self.kind.is_memory() and self.location is None:
            raise ValueError(f"{self.kind.value} event requires a location")

    def label(self) -> str:
        """Human-readable ``τ : a`` form used in reports."""
        if self.kind is EventKind.ACTION:
            return f"{self.tid}: {self.action}"
        if self.kind in (EventKind.FORK, EventKind.JOIN):
            return f"{self.tid}: {self.kind.value}({self.peer})"
        if self.kind.is_memory():
            return f"{self.tid}: {self.kind.value}({self.location})"
        if self.kind.is_transactional():
            return f"{self.tid}: {self.kind.value}"
        return f"{self.tid}: {self.kind.value}({self.lock})"

    def __str__(self) -> str:
        return self.label()


# -- constructors ------------------------------------------------------------
#
# The runtime builds events constantly; these helpers keep call sites terse
# and make the payload-field discipline impossible to get wrong.

def action_event(tid: Tid, action: Action) -> Event:
    """``τ : o.m(~x)/~y`` — a method-invocation event."""
    return Event(EventKind.ACTION, tid, action=action)


def fork_event(tid: Tid, child: Tid) -> Event:
    """``τ : fork(u)`` — thread ``tid`` creates thread ``child``."""
    return Event(EventKind.FORK, tid, peer=child)


def join_event(tid: Tid, child: Tid) -> Event:
    """``τ : join(u)`` — thread ``tid`` awaits termination of ``child``."""
    return Event(EventKind.JOIN, tid, peer=child)


def acquire_event(tid: Tid, lock: Hashable) -> Event:
    """``τ : acq(l)``."""
    return Event(EventKind.ACQUIRE, tid, lock=lock)


def release_event(tid: Tid, lock: Hashable) -> Event:
    """``τ : rel(l)``."""
    return Event(EventKind.RELEASE, tid, lock=lock)


def begin_event(tid: Tid) -> Event:
    """``τ : begin`` — the thread enters an intended-atomic block."""
    return Event(EventKind.BEGIN, tid)


def commit_event(tid: Tid) -> Event:
    """``τ : commit`` — the thread leaves its intended-atomic block."""
    return Event(EventKind.COMMIT, tid)


def read_event(tid: Tid, location: Hashable) -> Event:
    """Low-level memory read (consumed only by read/write baselines)."""
    return Event(EventKind.READ, tid, location=location)


def write_event(tid: Tid, location: Hashable) -> Event:
    """Low-level memory write (consumed only by read/write baselines)."""
    return Event(EventKind.WRITE, tid, location=location)


# -- compact wire format ------------------------------------------------------
#
# The sharded offline analyzer (:mod:`repro.core.parallel`) ships stamped
# action events to worker processes.  Pickling whole Event objects works but
# drags along payload fields that are None for actions; these helpers
# flatten a stamped action to a plain tuple (the object id is factored out
# at the per-object group level, so it is not repeated per event).  The
# clock rides along as the immutable VectorClock itself: sharing is safe,
# and the in-process (inline) shard path then needs no reconstruction at
# all.  A stamp taken inside a synchronization window pickles as its
# shared base dict plus its own component, so one shard's pickle carries
# each base once however many actions share it.

def pack_stamped_action(event: Event, index: int,
                        clock: VectorClock) -> Tuple[Any, ...]:
    """Flatten a stamped ACTION event to a compact picklable tuple."""
    act = event.action
    return (index, event.tid, act.method, act.args, act.returns, clock)


def unpack_stamped_action(obj: ObjectId, packed: Tuple[Any, ...]) -> Event:
    """Rebuild the Event (with its ``vc(e)``) from :func:`pack_stamped_action`."""
    index, tid, method, args, returns, clock = packed
    event = Event(EventKind.ACTION, tid,
                  action=Action(obj, method, args, returns))
    event.index = index
    event.clock = clock
    return event
