"""Vector clocks: the lattice ``VC = Tid -> N`` of Section 3.2.

The paper orders vector clocks pointwise, giving a lattice with bottom
``⊥V = λτ.0``, join ``c1 ⊔ c2 = λτ. max(c1 τ, c2 τ)`` and a per-component
increment ``incυ``.  Two events ``e1, e2`` *may happen in parallel*
(``e1 ‖ e2``) iff their clocks are incomparable.

Two implementations are provided:

* :class:`VectorClock` — immutable, hashable, value-semantics.  Used in race
  reports, recorded traces and tests, where aliasing bugs would be costly.
* :class:`MutableVectorClock` — the in-place variant used by the hot paths of
  the detectors (Table 1 bookkeeping touches clocks on every event).

Both store clocks sparsely as ``tid -> timestamp`` with zero entries elided,
so thread identifiers may be arbitrary hashables (ints in practice) and the
clock of a freshly observed thread costs nothing.

Copy-on-write freezing
----------------------

Stamping an event requires an immutable snapshot of the acting thread's
clock (``vc(e) ← T(τ)``), and the Fig. 3 refinement increments the
thread's own component first — so between two synchronization events a
thread's clock changes *only at its own component*.  A naive ``freeze()``
copies the whole sparse dict per event, which makes stamping O(threads)
and dominates Phase A of the sharded pipeline.  :meth:`MutableVectorClock.
freeze` instead keeps one immutable *base* snapshot per synchronization
window and hands out :class:`_SteppedClock` views — the base plus the one
advanced component — in O(1).  Any mutation that touches another
component (join at ``join``/``acq``, ``set_component``) invalidates the
base; the next freeze takes a fresh snapshot.  The base dict is written
only at snapshot creation and never mutated afterwards, so outstanding
views stay sound.
"""

from __future__ import annotations

from collections.abc import Mapping as _Mapping
from typing import Dict, Hashable, Iterable, Iterator, Mapping, Tuple

__all__ = ["Tid", "VectorClock", "MutableVectorClock", "BOTTOM"]

Tid = Hashable
"""Thread identifier.  Any hashable; the schedulers use small integers."""


def _normalized(entries: Iterable[Tuple[Tid, int]]) -> Dict[Tid, int]:
    """Drop zero entries and validate timestamps."""
    out: Dict[Tid, int] = {}
    for tid, stamp in entries:
        if stamp < 0:
            raise ValueError(f"negative timestamp {stamp} for thread {tid!r}")
        if stamp:
            out[tid] = stamp
    return out


class VectorClock:
    """An immutable vector clock (an element of the lattice ``VC``).

    Supports the lattice operations of the paper::

        c1 <= c2      pointwise order (c1 ⊑ c2)
        c1 | c2       join (c1 ⊔ c2)
        c.inc(tid)    incυ(c)
        c.parallel(d) neither c ⊑ d nor d ⊑ c

    Instances compare equal iff they denote the same function ``Tid -> N``.
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Mapping[Tid, int] | Iterable[Tuple[Tid, int]] = ()):
        # collections.abc.Mapping, not typing.Mapping: this constructor is
        # on every detector hot path and typing's __instancecheck__ walk
        # shows up in profiles.
        if isinstance(entries, _Mapping):
            entries = entries.items()
        self._entries: Dict[Tid, int] = _normalized(entries)
        self._hash: int | None = None

    @staticmethod
    def _trusted(entries: Dict[Tid, int]) -> "VectorClock":
        """Wrap an already-normalized dict without copying or validating.

        Internal fast path for lattice operations whose results are
        normalized by construction (joins/increments of normalized
        clocks).  The caller must hand over ownership of ``entries``.
        """
        clock = VectorClock.__new__(VectorClock)
        clock._entries = entries
        clock._hash = None
        return clock

    # -- accessors ---------------------------------------------------------

    def _mapping(self) -> Dict[Tid, int]:
        """The entries dict (hook point for lazily materialized subclasses)."""
        return self._entries

    def __getitem__(self, tid: Tid) -> int:
        """The timestamp recorded for ``tid`` (0 if never observed)."""
        return self._entries.get(tid, 0)

    def threads(self) -> Iterator[Tid]:
        """Iterate over threads with a non-zero timestamp."""
        return iter(self._entries)

    def items(self) -> Iterator[Tuple[Tid, int]]:
        return iter(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def is_bottom(self) -> bool:
        return not self._entries

    # -- lattice operations --------------------------------------------------

    def leq(self, other: "VectorClock | MutableVectorClock") -> bool:
        """Pointwise order ``self ⊑ other`` — the happens-before test."""
        for tid, stamp in self._entries.items():
            if stamp > other[tid]:
                return False
        return True

    __le__ = leq

    def __lt__(self, other: "VectorClock") -> bool:
        return self.leq(other) and not other.leq(self)

    def parallel(self, other: "VectorClock | MutableVectorClock") -> bool:
        """``self ‖ other``: the clocks are incomparable."""
        return not self.leq(other) and not other.leq(self)

    def join(self, other: "VectorClock | MutableVectorClock") -> "VectorClock":
        """The least upper bound ``self ⊔ other``."""
        merged = dict(self._entries)
        for tid, stamp in other.items():
            if stamp > merged.get(tid, 0):
                merged[tid] = stamp
        return VectorClock._trusted(merged)

    __or__ = join

    def inc(self, tid: Tid) -> "VectorClock":
        """``incυ``: a copy with ``tid``'s component advanced by one step."""
        bumped = dict(self._entries)
        bumped[tid] = bumped.get(tid, 0) + 1
        return VectorClock._trusted(bumped)

    # -- conversions ---------------------------------------------------------

    def thaw(self) -> "MutableVectorClock":
        """An independent mutable copy."""
        return MutableVectorClock(self._entries)

    def to_tuple(self, tids: Iterable[Tid]) -> Tuple[int, ...]:
        """Render as a dense tuple over a given thread ordering.

        Convenience for matching the paper's ``⟨3, 0, 1⟩`` presentation.
        """
        return tuple(self[tid] for tid in tids)

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VectorClock):
            return self._mapping() == other._mapping()
        if isinstance(other, MutableVectorClock):
            return self._mapping() == other._entries
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._mapping().items()))
        return self._hash

    def __reduce__(self):
        # Compact pickling for the sharded analyzer's IPC: ship only the
        # sparse entries (the cached hash is recomputed on demand).
        return (VectorClock, (self._mapping(),))

    def __repr__(self) -> str:
        inner = ", ".join(f"{tid!r}: {ts}" for tid, ts in sorted(
            self._mapping().items(), key=lambda kv: repr(kv[0])))
        return f"VectorClock({{{inner}}})"


BOTTOM = VectorClock()
"""The least vector clock ``⊥V`` (every component zero)."""


class _SteppedClock(VectorClock):
    """A lazily materialized ``base`` with one component advanced.

    The copy-on-write ``freeze()`` returns these for event stamps inside a
    synchronization window: the thread's clock equals the window's base
    snapshot everywhere except the thread's own component.  The two reads
    on the detector's hot path — ``clock[tid]`` and ``prior.leq(clock)``
    (as the right-hand side) — never materialize, and neither does
    pickling; anything that needs the full mapping (join, hash, repr)
    builds the dict once and caches it in ``_entries``.

    Invariants: ``base`` is never mutated after creation, and
    ``stamp > base.get(tid, 0)`` (the component really did advance), so a
    passed ``stamp ≤ other[tid]`` check implies the base cannot exceed
    ``other`` at ``tid`` either.
    """

    __slots__ = ("_base", "_tid", "_stamp")

    def __init__(self, base: Dict[Tid, int], tid: Tid, stamp: int):
        self._base = base
        self._tid = tid
        self._stamp = stamp
        self._entries = None  # type: ignore[assignment]
        self._hash = None

    def _mapping(self) -> Dict[Tid, int]:
        entries = self._entries
        if entries is None:
            entries = dict(self._base)
            entries[self._tid] = self._stamp
            self._entries = entries
        return entries

    # -- non-materializing fast paths ---------------------------------------

    def __getitem__(self, tid: Tid) -> int:
        entries = self._entries
        if entries is not None:
            return entries.get(tid, 0)
        if tid == self._tid:
            return self._stamp
        return self._base.get(tid, 0)

    def leq(self, other: "VectorClock | MutableVectorClock") -> bool:
        entries = self._entries
        if entries is not None:
            for tid, stamp in entries.items():
                if stamp > other[tid]:
                    return False
            return True
        if self._stamp > other[self._tid]:
            return False
        # stamp > base[tid] (see invariant), so base cannot fail at _tid
        # once the stamp check passed — no need to exclude it below.
        for tid, stamp in self._base.items():
            if stamp > other[tid]:
                return False
        return True

    __le__ = leq

    def __len__(self) -> int:
        entries = self._entries
        if entries is not None:
            return len(entries)
        return len(self._base) + (0 if self._tid in self._base else 1)

    def is_bottom(self) -> bool:
        return False  # stamp >= 1 by construction

    # -- materializing delegates --------------------------------------------

    def threads(self) -> Iterator[Tid]:
        return iter(self._mapping())

    def items(self) -> Iterator[Tuple[Tid, int]]:
        return iter(self._mapping().items())

    def join(self, other: "VectorClock | MutableVectorClock") -> "VectorClock":
        merged = dict(self._mapping())
        for tid, stamp in other.items():
            if stamp > merged.get(tid, 0):
                merged[tid] = stamp
        return VectorClock._trusted(merged)

    __or__ = join

    def inc(self, tid: Tid) -> "VectorClock":
        bumped = dict(self._mapping())
        bumped[tid] = bumped.get(tid, 0) + 1
        return VectorClock._trusted(bumped)

    def thaw(self) -> "MutableVectorClock":
        return MutableVectorClock(self._mapping())

    def __reduce__(self):
        # Pickle as (base, tid, stamp), never the materialized mapping:
        # every stamp of one synchronization window shares one base dict,
        # so pickle's memo ships that O(threads) dict once per dumps and
        # each further clock costs only its tid and stamp.
        return (_SteppedClock, (self._base, self._tid, self._stamp))


#: Sentinel for "no component diverged from the cached snapshot".  A real
#: thread id could legitimately be None, so the dirty marker cannot be.
_NO_DELTA = object()


class MutableVectorClock:
    """In-place vector clock used by detector hot paths.

    Mirrors :class:`VectorClock`'s read API and adds destructive updates
    (:meth:`join_in_place`, :meth:`inc_in_place`).  Call :meth:`freeze` to
    snapshot the current value as an immutable clock — detectors do this when
    stamping events, so later in-place updates cannot corrupt past stamps.

    ``freeze`` is copy-on-write (see the module docstring): ``_base`` holds
    the last full snapshot's dict, ``_base_clock`` the VectorClock wrapping
    it, and ``_delta_tid`` the single component (if any) that has advanced
    since — the state needed to answer the next freeze in O(1).
    """

    __slots__ = ("_entries", "_base", "_base_clock", "_delta_tid")

    def __init__(self, entries: Mapping[Tid, int] | Iterable[Tuple[Tid, int]] = ()):
        if isinstance(entries, _Mapping):
            entries = entries.items()
        self._entries: Dict[Tid, int] = _normalized(entries)
        self._base: Dict[Tid, int] | None = None
        self._base_clock: VectorClock | None = None
        self._delta_tid = _NO_DELTA

    def __getitem__(self, tid: Tid) -> int:
        return self._entries.get(tid, 0)

    def items(self) -> Iterator[Tuple[Tid, int]]:
        return iter(self._entries.items())

    def threads(self) -> Iterator[Tid]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def leq(self, other: "VectorClock | MutableVectorClock") -> bool:
        for tid, stamp in self._entries.items():
            if stamp > other[tid]:
                return False
        return True

    __le__ = leq

    def parallel(self, other: "VectorClock | MutableVectorClock") -> bool:
        return not self.leq(other) and not other.leq(self)

    def _invalidate(self) -> None:
        self._base = None
        self._base_clock = None
        self._delta_tid = _NO_DELTA

    def join_in_place(self, other: "VectorClock | MutableVectorClock") -> "MutableVectorClock":
        """``self ← self ⊔ other`` (returns self for chaining)."""
        mine = self._entries
        changed = False
        for tid, stamp in other.items():
            if stamp > mine.get(tid, 0):
                mine[tid] = stamp
                changed = True
        # A no-op join (acquiring a lock whose clock is already dominated)
        # leaves the cached snapshot valid — freeze stays O(1).
        if changed and self._base is not None:
            self._invalidate()
        return self

    def inc_in_place(self, tid: Tid) -> "MutableVectorClock":
        """``self ← inc_tid(self)`` (returns self for chaining)."""
        entries = self._entries
        entries[tid] = entries.get(tid, 0) + 1
        if self._base is not None:
            delta = self._delta_tid
            if delta is _NO_DELTA:
                self._delta_tid = tid
            elif delta != tid:
                # Two distinct components diverged: the stepped-view trick
                # no longer applies (never happens under Table 1, where a
                # thread only ever increments its own component).
                self._invalidate()
        return self

    def set_component(self, tid: Tid, stamp: int) -> None:
        """Overwrite one component (used by FastTrack's read epochs)."""
        if stamp < 0:
            raise ValueError(f"negative timestamp {stamp} for thread {tid!r}")
        if stamp:
            self._entries[tid] = stamp
        else:
            self._entries.pop(tid, None)
        if self._base is not None:
            self._invalidate()

    def freeze(self) -> VectorClock:
        """An immutable snapshot of the current value — copy-on-write.

        The first freeze after a cross-component mutation copies the dict
        once and caches it; while only this clock's own component advances
        (the Fig. 3 stamping pattern), subsequent freezes return the cached
        snapshot itself or an O(1) :class:`_SteppedClock` view of it.
        """
        base = self._base
        if base is None:
            base = dict(self._entries)
            self._base = base
            clock = VectorClock._trusted(base)
            self._base_clock = clock
            self._delta_tid = _NO_DELTA
            return clock
        delta = self._delta_tid
        if delta is _NO_DELTA:
            return self._base_clock
        # Inline _SteppedClock construction (bypassing __init__): this is
        # the once-per-event stamp of Phase A, where even one extra Python
        # frame is measurable.
        stepped = _SteppedClock.__new__(_SteppedClock)
        stepped._base = base
        stepped._tid = delta
        stepped._stamp = self._entries[delta]
        stepped._entries = None
        stepped._hash = None
        return stepped

    def stamp_next(self, tid: Tid) -> VectorClock:
        """Fused ``inc_in_place(tid)`` + ``freeze()`` — the per-event stamp.

        Phase A runs this once per action (the Fig. 3 refinement: advance
        the thread's own component, then snapshot), so the pair is
        flattened into one call with one dict probe and no intermediate
        method dispatch.  Semantically identical to calling the two
        operations in sequence.
        """
        entries = self._entries
        stamp = entries.get(tid, 0) + 1
        entries[tid] = stamp
        base = self._base
        if base is not None:
            delta = self._delta_tid
            if delta is _NO_DELTA:
                self._delta_tid = tid
            elif delta != tid:
                base = None  # second component diverged: snapshot afresh
        if base is None:
            base = dict(entries)
            self._base = base
            clock = VectorClock._trusted(base)
            self._base_clock = clock
            self._delta_tid = _NO_DELTA
            return clock
        stepped = _SteppedClock.__new__(_SteppedClock)
        stepped._base = base
        stepped._tid = tid
        stepped._stamp = stamp
        stepped._entries = None
        stepped._hash = None
        return stepped

    def copy(self) -> "MutableVectorClock":
        dup = MutableVectorClock.__new__(MutableVectorClock)
        dup._entries = dict(self._entries)
        dup._base = None
        dup._base_clock = None
        dup._delta_tid = _NO_DELTA
        return dup

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (VectorClock, MutableVectorClock)):
            return dict(self.items()) == dict(other.items())
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable: not hashable

    def __reduce__(self):
        return (MutableVectorClock, (self._entries,))

    def __repr__(self) -> str:
        inner = ", ".join(f"{tid!r}: {ts}" for tid, ts in sorted(
            self._entries.items(), key=lambda kv: repr(kv[0])))
        return f"MutableVectorClock({{{inner}}})"
