"""Happens-before tracking via vector clocks (Table 1 of the paper).

:class:`HappensBeforeTracker` maintains the two auxiliary maps of Section 5.2:

* ``T : Tid -> VC`` — one clock per thread,
* ``L : Lock -> VC`` — one clock per lock,

and updates them at synchronization events following Table 1::

    τ : fork(u)   T(u) ← child of T(τ);  T(τ) ← inc_τ(T(τ))
    τ : join(u)   T(τ) ← T(τ) ⊔ T(u)
    τ : acq(l)    T(τ) ← T(τ) ⊔ L(l)
    τ : rel(l)    L(l) ← T(τ);  T(τ) ← inc_τ(T(τ))

Action (and read/write) events are stamped with ``vc(e) ← T(τ)``.

Stamping convention
-------------------

Table 1 stamps actions with the thread clock *as is*, which leaves two
consecutive same-thread actions with equal clocks — they would appear
mutually ordered, which is sound for race checking (``⊑`` holds both ways,
so never "parallel") but loses the strict program order.  The paper's own
Fig. 3 uses the refinement implemented here: **every stamped event first
increments its thread's component**, and fork increments the parent before
the child copies the parent's clock (the child's own component first
advances at its first event).  This assigns the figure's exact clocks
(``⟨3,0,1⟩ / ⟨2,1,0⟩ / ⟨4,1,1⟩``), gives every event a unique stamp, and
induces the same may-happen-in-parallel relation as the plain Table 1
stamps on distinct-thread events.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from .errors import MonitorError
from .events import Event, EventKind
from .vector_clock import MutableVectorClock, Tid, VectorClock

__all__ = ["HappensBeforeTracker"]


class HappensBeforeTracker:
    """Online vector-clock computation for a single trace.

    Feed events in trace order with :meth:`observe`; each event comes back
    with ``event.clock`` set to its happens-before stamp ``vc(e)``.  Two
    stamped events may happen in parallel iff their clocks are incomparable
    (``e1.clock.parallel(e2.clock)``).

    The tracker is strict about protocol misuse: joining an unknown thread or
    forking an existing one raises :class:`~repro.core.errors.MonitorError`,
    because silently fabricating a clock would corrupt every subsequent race
    verdict.
    """

    def __init__(self, root: Tid = 0):
        self._threads: Dict[Tid, MutableVectorClock] = {}
        self._locks: Dict[Hashable, MutableVectorClock] = {}
        self._joined: set = set()
        self._register_root(root)

    def _register_root(self, root: Tid) -> None:
        # The root thread starts at step 1 so that its events are never
        # stamped with ⊥ (which would be ⊑ everything and mask races with
        # pre-fork events in degenerate traces).
        clock = MutableVectorClock()
        clock.inc_in_place(root)
        self._threads[root] = clock

    # -- introspection -----------------------------------------------------

    def known_threads(self):
        """Thread ids that have been observed (root or forked)."""
        return self._threads.keys()

    def known_locks(self):
        """Lock identities that have been released at least once.

        (Acquires of never-released locks read the bottom clock and leave
        no ``L`` entry behind.)  Exposed for the observability gauges:
        the lock-clock table is the detector's other growing map, so its
        size belongs in capacity reports next to the thread count.
        """
        return self._locks.keys()

    def live_threads(self):
        """Threads that may still perform events.

        A thread that has been joined has terminated (join returns only
        after termination), so it produces no further events.  Used by the
        detector's active-point pruning.
        """
        return [tid for tid in self._threads if tid not in self._joined]

    def clock_of(self, tid: Tid) -> VectorClock:
        """Snapshot of ``T(tid)``."""
        return self._thread(tid).freeze()

    def live_clocks(self) -> List[VectorClock]:
        """Frozen ``T(τ)`` snapshots for every live thread.

        The certificates the detector's maintenance passes compare point
        clocks against: any future event's clock dominates one of these
        (fork inheritance plus per-thread monotonicity), so a point-clock
        property that holds against all of them holds against every
        future stamp.  Used by active-point pruning and epoch deflation.
        """
        return [self.clock_of(tid) for tid in self.live_threads()]

    def lock_clock(self, lock: Hashable) -> VectorClock:
        """Snapshot of ``L(lock)`` (⊥ if the lock was never released)."""
        clock = self._locks.get(lock)
        return clock.freeze() if clock is not None else VectorClock()

    def _thread(self, tid: Tid) -> MutableVectorClock:
        try:
            return self._threads[tid]
        except KeyError:
            raise MonitorError(
                f"thread {tid!r} has no clock: it was never forked nor "
                f"registered as the root thread") from None

    # -- bounded-memory maintenance (streaming mode) -----------------------

    def retire_joined_threads(self):
        """Forget the clocks of joined (terminated) threads.

        ``T(u)`` is read exactly once after ``join(u)`` — by the join
        itself — so a joined thread's entry is dead weight; dropping it
        bounds the thread table by the *live* thread count instead of the
        total ever forked.  Verdict- and stamp-preserving: no surviving
        clock is touched.  The one observable divergence is protocol
        strictness — a second ``join(u)`` or a fork reusing ``u`` raises /
        is accepted where the unretired tracker would accept / raise;
        neither occurs in well-formed traces.  Returns the retired tids.
        """
        retired = [tid for tid in self._joined if tid in self._threads]
        for tid in retired:
            del self._threads[tid]
        self._joined.difference_update(retired)
        return retired

    # -- event processing -----------------------------------------------------

    def observe(self, event: Event) -> VectorClock:
        """Process one event; stamp and return its vector clock.

        Synchronization events update ``T``/``L`` per Table 1; every event
        is stamped (sync events with the acting thread's clock at the
        relevant instant).
        """
        if event.kind is EventKind.ACTION:
            # Inlined _on_stamp: actions are the overwhelming majority of
            # real traces and the sequential Phase A of the sharded
            # pipeline is nothing but this line repeated — skip the
            # handler-table dispatch and use the fused copy-on-write
            # inc+freeze, which is O(1) between synchronization events.
            clock = self._threads.get(event.tid)
            if clock is None:
                self._thread(event.tid)  # raises MonitorError
            stamp = clock.stamp_next(event.tid)
            event.clock = stamp
            return stamp
        handler = self._HANDLERS[event.kind]
        clock = handler(self, event)
        event.clock = clock
        return clock

    def _on_fork(self, event: Event) -> VectorClock:
        parent = self._thread(event.tid)
        child_tid = event.peer
        if child_tid in self._threads:
            raise MonitorError(f"thread {child_tid!r} forked twice")
        parent.inc_in_place(event.tid)
        self._threads[child_tid] = parent.copy()
        return parent.freeze()

    def _on_join(self, event: Event) -> VectorClock:
        waiter = self._thread(event.tid)
        target = self._threads.get(event.peer)
        if target is None:
            raise MonitorError(f"join of unknown thread {event.peer!r}")
        waiter.join_in_place(target)
        self._joined.add(event.peer)
        return waiter.freeze()

    def _on_acquire(self, event: Event) -> VectorClock:
        holder = self._thread(event.tid)
        lock_clock = self._locks.get(event.lock)
        if lock_clock is not None:
            holder.join_in_place(lock_clock)
        return holder.freeze()

    def _on_release(self, event: Event) -> VectorClock:
        holder = self._thread(event.tid)
        stamp = holder.freeze()
        self._locks[event.lock] = holder.copy()
        holder.inc_in_place(event.tid)
        return stamp

    def _on_stamp(self, event: Event) -> VectorClock:
        # Actions and memory accesses: advance the thread's own component,
        # then vc(e) ← T(τ) (the Fig. 3 stamping refinement).
        clock = self._thread(event.tid)
        clock.inc_in_place(event.tid)
        return clock.freeze()

    def _on_stamp_plain(self, event: Event) -> VectorClock:
        # Transaction boundaries: observed but not ordering and not
        # advancing the thread's component (they are not operations).
        return self._thread(event.tid).freeze()

    _HANDLERS = {
        EventKind.FORK: _on_fork,
        EventKind.JOIN: _on_join,
        EventKind.ACQUIRE: _on_acquire,
        EventKind.RELEASE: _on_release,
        EventKind.ACTION: _on_stamp,
        EventKind.READ: _on_stamp,
        EventKind.WRITE: _on_stamp,
        EventKind.BEGIN: _on_stamp_plain,
        EventKind.COMMIT: _on_stamp_plain,
    }
