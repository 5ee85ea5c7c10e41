"""Predictive commutativity race detection over sound trace reorderings.

The witnessed-order detector (Algorithm 1) reports a pair of conflicting
invocations only when the observed happens-before order already leaves
them unordered.  Two invocations that *could* have run in parallel — but
happened to be separated by an accidental lock hand-off or a scheduling
coincidence — come out clean.  Predictive analysis closes that gap: for
each conflicting pair ``(a, b)`` the witnessed check clears, it asks
whether some **correct reordering** of the observed trace makes the pair
concurrent, and if so reports a *predicted* commutativity race together
with a concrete witness reordering (Ang/Farzan/Mathur, "Enhanced Data
Race Prediction Through Modular Reasoning": modular per-object reasoning
is what keeps prediction tractable — exactly the shape of this repo's
per-object shard split and per-object check plans).

Correct reorderings
-------------------

A reordering of the observed trace is *correct* when it

* preserves **program order** within every thread (and is per-thread
  prefix closed: a thread's events are a prefix of its observed events),
* preserves **fork/join semantics** (a thread's events follow its fork;
  a join follows every event of the joined thread),
* respects **lock semantics** (critical sections on the same lock do not
  overlap — an acquire of a held lock cannot be scheduled before the
  matching release), and
* preserves the **relative order of every pair of conflicting
  operations** other than the candidate pair itself (the communication /
  last-writer closure: each operation observes the same conflicting
  prefix, so every recorded return value stays realizable).

The dependence relation ``D`` built here over-approximates those
constraints with forward edges only (program order, fork→first-event,
last-event→join, and conflict edges between same-object actions whose
access points conflict — plus a conservative total order per
unregistered object and per raw memory location).  Release→acquire
edges are deliberately **not** in ``D``: relaxing the observed lock
hand-off order is precisely what prediction explores; mutual exclusion
is instead enforced operationally by the witness scheduler.  More edges
can only suppress predictions, so the approximation errs sound.

The per-candidate pipeline:

1. **Candidates** — per registered object, pairs of conflicting actions
   by different threads at most ``window`` object-actions apart whose
   observed clocks are ordered (unordered conflicting pairs are already
   witnessed races).
2. **Feasibility** — the backward ``D``-closures of ``a`` and ``b``
   (excluding the direct ``a→b`` edge).  If ``a`` lies in ``b``'s
   closure through some other conflict chain, no correct reordering can
   make them adjacent: drop.
3. **Witness construction** — greedily linearize the union of the two
   closures in original-index order under lock semantics (an acquire
   whose matching release is outside the support is scheduled only as a
   last resort, since it holds its lock forever).  A stuck schedule
   means mutual exclusion forbids the reordering: drop.  Otherwise
   append ``a`` then ``b`` — adjacent, with no synchronization between
   them, so they are concurrent in the witness.
4. **Validation** — replay the witness through a fresh standard
   :class:`~repro.core.detector.CommutativityRaceDetector` with the same
   registrations and keep the prediction only if that replay itself
   reports the candidate race.  The reported
   :class:`~repro.core.races.CommutativityRace` *is* the replay's
   report, so re-replaying the witness reproduces it byte-identically.
   Prediction therefore finds strictly more races than the witnessed
   pass, never different ones.

``window`` bounds how far apart (in per-object action count) the members
of a candidate pair may be, and how far back the conflict-edge scan
looks; an unconditional chain edge to the action just beyond the scan
horizon keeps the dependence closure sound past the cap.  It does *not*
bound event retention — closures reach back to the trace start, so
prediction keeps the full event log (see ``docs/prediction.md``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .errors import ReproError
from .events import Event, EventKind
from .plan import _intern_candidates, _resolve_points
from .races import CommutativityRace

__all__ = ["PredictedRace", "Predictor", "DEFAULT_PREDICT_WINDOW"]

#: Default candidate window (``repro-analyze --predict`` with no value).
DEFAULT_PREDICT_WINDOW = 256


@dataclass(frozen=True)
class PredictedRace:
    """A commutativity race realizable in a reordering of the trace.

    ``race`` is the report produced by replaying ``witness`` through a
    standard detector (so it carries the *witness* clocks, under which
    the pair is genuinely unordered); ``pair`` names the two original
    trace indices ``(a, b)`` of the conflicting actions; ``witness`` is
    the full reordered event sequence that realizes the race.
    """

    race: CommutativityRace
    pair: Tuple[int, int]
    witness: Tuple[Event, ...]

    def __str__(self) -> str:
        return (f"predicted: {self.race} [reordering of events "
                f"{self.pair[0]} and {self.pair[1]}; witness replays "
                f"{len(self.witness)} events]")

    def snapshot(self) -> dict:
        """Deterministic JSON-ready form (the ``--stats-json`` entry)."""
        return {
            "object": str(self.race.obj),
            "race": str(self.race),
            "pair": [self.pair[0], self.pair[1]],
            "witness": [event.label() for event in self.witness],
        }


class Predictor:
    """Incremental predictive pass over one stamped trace.

    Feed every event (in trace order, already stamped — ``event.clock``
    set by the happens-before pass) through :meth:`feed`; it maintains
    the dependence index and queues candidate pairs.  :meth:`flush`
    resolves everything queued so far — the streaming analyzer calls it
    at maintenance windows, the batch detector once at the end; because
    closures only look backward, flushing early yields exactly the
    end-of-trace predictions for those candidates.
    """

    def __init__(self, representations: Dict[Any, Any],
                 window: int = DEFAULT_PREDICT_WINDOW,
                 root: Any = 0, obs=None, plan_states=None,
                 captured_points=None):
        if window < 1:
            raise ValueError(f"predict window must be >= 1, got {window}")
        self._reps = dict(representations)
        # Optional ENUMERATE object states (``_ObjectState`` with a
        # ``CheckPlan``): the feed resolves ηo exactly as the detector's
        # ENUMERATE loop does (``plan._resolve_points``), onto the same
        # interned canonical points, instead of re-evaluating the
        # representation formulas per action.  Points come out equal
        # either way.
        self._plan_states = dict(plan_states) if plan_states else {}
        # Points the detector already resolved during its own pass, keyed
        # by feed position (``CommutativityRaceDetector`` captures them
        # alongside its predict log).  A hit skips ηo entirely; misses
        # (SCAN objects, sharded refeeds) recompute.
        self._captured: Dict[int, Tuple[Any, ...]] = (
            captured_points if captured_points is not None else {})
        self._window = window
        self._root = root
        self._obs = obs if (obs is not None and obs.enabled) else None
        # -- the dependence index (append-only, one entry per event) --
        self._events: List[Event] = []
        self._clocks: List[Any] = []
        self._preds: List[List[int]] = []
        self._points: Dict[int, Tuple[Any, ...]] = {}
        # -- builder state --
        self._last_of_thread: Dict[Any, int] = {}
        self._forked_at: Dict[Any, int] = {}
        self._lock_stack: Dict[Tuple[Any, Any], List[int]] = {}
        self._match_release: Dict[int, int] = {}
        # Per-object scan list: (index, points, points id, tid) so the
        # window scan runs on locals instead of per-entry dict lookups.
        self._obj_actions: Dict[Any, List[Tuple[int, Tuple, Any, Any]]] = {}
        self._last_unregistered: Dict[Any, int] = {}
        self._last_memory: Dict[Any, int] = {}
        # Conflict verdicts repeat heavily: intern each action's points
        # tuple to a small id (one tuple hash per action, not per scanned
        # pair) and memoize verdicts per id pair.  Point tuples embed
        # their object, so one intern table serves every object.
        self._points_id: Dict[Tuple, int] = {}
        self._conflict_cache: Dict[Tuple[int, int], bool] = {}
        # -- candidates (insertion order = object first-touch order) --
        self._pending: Dict[Any, List[Tuple[int, int]]] = {}
        self.events_fed = 0
        #: lifetime counters (``predict_candidates``, ``predict_validated``,
        #: ``predict_dropped_*``) — mirrored into ``obs`` when enabled
        self.counts: Dict[str, int] = {}
        #: validated predictions, kept sorted by ``pair``
        self.predicted: List[PredictedRace] = []

    # -- building the dependence index ---------------------------------

    def feed(self, event: Event) -> None:
        """Index one stamped event; queues any new candidate pairs."""
        self.feed_many((event,))

    def feed_many(self, events) -> None:
        """Index a batch of stamped events — :meth:`feed`, loop hoisted.

        One call per predict flush instead of one per event; the batch
        loop binds the per-event state to locals, which is measurable on
        the overhead gate (prediction re-walks the whole log).
        """
        events_list = self._events
        clocks = self._clocks
        preds_list = self._preds
        last_of_thread = self._last_of_thread
        forked_at = self._forked_at
        feed_action = self._feed_action
        action_kind = EventKind.ACTION
        fork_kind = EventKind.FORK
        join_kind = EventKind.JOIN
        acquire_kind = EventKind.ACQUIRE
        release_kind = EventKind.RELEASE
        for event in events:
            index = len(events_list)
            events_list.append(event)
            clocks.append(event.clock)
            preds: List[int] = []
            tid = event.tid
            prev = last_of_thread.get(tid)
            if prev is not None:
                preds.append(prev)
            else:
                fork = forked_at.get(tid)
                if fork is not None:
                    preds.append(fork)
            last_of_thread[tid] = index
            kind = event.kind
            if kind is action_kind:
                feed_action(event, index, preds)
            elif kind is fork_kind:
                forked_at[event.peer] = index
            elif kind is join_kind:
                last = last_of_thread.get(event.peer)
                if last is None:
                    last = forked_at.get(event.peer)
                if last is not None:
                    preds.append(last)
            elif kind is acquire_kind:
                self._lock_stack.setdefault(
                    (tid, event.lock), []).append(index)
            elif kind is release_kind:
                stack = self._lock_stack.get((tid, event.lock))
                if stack:
                    self._match_release[stack.pop()] = index
            elif kind.is_memory():
                # Raw reads/writes are opaque to commutativity reasoning:
                # keep each location's accesses totally ordered
                # (conservative — it can only suppress predictions,
                # never unsound ones).
                last = self._last_memory.get(event.location)
                if last is not None:
                    preds.append(last)
                self._last_memory[event.location] = index
            preds_list.append(preds)
        self.events_fed = len(events_list)

    def _feed_action(self, event: Event, index: int,
                     preds: List[int]) -> None:
        action = event.action
        rep = self._reps.get(action.obj)
        if rep is None:
            # Unregistered objects have no conflict relation to consult:
            # preserve their observed per-object order wholesale.
            last = self._last_unregistered.get(action.obj)
            if last is not None:
                preds.append(last)
            self._last_unregistered[action.obj] = index
            return
        state = self._plan_states.get(action.obj)
        points = self._captured.get(index)
        if points is None:
            if state is not None:
                points = _resolve_points(state, action)
            else:
                points = rep.points_of(action)
        self._points[index] = points
        if state is None:
            try:
                pid = self._points_id.setdefault(points,
                                                 len(self._points_id))
            except TypeError:      # unhashable point value: no memoization
                pid = None
        else:
            # ENUMERATE objects resolve conflicts through the plan's
            # candidate map below — no verdict cache needed.
            pid = None
        prior = self._obj_actions.setdefault(action.obj, [])
        window = self._window
        if len(prior) > window:
            scan = prior[-window:]
            # Chain anchor: conflicts beyond the scan horizon stay
            # transitively ordered through the capped chain of anchors.
            preds.append(prior[-window - 1][0])
        else:
            scan = prior
        clock = event.clock
        tid = event.tid
        clocks = self._clocks
        single = points[0] if len(points) == 1 else None
        if state is not None:
            # ENUMERATE objects: points are canonical interned instances
            # and ``Co(pt)`` is the plan's cached candidate tuple, so the
            # conflict test is tuple membership riding the identity
            # shortcut — no formula evaluation, no hashing.
            candidate_map = state.candidates
            if single is not None:
                single_cands = candidate_map.get(single)
                if single_cands is None:
                    single_cands = _intern_candidates(state, single)
            for earlier, earlier_points, _, earlier_tid in scan:
                if single is not None and len(earlier_points) == 1:
                    conflicting = earlier_points[0] in single_cands
                else:
                    conflicting = False
                    for p in points:
                        cands = candidate_map.get(p)
                        if cands is None:
                            cands = _intern_candidates(state, p)
                        for q in earlier_points:
                            if q in cands:
                                conflicting = True
                                break
                        if conflicting:
                            break
                if not conflicting:
                    continue
                preds.append(earlier)
                if earlier_tid == tid:
                    continue  # program order already forbids reordering
                if clock is None or clocks[earlier] is None:
                    raise ReproError(
                        f"prediction requires stamped events; event {index} "
                        f"({event.label()}) or {earlier} has no clock")
                if not clocks[earlier].leq(clock):
                    continue  # unordered: a *witnessed* race
                self._pending.setdefault(
                    action.obj, []).append((earlier, index))
                self._bump("predict_candidates")
            prior.append((index, points, pid, tid))
            return
        cache = self._conflict_cache
        conflicts = rep.conflicts
        for earlier, earlier_points, earlier_pid, earlier_tid in scan:
            key = ((earlier_pid, pid)
                   if pid is not None and earlier_pid is not None else None)
            conflicting = cache.get(key) if key is not None else None
            if conflicting is None:
                if single is not None and len(earlier_points) == 1:
                    conflicting = conflicts(earlier_points[0], single)
                else:
                    conflicting = any(conflicts(p, q)
                                      for p in earlier_points for q in points)
                if key is not None:
                    cache[key] = conflicting
            if not conflicting:
                continue
            preds.append(earlier)
            if earlier_tid == tid:
                continue  # program order already forbids reordering
            if clock is None or clocks[earlier] is None:
                raise ReproError(
                    f"prediction requires stamped events; event {index} "
                    f"({event.label()}) or {earlier} has no clock")
            if not clocks[earlier].leq(clock):
                continue  # unordered: this pair is a *witnessed* race
            self._pending.setdefault(action.obj, []).append((earlier, index))
            self._bump("predict_candidates")
        prior.append((index, points, pid, tid))

    # -- resolving candidates ------------------------------------------

    def flush(self) -> List[PredictedRace]:
        """Resolve every queued candidate; returns the new predictions.

        ``predicted`` accumulates across flushes and stays sorted by
        ``pair``, so incremental (maintenance-window) flushing ends in
        exactly the same list as one flush at end of trace.
        """
        fresh: List[PredictedRace] = []
        # Outcome counters go to a local dict and reach ``counts`` and
        # obs once per flush, not once per candidate.
        counts: Dict[str, int] = {}
        for obj, pairs in self._pending.items():
            for pair in pairs:
                prediction = self._try_candidate(obj, pair, counts)
                if prediction is not None:
                    fresh.append(prediction)
        self._pending.clear()
        for name, amount in counts.items():
            self.counts[name] = self.counts.get(name, 0) + amount
            if self._obs is not None:
                self._obs.add(name, amount)
        fresh.sort(key=lambda prediction: prediction.pair)
        if fresh:
            self.predicted.extend(fresh)
            self.predicted.sort(key=lambda prediction: prediction.pair)
        return fresh

    def _bump(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
        if self._obs is not None:
            self._obs.add(name)

    # -- one candidate through the pipeline ----------------------------

    def _try_candidate(self, obj: Any, pair: Tuple[int, int],
                       counts: Dict[str, int]) -> Optional[PredictedRace]:
        first, second = pair
        preds = self._preds
        # Reachability test first: is ``first`` still in the backward
        # D-closure of ``second`` once the direct conflict edge is
        # removed?  Edges strictly decrease the event index, so any
        # branch that drops below ``first`` can never come back — pruning
        # there bounds the test to the (first, second] span instead of
        # the whole trace, which is what keeps the dominant
        # dropped-ordered case cheap on long traces.
        seen: set = set()
        stack = [p for p in preds[second] if p != first]
        ordered = False
        while stack:
            entry = stack.pop()
            if entry < first or entry in seen:
                continue
            if entry == first:
                ordered = True
                break
            seen.add(entry)
            stack.extend(preds[entry])
        if ordered:
            # Ordered through some other conflict/sync chain: every
            # correct reordering keeps them apart.
            counts["predict_dropped_ordered"] = (
                counts.get("predict_dropped_ordered", 0) + 1)
            return None
        # Survivors pay for the full closures (the witness support).
        down_second: set = set()
        stack = [p for p in preds[second] if p != first]
        while stack:
            entry = stack.pop()
            if entry not in down_second:
                down_second.add(entry)
                stack.extend(preds[entry])
        down_first: set = set()
        stack = list(preds[first])
        while stack:
            entry = stack.pop()
            if entry not in down_first:
                down_first.add(entry)
                stack.extend(preds[entry])
        support = down_first | down_second
        support.discard(first)
        support.discard(second)
        order = self._schedule(support)
        if order is None:
            # Mutual exclusion (or an unmatched lock hand-off) pins the
            # observed order: the closures demand two overlapping
            # critical sections on one lock.
            counts["predict_dropped_stuck"] = (
                counts.get("predict_dropped_stuck", 0) + 1)
            return None
        events = self._events
        witness = [_fresh_event(events[entry]) for entry in order]
        witness.append(_fresh_event(events[first]))
        witness.append(_fresh_event(events[second]))
        race = self._validate(obj, first, second, witness)
        if race is None:
            counts["predict_dropped_unvalidated"] = (
                counts.get("predict_dropped_unvalidated", 0) + 1)
            return None
        counts["predict_validated"] = counts.get("predict_validated", 0) + 1
        return PredictedRace(race=race, pair=pair, witness=tuple(witness))

    def _schedule(self, support: set) -> Optional[List[int]]:
        """Lock-aware greedy linearization of ``support``; None if stuck.

        Events schedule in original-index order once their dependence
        predecessors have run.  Mutual exclusion is operational: an
        acquire of a held lock waits for the matching release; an acquire
        whose matching release lies *outside* the support would hold its
        lock for the rest of the witness, so it is deferred until nothing
        else can run.  Failure to place every event means the candidate's
        closures require overlapping critical sections — no correct
        reordering exists, and the caller drops the candidate.
        """
        if not support:
            return []
        preds = self._preds
        events = self._events
        remaining: Dict[int, int] = {}
        succs: Dict[int, List[int]] = {}
        for entry in support:
            need = 0
            for pred in preds[entry]:
                if pred in support:
                    need += 1
                    succs.setdefault(pred, []).append(entry)
            remaining[entry] = need
        ready = [entry for entry in support if remaining[entry] == 0]
        heapq.heapify(ready)
        deferred: List[int] = []   # acquires whose release is outside
        waiting: Dict[Any, List[int]] = {}
        held: Dict[Any, Any] = {}
        order: List[int] = []
        match_release = self._match_release

        def place(entry: int) -> None:
            order.append(entry)
            for succ in succs.get(entry, ()):
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    heapq.heappush(ready, succ)

        while True:
            progressed = False
            while ready:
                entry = heapq.heappop(ready)
                event = events[entry]
                if event.kind is EventKind.ACQUIRE:
                    release = match_release.get(entry)
                    if release is None or release not in support:
                        heapq.heappush(deferred, entry)
                        continue
                    if event.lock in held:
                        waiting.setdefault(event.lock, []).append(entry)
                        continue
                    held[event.lock] = event.tid
                elif event.kind is EventKind.RELEASE:
                    held.pop(event.lock, None)
                    for waiter in waiting.pop(event.lock, ()):
                        heapq.heappush(ready, waiter)
                place(entry)
                progressed = True
            if len(order) == len(support):
                return order
            # Nothing non-terminal can run: commit one deferred acquire
            # (its lock stays held for the rest of the witness).
            placed = False
            stash: List[int] = []
            while deferred:
                entry = heapq.heappop(deferred)
                if events[entry].lock in held:
                    stash.append(entry)
                    continue
                held[events[entry].lock] = events[entry].tid
                place(entry)
                placed = True
                break
            for entry in stash:
                heapq.heappush(deferred, entry)
            if not placed and not progressed:
                return None

    def _validate(self, obj: Any, first: int, second: int,
                  witness: List[Event]) -> Optional[CommutativityRace]:
        """Replay the witness through a standard detector; the race or None.

        The witness is a correct reordering by construction, but the
        standard detector is the authority: a prediction ships only if
        the replay itself reports the candidate pair racing.  Any replay
        error (a protocol-invalid witness would be a bug here, not in the
        trace) conservatively drops the candidate.
        """
        from .detector import CommutativityRaceDetector
        detector = CommutativityRaceDetector(root=self._root)
        # Per-object factoring: other objects' registrations cannot change
        # this object's races, so the replay only needs the candidate's.
        detector.register_object(obj, self._reps[obj])
        try:
            races = detector.run(witness)
        except ReproError:
            return None
        target = self._events[second].action
        target_tid = self._events[second].tid
        first_points = set(self._points[first])
        second_points = set(self._points[second])
        for race in races:
            if (race.obj == obj and race.current == target
                    and race.current_tid == target_tid
                    and race.point in second_points
                    and race.prior_point in first_points):
                return race
        return None


def _fresh_event(event: Event) -> Event:
    """An unstamped copy — the witness replay computes its own clocks."""
    return Event(kind=event.kind, tid=event.tid, action=event.action,
                 peer=event.peer, lock=event.lock, location=event.location)
