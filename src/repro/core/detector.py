"""The commutativity race detector — Algorithm 1 of the paper.

The detector consumes a trace event-by-event.  Synchronization events update
the happens-before state (Table 1, delegated to
:class:`~repro.core.hb.HappensBeforeTracker`); each action event
``e = τ : o.m(~x)/~y`` runs the two phases of Algorithm 1:

Phase 1 (race check)
    for each access point ``pt ∈ ηo(o.m(~x)/~y)``:
    for each ``pt' ∈ active(o) ∩ Co(pt)``:
    if ``pt'.vc ⋢ vc(e)`` report a commutativity race.

Phase 2 (state update)
    for each ``pt ∈ ηo(...)``: ``pt.vc ← pt.vc ⊔ vc(e)`` (initializing and
    activating ``pt`` on first touch).

The intersection in phase 1 can be enumerated two ways (Section 5.4), and
each has exactly one loop here:

* :attr:`Strategy.ENUMERATE` — iterate the finite ``Co(pt)`` and probe
  ``active(o)`` by hash lookup.  Constant work per action for ECL-derived
  representations (Theorem 6.6), independent of trace length.  It runs
  over a compiled :class:`~repro.core.plan.CheckPlan` (interned access
  points, cached ``Co(pt)`` tuples), so it needs a representation that
  compiles: a bounded :class:`~repro.core.access_points.
  SchemaRepresentation`.
* :attr:`Strategy.SCAN` — iterate ``active(o)`` and test ``Co`` membership
  through the representation.  Linear in ``|active(o)|`` but the only
  option when ``Co(pt)`` is infinite (naive representations).

:attr:`Strategy.AUTO` picks ENUMERATE exactly when the representation
compiles.  Both loops share one phase-2 update.  The detector counts its
conflict checks so the Fig. 4 / scaling benchmarks can report comparisons
performed, not just wall time.

Epoch point clocks
------------------

FastTrack's insight — most variables are accessed by one thread at a time,
so a scalar *epoch* ``c@t`` usually suffices in place of a vector clock —
transfers to access points.  A point whose touches are totally ordered
keeps an epoch: its latest toucher's ``(tid, stamp)`` plus the exact
accumulated clock the pair certifies (see
:class:`~repro.core.plan._PointEpoch`), so the phase-1 ordering test and
the phase-2 join are one integer compare each.  Only a *concurrent*
cross-thread touch — genuine contention, where no single-component
certificate exists — inflates the point to a bare vector clock, and the
next ordered touch (or a maintenance window, see
:meth:`CommutativityRaceDetector.deflate_point_clocks`) deflates it
back.  Unlike FastTrack's write-epoch (which forgets racy history and
only guarantees the same *first* race per variable), epochs carry the very
clock a full-vector-clock detector would store, so race reports are the
same byte for byte.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from .access_points import AccessPoint, AccessPointRepresentation, SchemaId
from .errors import MonitorError
from .events import Action, Event, EventKind, ObjectId
from .hb import HappensBeforeTracker
from .plan import (CheckPlan, _PointClock, _PointEpoch, _as_clock,
                   _intern_candidates, _point_ordered, _resolve_points,
                   compile_check_plan)
from .races import CommutativityRace
from .vector_clock import Tid, VectorClock

#: Breakdown key standing in for "this candidate point was never touched"
#: in the per-(method, method) check attribution: the probe found nothing
#: active, so there is no prior method to attribute the check to.
UNTOUCHED = "∅"

__all__ = ["Strategy", "DetectorStats", "CommutativityRaceDetector",
           "UNTOUCHED"]


class Strategy(enum.Enum):
    """How phase 1 enumerates ``active(o) ∩ Co(pt)``."""

    AUTO = "auto"
    ENUMERATE = "enumerate"
    SCAN = "scan"


def resolve_strategy(obj: ObjectId,
                     representation: AccessPointRepresentation,
                     strategy: Strategy,
                     plan: Optional[CheckPlan] = None,
                     ) -> Tuple[Strategy, Optional[CheckPlan]]:
    """Resolve one object's phase-1 strategy and the plan it runs on.

    ENUMERATE runs over a compiled :class:`~repro.core.plan.CheckPlan`, so
    AUTO resolves to it exactly when the representation compiles (or a
    ``plan`` compiled elsewhere is supplied) and to SCAN otherwise; an
    explicit ENUMERATE on a representation that does not compile raises
    :class:`MonitorError`.
    """
    if strategy is Strategy.SCAN:
        return Strategy.SCAN, None
    if plan is None:
        plan = compile_check_plan(representation)
    if plan is not None:
        return Strategy.ENUMERATE, plan
    if strategy is Strategy.ENUMERATE:
        raise MonitorError(
            f"object {obj!r}: ENUMERATE strategy requires a bounded "
            f"schema representation that compiles to a check plan "
            f"({representation!r} does not)")
    return Strategy.SCAN, None


@dataclass
class DetectorStats:
    """Operation counters for the complexity experiments.

    ``conflict_checks`` counts individual point-vs-point conflict/membership
    probes in phase 1 — the quantity the paper's Θ(1) vs Θ(|A|) argument is
    about (and what Fig. 4 contrasts with the direct approach).
    """

    events: int = 0
    actions: int = 0
    points_touched: int = 0
    conflict_checks: int = 0
    races: int = 0
    #: points inflated to a bare vector clock by a
    #: concurrent cross-thread touch (a point can promote again after a
    #: deflation, so this counts inflation *events*, not points)
    epoch_promotions: int = 0
    #: inflated points re-certified back to epochs at
    #: maintenance windows (:meth:`~CommutativityRaceDetector.
    #: deflate_point_clocks`; ordered-touch re-deflations on the hot path
    #: are not counted — they are the representation's normal steady state)
    epoch_deflations: int = 0
    #: active points reclaimed by :meth:`~CommutativityRaceDetector.
    #: prune_ordered_points` over the detector's lifetime
    points_pruned: int = 0
    #: intern-table entries dropped alongside pruned points (the plan's
    #: ``(schema, value) -> AccessPoint`` table would otherwise
    #: retain every value-carrying point ever touched — pruning without
    #: eviction bounds ``active(o)`` but not memory)
    interned_points_evicted: int = 0

    def checks_per_action(self) -> float:
        return self.conflict_checks / self.actions if self.actions else 0.0

    def absorb(self, other: "DetectorStats") -> None:
        """Accumulate another detector's counters into this one.

        Used by the sharded offline analyzer to merge per-shard stats; sums
        every counter field so future counters cannot be silently dropped.
        """
        for fld in dataclasses.fields(self):
            setattr(self, fld.name,
                    getattr(self, fld.name) + getattr(other, fld.name))


@dataclass
class _ObjectState:
    """Per-object auxiliary state attached at registration.

    The paper notes (Section 5.3) that auxiliary state can be attached to
    the object itself and reclaimed with it; :meth:`CommutativityRaceDetector.
    release_object` implements that optimization.
    """

    representation: AccessPointRepresentation
    strategy: Strategy
    #: the compiled plan ENUMERATE runs over (None: SCAN)
    plan: Optional[CheckPlan] = None
    #: ``active(o)`` as an insertion-ordered dict-set: scan order must be
    #: first-touch order, not hash order, so race reports come out
    #: identical across processes (hash(AccessPoint) is not stable across
    #: interpreters — spawn workers would otherwise reorder them).
    active: Dict[AccessPoint, None] = field(default_factory=dict)
    point_clock: Dict[AccessPoint, _PointClock] = field(default_factory=dict)
    #: observability only: which method last touched each point, so race
    #: and check attribution can name (method, method) pairs.  Maintained
    #: (and consulted) only when the detector carries an enabled registry.
    point_method: Dict[AccessPoint, str] = field(default_factory=dict)
    #: ENUMERATE: ``(schema, value) -> canonical AccessPoint``, so the
    #: state dicts are probed with identity-cached hashes instead of fresh
    #: dataclass instances.  ηo-output validation happens on intern miss —
    #: once per distinct pair, not once per action.
    interned: Dict[Tuple[SchemaId, Any], AccessPoint] = field(
        default_factory=dict)
    #: ENUMERATE: cached ``Co(pt)`` tuples of canonical points, so
    #: phase 1 never drives the conflicting_candidates generator.
    candidates: Dict[AccessPoint, Tuple[AccessPoint, ...]] = field(
        default_factory=dict)


class CommutativityRaceDetector:
    """Online commutativity race detection (the paper's RD2 analysis).

    Usage::

        det = CommutativityRaceDetector(root=0)
        det.register_object("o", dictionary_representation())
        det.process(fork_event(0, 1))
        det.process(action_event(1, Action("o", "put", ("k", "v"), (NIL,))))
        ...
        det.races  # list of CommutativityRace reports

    Parameters
    ----------
    root:
        Thread id of the initial thread.
    strategy:
        Global phase-1 strategy; ``AUTO`` selects ENUMERATE for
        representations that compile to a check plan and SCAN otherwise,
        per object.
    on_race:
        Optional callback invoked for each race as it is found (the paper's
        on-the-fly reporting); return value ignored.
    keep_reports:
        When false, races are counted but not accumulated (used by long
        benchmark runs to keep memory flat).
    obs:
        Optional :class:`~repro.obs.registry.Registry`.  When enabled, the
        detector attributes conflict checks, races and pruned points per
        object and per (method, method) pair, and samples the ``stamp``
        (happens-before) and ``check`` (Algorithm 1 phases 1-2) timers —
        every ``obs.sample_interval``-th event is measured, keeping the
        instrumented hot path within the benchmark gate's 5% overhead
        budget.  A disabled registry is equivalent to ``None``: the hot
        path pays one ``is None`` test and nothing else.
    predict_window:
        When > 0, the detector additionally runs the predictive pass of
        :mod:`repro.core.predict` over the processed trace: every event
        is logged (stamped), and :meth:`predict` — called by ``run``
        automatically, or at maintenance windows by the streaming
        analyzer — resolves candidate conflicting pairs at most
        ``predict_window`` same-object actions apart into ``predicted``.
        The witnessed ``races`` list is untouched: prediction only adds
        ``predicted:`` reports, each validated by replaying its witness
        reordering through a fresh standard detector.
    """

    def __init__(
        self,
        root: Tid = 0,
        strategy: Strategy = Strategy.AUTO,
        on_race: Optional[Callable[[CommutativityRace], None]] = None,
        keep_reports: bool = True,
        prune_interval: int = 0,
        obs=None,
        predict_window: int = 0,
    ):
        if predict_window < 0:
            raise MonitorError(
                f"predict_window must be >= 0, got {predict_window}")
        self._root = root
        self._hb = HappensBeforeTracker(root=root)
        self._strategy = strategy
        self._on_race = on_race
        self._keep_reports = keep_reports
        self._prune_interval = prune_interval
        self._actions_since_prune = 0
        self._objects: Dict[ObjectId, _ObjectState] = {}
        self.races: List[CommutativityRace] = []
        self.stats = DetectorStats()
        self._predict_window = predict_window
        self._predict_log: Optional[List[Event]] = (
            [] if predict_window else None)
        # Touched-point capture: the ENUMERATE loop resolves ηo for every
        # action anyway, so in predict mode it stashes the tuple and the
        # predictor reuses it instead of re-evaluating the formulas on
        # refeed.  Keyed by log position; missing entries (SCAN objects)
        # fall back to recomputing.
        self._predict_points: Optional[Dict[int, tuple]] = (
            {} if predict_window else None)
        self._predict_last: Optional[tuple] = None
        self._predictor = None
        self.predicted: List = []
        # Every _obs_* attribute is assigned in both modes so enabled and
        # disabled instances share one attribute layout: CPython keeps
        # instance dicts on the class's shared-key table only while all
        # instances set the same attributes in the same order, and losing
        # that pessimizes every self.<attr> load in the hot loop — for
        # both modes, which would poison the overhead benchmark's baseline.
        self._obs = obs if (obs is not None and obs.enabled) else None
        enabled = self._obs is not None
        self._obs_interval = self._obs.sample_interval if enabled else 0
        self._obs_tick = 1            # sample the first event
        self._obs_sampled = False
        # Hot-path breakdowns are grabbed once as raw dicts; the registry
        # merge machinery sees them by name.
        self._obs_checks_by_object = (
            self._obs.breakdown("checks_by_object") if enabled else None)
        self._obs_checks_by_pair = (
            self._obs.breakdown("checks_by_pair") if enabled else None)
        self._obs_races_by_object = (
            self._obs.breakdown("races_by_object") if enabled else None)
        self._obs_races_by_pair = (
            self._obs.breakdown("races_by_pair") if enabled else None)
        self._obs_pruned_by_object = (
            self._obs.breakdown("pruned_by_object") if enabled else None)
        self._obs_stamp_timer = self._obs.timer("stamp") if enabled else None
        self._obs_check_timer = self._obs.timer("check") if enabled else None

    # -- object lifecycle ------------------------------------------------------

    def register_object(self, obj: ObjectId,
                        representation: AccessPointRepresentation,
                        strategy: Optional[Strategy] = None, *,
                        plan: Optional[CheckPlan] = None) -> None:
        """Attach an access point representation to a shared object.

        ``plan`` lets callers supply a pre-compiled check plan (the sharded
        analyzer compiles once and ships the plan to every worker);
        otherwise it is compiled here (see :func:`resolve_strategy`).
        """
        if obj in self._objects:
            raise MonitorError(f"object {obj!r} registered twice")
        chosen, plan = resolve_strategy(obj, representation,
                                        strategy or self._strategy, plan)
        self._objects[obj] = _ObjectState(representation, chosen, plan=plan)

    def release_object(self, obj: ObjectId) -> None:
        """Drop the auxiliary state of a dead object (Section 5.3).

        No new races can be reported on a reclaimed object, so its active
        points and clocks can be discarded.
        """
        self._objects.pop(obj, None)

    def flush_batch(self) -> None:
        """No-op: every action is checked on the call that delivers it.

        Kept only because the layered benchmark's reference pass
        (``perfbench/layers.py``) calls it after its ``process_stamped``
        loop, and ``perfbench/run.py`` fails the whole run at setup if
        that pass raises.  Remove it together with that call.
        """
        return None

    def prune_ordered_points(self) -> int:
        """Reclaim active points that can never race again.

        This is the optimization Section 5.3 leaves as future work
        ("remove unnecessary active access points").  The criterion: a
        point ``pt`` is dead once ``pt.vc ⊑ T(τ)`` for every thread τ that
        may still perform events (threads not yet joined).  Every future
        event ``e`` by a live thread τ — or by any thread it transitively
        forks — satisfies ``vc(e) ⊒ T(τ) ⊒ pt.vc``, so phase 1's
        ``pt.vc ⋢ vc(e)`` test can never fire on ``pt`` again.

        After a ``joinall`` this empties the active sets entirely, bounding
        the detector's memory by the *concurrent* footprint instead of the
        whole execution history.  Returns the number of points reclaimed.
        Enable automatic invocation with the ``prune_interval`` constructor
        parameter (every N actions).
        """
        live_clocks = self._hb.live_clocks()
        reclaimed = 0
        for obj, state in self._objects.items():
            reclaimed += self._prune_state(obj, state, live_clocks)
        return reclaimed

    def prune_object_with_clocks(self, obj: ObjectId,
                                 live_clocks) -> int:
        """Prune one object's points against externally supplied clocks.

        The sharded pipeline's shard workers replay per-object actions
        with a pristine happens-before tracker of their own, so they
        cannot compute the live-thread clocks themselves; phase A captures
        them at each prune boundary and the workers apply them here —
        reaching the exact per-object state (and stats) the sequential
        detector's :meth:`prune_ordered_points` would at that boundary.
        """
        state = self._objects.get(obj)
        if state is None:
            return 0
        return self._prune_state(obj, state, live_clocks)

    def _prune_state(self, obj: ObjectId, state: _ObjectState,
                     live_clocks) -> int:
        """Prune one object's dead points and evict their interned traces."""
        point_clock = state.point_clock
        doomed = [pt for pt in state.active
                  if all(_point_ordered(point_clock[pt], clock)
                         for clock in live_clocks)]
        if not doomed:
            return 0
        for pt in doomed:
            state.active.pop(pt, None)
            del point_clock[pt]
            state.point_method.pop(pt, None)
        # Evict the plan's canonical instances along with the
        # points: every interned entry whose point is no longer active is
        # dead weight — the pruned points themselves, plus probe-only
        # candidates that were interned for their sake and would otherwise
        # accumulate one entry per distinct value forever.  Candidate
        # tuples keyed by a pruned point, or referencing an evicted
        # instance, are invalidated too (a later touch re-interns and
        # rebuilds them; AccessPoint equality is by value, so verdicts
        # cannot depend on which instance survives).
        if state.interned:
            interned = state.interned
            stale = [key for key, pt in interned.items()
                     if pt not in point_clock]
            if stale:
                evicted = set()
                for key in stale:
                    evicted.add(interned.pop(key))
                self.stats.interned_points_evicted += len(stale)
                candidates = state.candidates
                dead_keys = [pt for pt, peers in candidates.items()
                             if pt in evicted
                             or any(peer in evicted for peer in peers)]
                for pt in dead_keys:
                    del candidates[pt]
        if self._obs is not None:
            table = self._obs_pruned_by_object
            table[obj] = table.get(obj, 0) + len(doomed)
        self.stats.points_pruned += len(doomed)
        return len(doomed)

    def active_point_count(self) -> int:
        """Total |active(o)| across objects (for memory accounting)."""
        return sum(len(state.active) for state in self._objects.values())

    def interned_point_count(self) -> int:
        """Total interned (schema, value) entries across objects.

        The ENUMERATE loop's other growing table — together with
        :meth:`active_point_count` this is the detector's per-object
        memory footprint in points.
        """
        return sum(len(state.interned) for state in self._objects.values())

    def per_object_footprint(self) -> Dict[ObjectId, Tuple[int, int]]:
        """``obj -> (active, interned)`` point counts, for HWM gauges."""
        return {obj: (len(state.active), len(state.interned))
                for obj, state in self._objects.items()}

    def deflate_point_clocks(self) -> int:
        """Re-certify inflated points back to epochs where provably sound.

        The coverage certificate: for a point clock ``V``, if every live
        thread's clock covers ``V`` on all components except (at most)
        one ``t``, then for any future event clock ``C`` — which dominates
        some live thread's current clock through fork inheritance and
        monotonicity — ``V ⊑ C ⟺ V[t] ≤ C[t]``.  The point can then carry
        the epoch ``(t, V[t], V)`` instead of the bare clock: same stored
        clock, same verdicts, same reports, but O(1) comparisons again
        (``t`` may even be a dead thread's component — the certificate
        only needs the live clocks to cover the rest).

        A point covered on *every* component deflates on its first
        component; pruning would reclaim it entirely, but deflation is
        cheaper than a prune cycle and keeps the point reportable.
        Points with two or more uncovered components stay inflated —
        still-racy state is exactly where the full clock earns its keep.

        Meant for maintenance windows (:class:`~repro.core.stream.
        StreamAnalyzer` calls it every window); returns the number of
        points deflated.
        """
        live_clocks = self._hb.live_clocks()
        if not live_clocks:
            return 0
        deflated = 0
        for state in self._objects.values():
            point_clock = state.point_clock
            for pt, prior in point_clock.items():
                if type(prior) is _PointEpoch:
                    continue
                uncovered = prior.uncovered_components(live_clocks)
                if len(uncovered) > 1:
                    continue
                if uncovered:
                    tid = uncovered[0]
                else:
                    entries = list(prior.items())
                    if not entries:
                        continue  # bottom clock: nothing to certify
                    tid = entries[0][0]
                point_clock[pt] = _PointEpoch(tid, prior[tid], prior)
                deflated += 1
        self.stats.epoch_deflations += deflated
        return deflated

    def registered_objects(self):
        return self._objects.keys()

    # -- event processing --------------------------------------------------------

    def _obs_advance(self) -> bool:
        """Tick the sampling window; true on the events that get measured."""
        self._obs_tick -= 1
        if self._obs_tick <= 0:
            self._obs_tick = self._obs_interval
            self._obs_sampled = True
            return True
        self._obs_sampled = False
        return False

    def process(self, event: Event) -> Optional[List[CommutativityRace]]:
        """Consume one trace event; return races found on this event, if any."""
        if self._obs is not None:
            # Inlined _obs_advance(): this runs on every event, and a
            # method call alone would eat a fifth of the 5% overhead
            # budget the benchmark gate enforces.
            self._obs_tick -= 1
            if self._obs_tick <= 0:
                self._obs_tick = self._obs_interval
                self._obs_sampled = True
                start = perf_counter_ns()
                clock = self._hb.observe(event)
                self._obs_stamp_timer.record(perf_counter_ns() - start,
                                             self._obs_interval)
            else:
                self._obs_sampled = False
                clock = self._hb.observe(event)
        else:
            clock = self._hb.observe(event)
        if self._predict_log is not None:
            self._predict_log.append(event)
            self._predict_last = None
        self.stats.events += 1
        if event.kind is not EventKind.ACTION:
            return None
        found = self._process_action(event, clock)
        if self._predict_log is not None and self._predict_last is not None:
            self._predict_points[len(self._predict_log) - 1] = (
                self._predict_last)
        if self._prune_interval:
            self._actions_since_prune += 1
            if self._actions_since_prune >= self._prune_interval:
                self._actions_since_prune = 0
                self.prune_ordered_points()
        return found

    def process_stamped(self, event: Event) -> Optional[List[CommutativityRace]]:
        """Consume one *pre-stamped* event, trusting ``event.clock``.

        The offline two-phase pipeline (:mod:`repro.core.parallel`) computes
        every ``vc(e)`` in a single sequential happens-before pass and then
        replays each object's actions independently; this entry point runs
        phases 1 and 2 of Algorithm 1 against the precomputed clock instead
        of advancing the tracker's own happens-before state.
        """
        if event.clock is None:
            raise MonitorError(
                f"process_stamped needs a stamped event (clock is None): "
                f"{event}")
        if self._predict_log is not None:
            self._predict_log.append(event)
            self._predict_last = None
        self.stats.events += 1
        if event.kind is not EventKind.ACTION:
            return None
        found = self._process_action(event, event.clock)
        if self._predict_log is not None and self._predict_last is not None:
            self._predict_points[len(self._predict_log) - 1] = (
                self._predict_last)
        return found

    def _process_action(self, event: Event,
                        clock: VectorClock) -> Optional[List[CommutativityRace]]:
        action = event.action
        state = self._objects.get(action.obj)
        if state is None:
            # Unregistered objects are not analyzed (RoadRunner-style tools
            # likewise only track instrumented classes).
            return None
        stats = self.stats
        stats.actions += 1
        try:
            if state.plan is not None:
                points = _resolve_points(state, action)
                if self._predict_log is not None:
                    # Predict mode: the predictive refeed reuses the
                    # resolved tuple instead of re-evaluating ηo (process()
                    # files it under the event's log position).
                    self._predict_last = points
            else:
                points = state.representation.points_of(action)
        except (LookupError, TypeError, ValueError) as exc:
            # The bound kind cannot interpret this action: a method it
            # lacks, or an argument that cannot be a point value.
            position = (event.index if event.index >= 0
                        else stats.events - 1)
            raise MonitorError(
                f"event {position} ({event.label()}): cannot resolve the "
                f"access points of {action.obj!r}: "
                f"{type(exc).__name__}: {exc}") from exc
        stats.points_touched += len(points)

        # Sampled actions pay for timing + attribution with their counts
        # weight-scaled back up; unsampled actions pay only for this one
        # flag check.  The point->method map is likewise maintained only on
        # sampled actions (an AccessPoint dict store costs ~1µs, a fifth of
        # an average event), so method-pair attribution is exact at
        # sample_interval=1 and statistical otherwise.
        sampled = self._obs is not None and self._obs_sampled
        if sampled:
            start = perf_counter_ns()

        # Phase 1: check for commutativity races.
        found: List[CommutativityRace] = []
        tid = event.tid
        if state.plan is not None:
            checks = self._check_plan(state, points, action, tid, clock,
                                      found)
        else:
            checks = self._check_scan(state, points, action, tid, clock,
                                      found)
        stats.conflict_checks += checks

        if sampled:
            table = self._obs_checks_by_object
            table[action.obj] = (table.get(action.obj, 0)
                                 + checks * self._obs_interval)
            for pt in points:
                self._attribute_checks(state, pt, action.method)

        # Phase 2: update auxiliary state.
        methods = state.point_method if sampled else None
        point_clock = state.point_clock
        active = state.active
        for pt in points:
            if methods is not None:
                methods[pt] = action.method
            prior = point_clock.get(pt)
            if prior is None:
                point_clock[pt] = _PointEpoch(tid, clock[tid], clock)
                active[pt] = None
            elif type(prior) is _PointEpoch:
                if prior.tid == tid or prior.stamp <= clock[prior.tid]:
                    # Ordered before this event (same thread, or the
                    # epoch certificate holds): the join *is* this
                    # event's clock, which certifies itself.
                    point_clock[pt] = _PointEpoch(tid, clock[tid], clock)
                else:
                    # Concurrent cross-thread touch — genuine contention:
                    # inflate to the full joined clock.
                    stats.epoch_promotions += 1
                    point_clock[pt] = prior.clock.join(clock)
            elif prior.leq(clock):
                # The inflated clock is dominated again: this event's
                # clock subsumes it, so the point deflates back.
                point_clock[pt] = _PointEpoch(tid, clock[tid], clock)
            else:
                point_clock[pt] = prior.join(clock)
        if sampled:
            self._obs_check_timer.record(perf_counter_ns() - start,
                                         self._obs_interval)
        return found or None

    def _check_plan(self, state: _ObjectState, points, action: Action,
                    tid: Tid, clock: VectorClock,
                    found: List[CommutativityRace]) -> int:
        """ENUMERATE phase 1: probe each cached ``Co(pt)`` tuple against
        ``active(o)`` — Θ(|Co(pt)|) per point.  Returns the probe count."""
        point_clock = state.point_clock
        candidate_map = state.candidates
        checks = 0
        for pt in points:
            cands = candidate_map.get(pt)
            if cands is None:
                cands = _intern_candidates(state, pt)
            checks += len(cands)
            for candidate in cands:
                prior = point_clock.get(candidate)
                if prior is None:
                    continue  # candidate not active
                if type(prior) is _PointEpoch:
                    if prior.stamp <= clock[prior.tid]:
                        continue
                    prior = prior.clock
                elif prior.leq(clock):
                    continue
                self._report(state, pt, candidate, prior, action, tid,
                             clock, found)
        return checks

    def _check_scan(self, state: _ObjectState, points, action: Action,
                    tid: Tid, clock: VectorClock,
                    found: List[CommutativityRace]) -> int:
        """SCAN phase 1: iterate ``active(o)``, test ``Co`` membership —
        Θ(|active(o)|) per point.  Returns the probe count."""
        conflicts = state.representation.conflicts
        point_clock = state.point_clock
        active = state.active
        for pt in points:
            for active_pt in active:
                if not conflicts(pt, active_pt):
                    continue
                prior = point_clock[active_pt]
                if not _point_ordered(prior, clock):
                    self._report(state, pt, active_pt, _as_clock(prior),
                                 action, tid, clock, found)
        return len(points) * len(active)

    def _attribute_checks(self, state: _ObjectState, pt: AccessPoint,
                          method: str) -> None:
        """Sampled per-(method, method) attribution of phase-1 probes.

        Re-enumerates the candidates the strategy just probed and charges
        each probe to ``(current method, prior toucher's method)`` —
        :data:`UNTOUCHED` when the probe found no active point or the
        prior toucher was never sampled.  Runs only on sampled actions;
        counts carry weight ``sample_interval`` so the breakdown estimates
        the true totals.  At ``sample_interval=1`` (the offline default)
        every action is sampled and the attribution is exact.
        """
        pairs = self._obs_checks_by_pair
        methods = state.point_method
        weight = self._obs_interval
        if state.plan is not None:
            # The cached Co(pt) tuple is exactly what phase 1 just probed
            # (and it is guaranteed present — phase 1 built it).
            candidates = state.candidates[pt]
        else:
            candidates = state.active
        for candidate in candidates:
            key = (method, methods.get(candidate, UNTOUCHED))
            pairs[key] = pairs.get(key, 0) + weight

    def _report(self, state: _ObjectState, pt: AccessPoint,
                prior_pt: AccessPoint, prior_clock: VectorClock,
                action: Action, tid: Tid, clock: VectorClock,
                found: List[CommutativityRace]) -> None:
        race = CommutativityRace(
            obj=action.obj,
            current=action,
            current_clock=clock,
            current_tid=tid,
            point=pt,
            prior_point=prior_pt,
            prior_clock=prior_clock,
        )
        self.stats.races += 1
        if self._obs is not None:
            # Per-object counts are exact (string-keyed, cheap); the
            # method-pair attribution needs an AccessPoint lookup, so it
            # rides the sampling window like the check attribution does
            # and is exact only at sample_interval=1.
            obj_table = self._obs_races_by_object
            obj_table[race.obj] = obj_table.get(race.obj, 0) + 1
            if self._obs_sampled:
                pair = (action.method,
                        state.point_method.get(prior_pt, UNTOUCHED))
                pair_table = self._obs_races_by_pair
                pair_table[pair] = (pair_table.get(pair, 0)
                                    + self._obs_interval)
        found.append(race)
        if self._keep_reports:
            self.races.append(race)
        if self._on_race is not None:
            self._on_race(race)

    # -- convenience -----------------------------------------------------------

    def run(self, events) -> List[CommutativityRace]:
        """Process an iterable of events; return all races found."""
        for event in events:
            self.process(event)
        if self._predict_log is not None:
            self.predict()
        return self.races

    def predict(self) -> List:
        """Resolve queued predictive candidates; return new predictions.

        Requires ``predict_window > 0``.  Incremental: feeds only events
        logged since the previous call, so the streaming analyzer can
        invoke it every maintenance window; ``predicted`` accumulates
        (sorted by original-index pair) and equals a single end-of-trace
        pass.  Witnessed ``races`` are never touched.
        """
        if self._predict_log is None:
            raise MonitorError("predict() requires predict_window > 0")
        predictor = self._predictor
        if predictor is None:
            from .predict import Predictor
            predictor = Predictor(
                {obj: state.representation
                 for obj, state in self._objects.items()},
                window=self._predict_window, root=self._root,
                obs=self._obs,
                plan_states={obj: state
                             for obj, state in self._objects.items()
                             if state.plan is not None},
                captured_points=self._predict_points)
            self._predictor = predictor
        if self._obs is not None:
            start = perf_counter_ns()
        predictor.feed_many(self._predict_log[predictor.events_fed:])
        fresh = predictor.flush()
        self.predicted = predictor.predicted
        if self._obs is not None:
            self._obs.timer("predict").record(perf_counter_ns() - start)
        return fresh

    @property
    def happens_before(self) -> HappensBeforeTracker:
        """The underlying happens-before state (exposed for tests/tools)."""
        return self._hb
