"""Sharded offline trace analysis: the two-phase HB/check pipeline.

Algorithm 1's per-event work factors into (a) a *global* happens-before
update — Table 1 bookkeeping that inherently serializes on the thread and
lock clocks — and (b) a *per-object* race check and state update: phases 1
and 2 touch only ``active(o)`` and the point clocks of the one object the
action invokes.  Two actions on distinct objects therefore never read or
write common detector state, so once every event carries its ``vc(e)``,
the per-object work can be replayed in any interleaving — in particular,
object-by-object on separate CPUs — without changing a single verdict.

:class:`ShardedDetector` exploits that factoring for offline analysis:

Phase A (sequential)
    One pass over the trace drives :class:`~repro.core.hb.
    HappensBeforeTracker`, stamping every event with ``vc(e)`` and
    bucketing each registered object's actions (in compact wire form, see
    :func:`~repro.core.events.pack_stamped_action`).

Phase B (parallel)
    Objects are partitioned into ``workers`` shards (greedy
    longest-processing-time on action counts, deterministic), and each
    shard replays its objects' stamped actions through an ordinary
    :class:`~repro.core.detector.CommutativityRaceDetector` via
    :meth:`~repro.core.detector.CommutativityRaceDetector.process_stamped`
    in its own worker process: each shard's payload is pickled once and
    handed to the child as its process argument.  Stamped clocks pickle
    as ``(base, tid, stamp)`` (``_SteppedClock`` in
    :mod:`repro.core.vector_clock`), so pickle's memo ships each
    synchronization window's shared base once per shard, not once per
    action.  Race reports come back tagged with their trace index and
    are merged in stable event-index order; shard stats merge via
    :meth:`~repro.core.detector.DetectorStats.absorb`.

The merged ``races`` list is *identical* — report for report, in the same
order — to what the sequential detector produces on the same trace, and
the merged ``stats`` agree on every per-action counter (``events`` is
taken from the phase-A pass over the whole trace).  The differential
property suite in ``tests/integration/test_sharded_differential.py``
checks exactly that across randomized multi-object traces.

Phase B is fault-tolerant: it runs under a
:class:`~repro.core.supervise.ShardSupervisor` (a timeout, and an
in-process replay of every shard whose worker failed — the identity
guarantee above holds even when shard workers crash, hang, or return
unpicklable results), and every tolerated failure lands in
:attr:`ShardedDetector.faults`.  Phase A keeps no
snapshots: a killed run is simply run again, since stamping from event
zero costs less than loading and verifying a snapshot would.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .backend import resolve_backend
from .detector import (CommutativityRaceDetector, DetectorStats, Strategy,
                       resolve_strategy)
from .errors import MonitorError
from .events import (Action, EventKind, ObjectId,
                     pack_stamped_action, unpack_stamped_action)
from .faults import FaultLog
from .hb import HappensBeforeTracker
from .races import CommutativityRace
from .supervise import DEFAULT_SHARD_TIMEOUT, ShardSupervisor
from .vector_clock import Tid

__all__ = ["ShardedDetector", "partition_by_load"]


def partition_by_load(loads: Sequence[Tuple[ObjectId, int]],
                      shards: int) -> List[List[ObjectId]]:
    """Split objects into ``shards`` balanced groups, deterministically.

    Greedy longest-processing-time: objects sorted by descending load
    (ties broken by their position in ``loads``, i.e. first-touch order)
    are assigned to the currently lightest shard (ties to the lowest shard
    index).  Empty shards are dropped, so at most ``len(loads)`` groups
    come back.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    order = sorted(range(len(loads)), key=lambda i: (-loads[i][1], i))
    bins: List[List[ObjectId]] = [[] for _ in range(shards)]
    weights = [0] * shards
    for i in order:
        obj, load = loads[i]
        target = min(range(shards), key=lambda b: (weights[b], b))
        bins[target].append(obj)
        weights[target] += load
    return [group for group in bins if group]


# One shard's inputs: per object, the registration (representation,
# resolved strategy, pre-compiled check plan) and the object's stamped
# actions.  ``obs_interval`` is None when observability is off; otherwise
# the worker builds its own registry (sampling at that interval) and ships
# it back for the merge.  Plans are compiled once in the facade and
# shipped, not recompiled per shard; pickle memoization dedups the plan's
# references into the representation riding alongside.
_ShardPayload = Tuple[Optional[int],
                      List[Tuple[ObjectId, Any, Strategy, Any,
                                 List[Tuple[Any, ...]]]]]


def _analyze_shard(payload: _ShardPayload):
    """Worker: replay each object's stamped actions through Algorithm 1.

    Module-level so it is importable under any multiprocessing start
    method.  Returns ``(triples, stats, obs)`` where each triple is
    ``(event_index, seq_within_event, race)`` — actions touch exactly one
    object, so per-object replay preserves the sequential within-event
    report order, and sorting the merged triples by ``(index, seq)``
    reconstructs the sequential global order exactly.  ``obs`` is the
    shard's metric registry (None with observability off); the facade
    absorbs it next to the shard's stats, so per-object and per-method-
    pair attribution survives the fan-out.
    """
    obs_interval, objects = payload
    obs = None
    if obs_interval is not None:
        from ..obs.registry import Registry
        obs = Registry(sample_interval=obs_interval)
    detector = CommutativityRaceDetector(keep_reports=False, obs=obs)
    for obj, representation, strategy, plan, _ in objects:
        detector.register_object(obj, representation, strategy, plan=plan)
    # One reusable Event shell per shard: the detector reads (and the race
    # reports capture) only the per-iteration action/tid/clock values, so
    # rebuilding the carrier dataclass per event is avoidable overhead.
    shell = unpack_stamped_action(None, (0, 0, "", (), (), None))
    stats = detector.stats
    triples: List[Tuple[int, int, CommutativityRace]] = []
    replay_start = perf_counter_ns() if obs is not None else 0
    for obj, _, _, _, packed_actions in objects:
        for packed in packed_actions:
            index, shell.tid, method, args, returns, shell.clock = packed
            shell.action = Action(obj, method, args, returns)
            shell.index = index
            stats.events += 1
            if obs is not None:
                detector._obs_advance()
            found = detector._process_action(shell, shell.clock)
            if found:
                triples.extend((index, seq, race)
                               for seq, race in enumerate(found))
    if obs is not None:
        # One exact span per shard: merged, the "shard" timer sums replay
        # CPU time across shards (vs. the facade's "fanout" wall clock).
        obs.timer("shard").record(perf_counter_ns() - replay_start)
    return triples, detector.stats, obs


def _shard_job(index: int, payload: _ShardPayload):
    """Supervised-worker adapter: ignores the supervision bookkeeping.

    The supervisor's worker contract is ``worker(index, payload)`` so the
    fault harness can key on the shard; the shard computation itself
    depends only on the payload — a child and the in-process fallback
    replay it identically.
    """
    return _analyze_shard(payload)


def _diagnose_unpicklable(payload: _ShardPayload,
                          exc: Exception) -> MonitorError:
    """Explain why a shard payload failed to pickle with ``exc``.

    The supervisor asks only when pickling the payload failed, so this
    probes the payload's parts, object by object, to name the one to
    blame, instead of pickling the whole payload again.
    """
    for obj, representation, strategy, plan, packed_actions in payload[-1]:
        for part, value in (("representation", representation),
                            ("strategy", strategy),
                            ("check plan", plan),
                            ("stamped actions", packed_actions)):
            try:
                pickle.dumps(value)
            except Exception:
                return MonitorError(
                    f"object {obj!r}: its {part} cannot be pickled for "
                    f"shipment to worker processes "
                    f"({type(exc).__name__}: {exc}); use workers<=1 "
                    f"(inline sharding) or the sequential "
                    f"CommutativityRaceDetector")
    return MonitorError(
        f"shard payload cannot be pickled for worker processes "
        f"({type(exc).__name__}: {exc})")


class ShardedDetector:
    """Offline commutativity race detection, fanned out by object shard.

    Mirrors :class:`~repro.core.detector.CommutativityRaceDetector`'s
    offline API (``register_object`` / ``release_object`` / ``run`` /
    ``races`` / ``stats``) but requires the whole trace up front — there is
    no single-event ``process``, because the happens-before pass must
    complete before per-object work can be distributed.

    Parameters
    ----------
    root:
        Thread id of the initial thread.
    workers:
        Worker process count for phase B.  ``None`` uses the machine's CPU
        count; ``0`` or ``1`` runs the shard work inline (no subprocesses,
        but the same pack/replay/merge pipeline — handy for tests and for
        unpicklable custom representations).
    mp_context:
        Optional ``multiprocessing`` start-method name (``"fork"``,
        ``"spawn"``...); default lets the platform choose.
    obs:
        Optional :class:`~repro.obs.registry.Registry`.  The facade times
        the pipeline's phases exactly (``stamp`` = phase A, ``fanout`` =
        phase B wall clock, ``merge``); each worker builds a private
        registry (per-object and per-method-pair attribution plus a
        per-shard ``shard`` replay span) that is shipped back with the
        shard's stats and absorbed here, alongside the existing
        ``DetectorStats.absorb`` merge.
    shard_timeout:
        Seconds the :class:`~repro.core.supervise.ShardSupervisor` that
        runs phase B gives the shard workers to answer (finite, > 0); a
        silent worker is hung, and its shard is replayed in-process like
        any other failed one.
    backend:
        Phase-B transport: ``None`` or ``"pickle"``, the only one there
        is; anything else is a :class:`ValueError`.
    predict_window:
        When > 0, a predictive pass (:mod:`repro.core.predict`) runs
        after the merge: one predictor over the stamped log, in this
        process, whatever ``workers`` is.  Validated predictions land in
        :attr:`predicted`, sorted by original-index pair, so every
        worker count agrees byte for byte.
    """

    def __init__(
        self,
        root: Tid = 0,
        workers: Optional[int] = None,
        mp_context: Optional[str] = None,
        obs=None,
        shard_timeout: float = DEFAULT_SHARD_TIMEOUT,
        backend: Optional[str] = None,
        predict_window: int = 0,
    ):
        if predict_window < 0:
            raise MonitorError(
                f"predict_window must be >= 0, got {predict_window}")
        if not math.isfinite(shard_timeout) or shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be finite and > 0, "
                             f"got {shard_timeout}")
        self._root = root
        self._obs = obs if (obs is not None and obs.enabled) else None
        self.workers = multiprocessing.cpu_count() if workers is None else workers
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self._mp_context = mp_context
        self._shard_timeout = shard_timeout
        resolve_backend(backend)
        self._registrations: Dict[ObjectId, Tuple[Any, Strategy, Any]] = {}
        self._hb: Optional[HappensBeforeTracker] = None
        self.races: List[CommutativityRace] = []
        self.stats = DetectorStats()
        self._predict_window = predict_window
        #: Validated predictive races from the most recent :meth:`run`
        #: (``predict_window > 0``), sorted by original-index pair.
        self.predicted: List = []
        #: Tolerated failures from the most recent :meth:`run` (shard
        #: supervision; cleared per run).
        self.faults = FaultLog()

    # -- object lifecycle ------------------------------------------------------

    def register_object(self, obj: ObjectId, representation,
                        strategy: Optional[Strategy] = None) -> None:
        """Attach an access point representation to a shared object."""
        if obj in self._registrations:
            raise MonitorError(f"object {obj!r} registered twice")
        # Worker processes receive registrations pickled, so they must
        # pickle.
        if self.workers > 1:
            try:
                pickle.dumps(representation)
            except Exception as exc:
                raise MonitorError(
                    f"object {obj!r}: representation {representation!r} is "
                    f"not picklable, so it cannot be shipped to worker "
                    f"processes; use workers<=1 (inline sharding) or the "
                    f"sequential CommutativityRaceDetector") from exc
        # Resolve the strategy and compile the ENUMERATE plan once, here in
        # the facade: every worker receives the finished plan in its
        # payload instead of re-deriving it per shard.
        chosen, plan = resolve_strategy(obj, representation,
                                        strategy or Strategy.AUTO)
        self._registrations[obj] = (representation, chosen, plan)

    def release_object(self, obj: ObjectId) -> None:
        """Drop a registration before analysis (mirrors the sequential API)."""
        self._registrations.pop(obj, None)

    def registered_objects(self):
        return self._registrations.keys()

    # -- the two-phase pipeline ------------------------------------------------

    def run(self, events) -> List[CommutativityRace]:
        """Analyze a whole trace; returns (and stores) the merged reports.

        Re-running replaces ``races`` and ``stats`` — each call analyzes
        one complete trace, like a fresh sequential detector would.
        """
        self.faults.clear()
        self.predicted = []
        if self._predict_window:
            # Phase A stamps events in place; keep the stamped list so
            # the post-merge predictive pass can replay it.
            events = list(events)
        obs = self._obs
        if obs is None:
            groups, total_events = self._stamp_and_partition(events)
            results = self._fan_out(groups)
            self._merge(results, total_events)
            if self._predict_window:
                self._run_predict(events)
            return self.races
        with obs.span("stamp"):
            groups, total_events = self._stamp_and_partition(events)
        obs.gauge("hb_threads", len(self._hb.known_threads()))
        obs.gauge("hb_locks", len(self._hb.known_locks()))
        with obs.span("fanout"):
            results = self._fan_out(groups)
        obs.gauge("shards", len(results))
        with obs.span("merge"):
            self._merge(results, total_events)
        if self._predict_window:
            with obs.span("predict"):
                self._run_predict(events)
        return self.races

    def _run_predict(self, stamped_events) -> None:
        """Post-merge predictive pass: one predictor over the stamped log.

        Phase A already stamped every event, so the predictor indexes
        them as they are and resolves every candidate in one flush.
        """
        from .predict import Predictor
        predictor = Predictor(
            {obj: registration[0]
             for obj, registration in self._registrations.items()},
            window=self._predict_window, root=self._root, obs=self._obs)
        predictor.feed_many(stamped_events)
        self.predicted = predictor.flush()

    # Phase A: one sequential happens-before pass over the full trace.
    def _stamp_and_partition(self, events):
        self._hb = HappensBeforeTracker(root=self._root)
        groups = {obj: [] for obj in self._registrations}
        total = 0
        for index, event in enumerate(events):
            clock = self._hb.observe(event)
            total += 1
            if event.kind is EventKind.ACTION:
                bucket = groups.get(event.action.obj)
                if bucket is not None:
                    bucket.append(pack_stamped_action(event, index, clock))
        return groups, total

    # Phase B: shard the objects and fan the per-object replay out.
    def _fan_out(self, groups: Dict[ObjectId, List[Tuple[Any, ...]]]):
        loads = [(obj, len(bucket)) for obj, bucket in groups.items()]
        shard_count = max(1, min(self.workers, len(loads)))
        obs_interval = (self._obs.sample_interval
                        if self._obs is not None else None)
        payloads = []
        for shard_objs in partition_by_load(loads, shard_count):
            objects = [(obj,) + self._registrations[obj] + (groups[obj],)
                       for obj in shard_objs]
            payloads.append((obs_interval, objects))
        if not payloads:
            return []
        if self.workers <= 1 or len(payloads) == 1:
            return [_analyze_shard(payload) for payload in payloads]
        supervisor = ShardSupervisor(
            _shard_job, mp_context=self._mp_context,
            timeout=self._shard_timeout, obs=self._obs, faults=self.faults,
            diagnose=lambda index, exc: _diagnose_unpicklable(
                payloads[index], exc))
        return supervisor.run(payloads)

    # Merge: stable event-index order, summed counters.
    def _merge(self, results, total_events: int) -> None:
        self.stats = DetectorStats()
        triples: List[Tuple[int, int, CommutativityRace]] = []
        for shard_triples, shard_stats, shard_obs in results:
            triples.extend(shard_triples)
            self.stats.absorb(shard_stats)
            if shard_obs is not None and self._obs is not None:
                self._obs.absorb(shard_obs)
        # Workers count only their shard's events; the trace-wide total
        # comes from the phase-A pass (sync events included, once).
        self.stats.events = total_events
        triples.sort(key=lambda t: (t[0], t[1]))
        self.races = [race for _, _, race in triples]

    # -- convenience -----------------------------------------------------------

    @property
    def happens_before(self) -> HappensBeforeTracker:
        """The phase-A happens-before state (available after :meth:`run`)."""
        if self._hb is None:
            raise MonitorError("run() has not been called yet")
        return self._hb
