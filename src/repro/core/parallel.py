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
    in a ``multiprocessing`` pool.  Race reports come back tagged with
    their trace index and are merged in stable event-index order; shard
    stats merge via :meth:`~repro.core.detector.DetectorStats.absorb`.

The merged ``races`` list is *identical* — report for report, in the same
order — to what the sequential detector produces on the same trace, and
the merged ``stats`` agree on every per-action counter (``events`` is
taken from the phase-A pass over the whole trace).  The differential
property suite in ``tests/integration/test_sharded_differential.py``
checks exactly that across randomized multi-object traces.

Both phases are fault-tolerant.  Phase B runs under a
:class:`~repro.core.supervise.ShardSupervisor` (timeouts, bounded retry,
in-process fallback — the identity guarantee above holds even when shard
workers crash, hang, or return unpicklable results), and phase A can
periodically checkpoint its state (:mod:`repro.core.checkpoint`) so a
killed run resumes via ``resume_from`` without restamping the prefix.
Every tolerated failure lands in :attr:`ShardedDetector.faults`.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import pickle
import time
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .backend import (BackendChoice, resolve_backend,
                      run_pickled_in_subinterpreter)
from .checkpoint import (CHECKPOINT_VERSION, Checkpoint, CheckpointConfig,
                         CheckpointWriter, event_fingerprint, load_checkpoint)
from .detector import (CommutativityRaceDetector, DetectorStats, Strategy,
                       resolve_strategy)
from .errors import CheckpointError, MonitorError
from .events import (Action, Event, EventKind, ObjectId,
                     pack_stamped_action, unpack_stamped_action)
from .faults import FaultLog
from .hb import HappensBeforeTracker
from .races import CommutativityRace
from .shmem import (DEFAULT_RING_SLOTS, DEFAULT_SIDE_BYTES, RecordRing,
                    StampedDecoder, StampedEncoder, feed_shard)
from .supervise import ShardSupervisor, SupervisorConfig
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
# references into the representation riding alongside.  ``prune_snaps``
# are the phase-A prune boundaries: ``(trace index of the triggering
# action, live-thread clocks at that moment)`` — what a shard worker needs
# to prune exactly where (and with exactly the clocks) the sequential
# detector's ``prune_interval`` counter would.
_ShardPayload = Tuple[bool, Optional[int], List[Tuple[int, List[Any]]],
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

    When the facade neither keeps reports nor has an ``on_race`` callback
    (``need_reports`` false), races are only counted: shipping tens of
    thousands of report objects back over the pipe would dominate the
    pool's cost for report-dense traces, mirroring why the sequential
    detector grew ``keep_reports=False`` for long benchmark runs.
    """
    need_reports, obs_interval, prune_snaps, objects = payload
    detector, obs = _build_shard_detector(
        obs_interval, [entry[:4] for entry in objects])
    triples = _replay_stamped(
        detector, obs, need_reports, prune_snaps,
        ((obj, packed_actions) for obj, _, _, _, packed_actions in objects))
    return triples, detector.stats, obs


def _build_shard_detector(obs_interval, registrations):
    """Construct one shard worker's detector from its registrations.

    ``registrations`` is ``(obj, representation, strategy, plan)`` tuples —
    the shard payload minus the stamped actions, which arrive either
    inside the payload (pickle backend) or through a shared-memory ring
    (shm backend).  Returns ``(detector, obs)``.
    """
    obs = None
    if obs_interval is not None:
        from ..obs.registry import Registry
        obs = Registry(sample_interval=obs_interval)
    detector = CommutativityRaceDetector(keep_reports=False, obs=obs)
    for obj, representation, strategy, plan in registrations:
        detector.register_object(obj, representation, strategy, plan=plan)
    return detector, obs


def _replay_stamped(detector, obs, need_reports, prune_snaps, streams):
    """Replay per-object stamped-action streams through Algorithm 1.

    ``streams`` yields ``(obj, iterable_of_packed_actions)`` — a list per
    object for the pickle backend, a live ring-decoder iterator for the
    shm backend; the replay is oblivious to which, so both backends run
    the *identical* code path and stay byte-identical by construction.
    Returns the shard's races as ``(trace index, seq, race)`` triples
    (empty when ``need_reports`` is false).
    """
    # One reusable Event shell per shard: the detector reads (and the race
    # reports capture) only the per-iteration action/tid/clock values, so
    # rebuilding the carrier dataclass per event is avoidable overhead.
    shell = unpack_stamped_action(None, (0, 0, "", (), (), None))
    stats = detector.stats
    triples: List[Tuple[int, int, CommutativityRace]] = []
    snap_count = len(prune_snaps)
    replay_start = perf_counter_ns() if obs is not None else 0
    for obj, packed_actions in streams:
        # The sequential detector prunes *all* objects after the action at
        # each boundary index; this object's state at that moment is fully
        # determined by its own actions with index <= boundary, so
        # applying each snapshot between the surrounding actions replays
        # the sequential prune (and its stats) exactly.
        snap_at = 0
        for packed in packed_actions:
            index, shell.tid, method, args, returns, shell.clock = packed
            while snap_at < snap_count and prune_snaps[snap_at][0] < index:
                detector.prune_object_with_clocks(
                    obj, prune_snaps[snap_at][1])
                snap_at += 1
            shell.action = Action(obj, method, args, returns)
            shell.index = index
            stats.events += 1
            if obs is not None:
                detector._obs_advance()
            found = detector._process_action(shell, shell.clock)
            if found and need_reports:
                triples.extend((index, seq, race)
                               for seq, race in enumerate(found))
        while snap_at < snap_count:
            detector.prune_object_with_clocks(obj, prune_snaps[snap_at][1])
            snap_at += 1
    if obs is not None:
        # One exact span per shard: merged, the "shard" timer sums replay
        # CPU time across shards (vs. the facade's "fanout" wall clock).
        obs.timer("shard").record(perf_counter_ns() - replay_start)
    return triples


def _shard_job(index: int, payload: _ShardPayload, attempt: int):
    """Supervised-worker adapter: ignores the supervision bookkeeping.

    The supervisor's worker contract is ``worker(index, payload, attempt)``
    so retries are distinguishable (and so the fault harness can key on
    shard and attempt); the shard computation itself depends only on the
    payload — every attempt, pool or inline, replays identically.
    """
    return _analyze_shard(payload)


def _diagnose_unpicklable(payload: _ShardPayload,
                          exc: Exception) -> Optional[MonitorError]:
    """Explain a worker failure that is really a task-pickling failure.

    A payload that cannot be pickled never reaches the worker — the pool
    hands the serialization error back through the job's result, where it
    is indistinguishable from an exception the worker raised.  Retrying a
    deterministic serialization failure is useless, so the supervisor asks
    us first: if the payload truly does not pickle, pinpoint the object
    (and which of its parts) to blame and return a :class:`MonitorError`
    for the caller; if it pickles fine, return None — the worker genuinely
    raised ``exc`` and normal retry/fallback handling applies.
    """
    try:
        pickle.dumps(payload)
    except Exception as probe:
        objects = payload[-1]
        for obj, representation, strategy, plan, packed_actions in objects:
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
                        f"({type(probe).__name__}: {probe}); use workers<=1 "
                        f"(inline sharding) or the sequential "
                        f"CommutativityRaceDetector")
        return MonitorError(
            f"shard payload cannot be pickled for worker processes "
            f"({type(probe).__name__}: {probe})")
    return None


# -- shared-memory / thread / subinterpreter backends -------------------------

def _shm_worker_main(ring_name: str, init_blob: bytes, conn) -> None:
    """Process target for the shm backend: decode-from-ring and replay.

    The init blob carries everything *except* the stamped actions — the
    report and obs settings, prune snapshots and per-object registrations,
    pickled once per worker.  Actions stream in through the shard's record ring
    and are replayed as they arrive (pipelined with phase-A encoding).
    The result (or a classified failure) goes back over ``conn`` as
    ``("ok", result)`` / ``("error", kind, detail)``.
    """
    try:
        need_reports, obs_interval, prune_snaps, registrations = (
            pickle.loads(init_blob))
        ring = RecordRing.attach(ring_name)
        try:
            detector, obs = _build_shard_detector(obs_interval,
                                                  registrations)
            objs = [entry[0] for entry in registrations]
            decoder = StampedDecoder(ring)
            triples = _replay_stamped(
                detector, obs, need_reports, prune_snaps,
                ((objs[position], actions)
                 for position, actions in decoder.streams()))
            result = (triples, detector.stats, obs)
        finally:
            ring.close()
        try:
            conn.send(("ok", result))
        except Exception as exc:
            conn.send(("error", "result-unpicklable",
                       f"{type(exc).__name__}: {exc}"))
    except Exception as exc:
        try:
            conn.send(("error", "worker-raised",
                       f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


class _ShmJob:
    """Parent-side state for one in-flight shm shard."""

    __slots__ = ("index", "attempt", "ring", "conn", "proc", "encoder",
                 "feeder", "fed", "failure")

    def __init__(self, index, attempt, ring, conn, proc, encoder, feeder):
        self.index = index
        self.attempt = attempt
        self.ring = ring
        self.conn = conn
        self.proc = proc
        self.encoder = encoder
        self.feeder = feeder
        self.fed = False
        self.failure = None

    def fail(self, kind: str, detail: str, retryable: bool) -> None:
        self.failure = (self.index, self.attempt, kind, detail, retryable)


#: Subinterpreter shard script: rehydrate the payload from its temp file,
#: run the ordinary shard worker, pickle the result back out.  Formatted
#: by :func:`repro.core.backend.run_pickled_in_subinterpreter`.
_SUBINTERP_RUN = """\
import pickle, sys
for _p in {sys_path!r}:
    if _p not in sys.path:
        sys.path.append(_p)
from repro.core.parallel import _analyze_shard
with open({payload!r}, "rb") as _f:
    _payload = pickle.load(_f)
_result = _analyze_shard(_payload)
with open({result!r}, "wb") as _f:
    pickle.dump(_result, _f, protocol=pickle.HIGHEST_PROTOCOL)
"""


def _futures_round(config: SupervisorConfig, task):
    """Build a supervisor round runner over an in-process thread pool.

    Shared by the ``thread`` backend (task = the supervised worker) and
    the ``subinterp`` backend (task = run-payload-in-a-subinterpreter):
    both execute shards from threads of this process, so pool-generation
    management reduces to a ``ThreadPoolExecutor`` with the supervisor's
    per-round deadline.
    """
    from concurrent.futures import ThreadPoolExecutor
    from concurrent.futures import TimeoutError as FuturesTimeout

    def runner(payloads, jobs, results):
        failures = []
        pool = ThreadPoolExecutor(max_workers=len(jobs))
        try:
            handles = [(index, attempt,
                        pool.submit(task, index, payloads[index], attempt))
                       for index, attempt in jobs]
            deadline = (time.monotonic() + config.shard_timeout
                        if config.shard_timeout is not None else None)
            for index, attempt, handle in handles:
                try:
                    remaining = (None if deadline is None
                                 else max(0.0, deadline - time.monotonic()))
                    results[index] = handle.result(remaining)
                except FuturesTimeout:
                    failures.append((
                        index, attempt, "timeout",
                        f"no result within {config.shard_timeout:g}s",
                        True))
                except Exception as exc:
                    failures.append((index, attempt, "worker-raised",
                                     f"{type(exc).__name__}: {exc}", True))
        finally:
            # Abandon (don't join) anything still running: a hung shard
            # thread must not hang the supervisor's round loop.
            pool.shutdown(wait=False, cancel_futures=True)
        return failures

    return runner


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
    strategy / keep_reports / on_race:
        As for the sequential detector; ``on_race`` fires during the merge,
        in stable event-index order.
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
    supervise / supervisor:
        With ``supervise`` (the default) phase B runs under a
        :class:`~repro.core.supervise.ShardSupervisor` — per-shard
        timeout, bounded retry, in-process fallback — configured by the
        optional ``supervisor`` :class:`SupervisorConfig`.
        ``supervise=False`` restores the bare ``pool.map`` (the overhead
        gate in ``bench/parallel_scaling.py`` compares the two).
    checkpoint:
        Optional :class:`~repro.core.checkpoint.CheckpointConfig`; phase A
        then snapshots its state every ``interval`` events so a killed run
        can resume.
    resume_from:
        Optional path to a checkpoint written by a previous run over the
        same trace and registrations.  A checkpoint that fails any
        validity check is *rejected, not fatal*: the rejection is recorded
        in :attr:`faults` and the run restamps from the beginning.
    prune_interval:
        As for the sequential detector: every N actions, reclaim active
        points (and their interned entries) that are ordered before every
        live thread.  Phase A records the live-thread clocks at each
        boundary and ships them to the shard workers, which apply them
        between the surrounding actions — verdicts, ``points_pruned`` and
        ``interned_points_evicted`` all match the sequential detector's.
        Not combinable with ``checkpoint``/``resume_from`` (the boundary
        snapshots are not checkpointed).
    backend:
        Phase-B transport: ``"pickle"`` (the default; payloads pickled
        into a process pool), ``"shm"`` (stamped actions streamed through
        per-shard ``multiprocessing.shared_memory`` record rings — only
        the per-worker registrations/knobs are pickled, once),
        ``"thread"`` (in-process thread pool; a parallelism win only on
        free-threaded interpreters), ``"subinterp"`` (one subinterpreter
        per shard where the runtime supports it), or ``"auto"``.
        Requests the runtime cannot honor fall back (shm → pickle,
        subinterp → shm → pickle) — the outcome, with its reason, is in
        :attr:`backend`, a :class:`~repro.core.backend.BackendChoice`.
        All backends produce byte-identical merged reports.
    ring_slots / ring_side_bytes:
        shm backend ring geometry (records per ring / side-region bytes);
        defaults suit typical shards.  A full ring blocks the producer
        (and interleaves other shards' feeds), never drops records.
    predict_window:
        When > 0, a predictive pass (:mod:`repro.core.predict`) runs
        after the merge: per-object candidate pairs fan out over the
        same greedy load split as phase B (thread pool — candidate
        resolution is pure Python over the shared immutable dependence
        index) and validated predictions land in :attr:`predicted`,
        sorted by original-index pair so every backend and worker count
        agrees byte for byte.  Incompatible with checkpoint/resume
        (the event log prediction needs is not part of the checkpoint
        format).
    """

    def __init__(
        self,
        root: Tid = 0,
        strategy: Strategy = Strategy.AUTO,
        on_race: Optional[Callable[[CommutativityRace], None]] = None,
        keep_reports: bool = True,
        workers: Optional[int] = None,
        mp_context: Optional[str] = None,
        obs=None,
        supervise: bool = True,
        supervisor: Optional[SupervisorConfig] = None,
        checkpoint: Optional[CheckpointConfig] = None,
        resume_from: Optional[str] = None,
        prune_interval: int = 0,
        backend: str = "pickle",
        ring_slots: Optional[int] = None,
        ring_side_bytes: Optional[int] = None,
        predict_window: int = 0,
    ):
        if predict_window < 0:
            raise MonitorError(
                f"predict_window must be >= 0, got {predict_window}")
        if prune_interval and (checkpoint is not None
                               or resume_from is not None):
            raise MonitorError(
                "prune_interval cannot be combined with checkpointing: "
                "phase-A prune-boundary snapshots are not part of the "
                "checkpoint format, so a resumed run would prune "
                "differently than the run it resumes")
        if predict_window and (checkpoint is not None
                               or resume_from is not None):
            raise MonitorError(
                "predict_window cannot be combined with checkpointing: "
                "prediction needs the full stamped event log, which is "
                "not part of the checkpoint format")
        self._root = root
        self._prune_interval = prune_interval
        self._prune_snaps: List[Tuple[int, List[Any]]] = []
        self._strategy = strategy
        self._on_race = on_race
        self._keep_reports = keep_reports
        self._obs = obs if (obs is not None and obs.enabled) else None
        self.workers = multiprocessing.cpu_count() if workers is None else workers
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self._mp_context = mp_context
        self._supervise = supervise
        self._supervisor_config = supervisor
        self._checkpoint = checkpoint
        self._resume_from = resume_from
        #: Resolved execution backend for phase B (request, selection,
        #: fallback reason) — resolved eagerly so callers can log the
        #: outcome before the first run.
        self.backend: BackendChoice = resolve_backend(backend)
        self._ring_slots = ring_slots or DEFAULT_RING_SLOTS
        self._ring_side_bytes = ring_side_bytes or DEFAULT_SIDE_BYTES
        self._registrations: Dict[ObjectId, Tuple[Any, Strategy, Any]] = {}
        self._hb: Optional[HappensBeforeTracker] = None
        self.races: List[CommutativityRace] = []
        self.stats = DetectorStats()
        self._predict_window = predict_window
        #: Validated predictive races from the most recent :meth:`run`
        #: (``predict_window > 0``), sorted by original-index pair.
        self.predicted: List = []
        #: Tolerated failures from the most recent :meth:`run` (shard
        #: supervision and checkpoint rejection; cleared per run).
        self.faults = FaultLog()

    # -- object lifecycle ------------------------------------------------------

    def register_object(self, obj: ObjectId, representation,
                        strategy: Optional[Strategy] = None) -> None:
        """Attach an access point representation to a shared object."""
        if obj in self._registrations:
            raise MonitorError(f"object {obj!r} registered twice")
        # The thread backend never crosses a process boundary, so it is
        # exempt from the picklability requirement; every other backend
        # ships registrations to workers (shm ships them in the one-shot
        # init blob, so the probe still guards it).
        if self.workers > 1 and self.backend.selected != "thread":
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
                                        strategy or self._strategy)
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
        """Post-merge predictive pass, sharded like phase B.

        The dependence index is built once, sequentially (it is cheap —
        one pass over the already-stamped events); candidate resolution
        is the expensive part (closures + witness replays), so *that*
        fans out per object over the phase-B greedy load split.  Worker
        counters come back as local dicts — the obs registry is not
        thread-safe — and merge here.
        """
        from concurrent.futures import ThreadPoolExecutor
        from .predict import Predictor
        predictor = Predictor(
            {obj: registration[0]
             for obj, registration in self._registrations.items()},
            window=self._predict_window, root=self._root, obs=self._obs)
        predictor.feed_many(stamped_events)
        loads = predictor.pending_loads()
        shard_count = min(self.workers or 1, len(loads)) or 1
        results: List = []
        if shard_count <= 1:
            outcome, counts = predictor.process_objects(
                [obj for obj, _ in loads])
            results.extend(outcome)
            predictor.absorb_counts(counts)
        else:
            shards = partition_by_load(loads, shard_count)
            with ThreadPoolExecutor(max_workers=shard_count) as pool:
                futures = [pool.submit(predictor.process_objects, shard)
                           for shard in shards if shard]
                for future in futures:
                    outcome, counts = future.result()
                    results.extend(outcome)
                    predictor.absorb_counts(counts)
        results.sort(key=lambda prediction: prediction.pair)
        self.predicted = results

    # Phase A: one sequential happens-before pass over the full trace.
    def _stamp_and_partition(self, events):
        writer = (CheckpointWriter(self._checkpoint)
                  if self._checkpoint is not None else None)
        resumed = None
        if self._resume_from is not None:
            # Resume validation reads the trace prefix and may still have
            # to restart from event zero, so it needs a re-iterable trace.
            if not isinstance(events, (list, tuple)):
                events = list(events)
            resumed = self._try_resume(events)
        if resumed is not None:
            snapshot, hasher = resumed
            self._hb = snapshot.hb
            groups = snapshot.groups
            start = snapshot.next_index
        else:
            self._hb = HappensBeforeTracker(root=self._root)
            groups = {obj: [] for obj in self._registrations}
            start = 0
            hasher = hashlib.sha256() if writer is not None else None
        total = start
        iterator = (itertools.islice(iter(events), start, None)
                    if start else iter(events))
        # Prune boundaries: the sequential detector counts *actions* (all
        # ACTION events, registered or not) and prunes after every
        # interval-th one; record that action's trace index and the live
        # clocks at that instant for the shard workers.  clock_of()
        # freezes, so the snapshots cannot be corrupted by later stamping.
        interval = self._prune_interval
        snaps: List[Tuple[int, List[Any]]] = []
        self._prune_snaps = snaps
        actions_seen = 0
        if writer is None:
            for index, event in enumerate(iterator, start):
                clock = self._hb.observe(event)
                total += 1
                if event.kind is EventKind.ACTION:
                    bucket = groups.get(event.action.obj)
                    if bucket is not None:
                        bucket.append(pack_stamped_action(event, index, clock))
                    if interval:
                        actions_seen += 1
                        if actions_seen >= interval:
                            actions_seen = 0
                            snaps.append((index, [
                                self._hb.clock_of(tid)
                                for tid in self._hb.live_threads()]))
            return groups, total
        for index, event in enumerate(iterator, start):
            clock = self._hb.observe(event)
            total += 1
            if event.kind is EventKind.ACTION:
                bucket = groups.get(event.action.obj)
                if bucket is not None:
                    bucket.append(pack_stamped_action(event, index, clock))
            hasher.update(event_fingerprint(event))
            stamped = index + 1
            if writer.maybe_write(stamped, lambda: Checkpoint(
                    version=CHECKPOINT_VERSION, root=self._root,
                    next_index=stamped, prefix_digest=hasher.hexdigest(),
                    objects=self._registration_ids(), hb=self._hb,
                    groups=groups)):
                if self._obs is not None:
                    self._obs.add("checkpoint_writes")
        return groups, total

    def _registration_ids(self) -> List[str]:
        """Canonical registered-object identity list for checkpoint guards."""
        return sorted(repr(obj) for obj in self._registrations)

    def _try_resume(self, events):
        """Load and validate ``resume_from``; ``(Checkpoint, hasher)`` or None.

        Every defect — unreadable/corrupt file, version skew, different
        root or registrations, or a trace whose stamped prefix does not
        reproduce the checkpoint's fingerprint digest — degrades to a full
        restamp, recorded as a ``checkpoint/rejected`` fault.  On success
        the returned hasher has absorbed the verified prefix, so
        checkpoint writing can continue the same running digest.
        """
        try:
            snapshot = load_checkpoint(self._resume_from)
            if snapshot.root != self._root:
                raise CheckpointError(
                    f"checkpoint was taken with root thread "
                    f"{snapshot.root!r}, this run uses {self._root!r}")
            if snapshot.objects != self._registration_ids():
                raise CheckpointError(
                    "checkpoint was taken with a different set of "
                    "registered objects")
            if snapshot.next_index > len(events):
                raise CheckpointError(
                    f"checkpoint is ahead of this trace "
                    f"({snapshot.next_index} stamped events, trace has "
                    f"{len(events)})")
            hasher = hashlib.sha256()
            for event in itertools.islice(iter(events), snapshot.next_index):
                hasher.update(event_fingerprint(event))
            if hasher.hexdigest() != snapshot.prefix_digest:
                raise CheckpointError(
                    "trace prefix does not match the checkpoint's "
                    "fingerprint digest (different or modified trace)")
        except CheckpointError as exc:
            self.faults.record(site="checkpoint", kind="rejected",
                               detail=str(exc))
            if self._obs is not None:
                self._obs.add("checkpoint_rejected")
                self._obs.count_in("faults_by_kind", "checkpoint/rejected")
            return None
        if self._obs is not None:
            self._obs.add("checkpoint_resumes")
        return snapshot, hasher

    # Phase B: shard the objects and fan the per-object replay out.
    def _fan_out(self, groups: Dict[ObjectId, List[Tuple[Any, ...]]]):
        loads = [(obj, len(bucket)) for obj, bucket in groups.items()]
        shard_count = max(1, min(self.workers, len(loads)))
        need_reports = self._keep_reports or self._on_race is not None
        obs_interval = (self._obs.sample_interval
                        if self._obs is not None else None)
        payloads = []
        for shard_objs in partition_by_load(loads, shard_count):
            objects = [(obj,) + self._registrations[obj] + (groups[obj],)
                       for obj in shard_objs]
            payloads.append((need_reports, obs_interval, self._prune_snaps,
                             objects))
        if not payloads:
            return []
        if self.workers <= 1 or len(payloads) == 1:
            return [_analyze_shard(payload) for payload in payloads]
        selected = self.backend.selected
        if selected == "pickle" and not self._supervise:
            # Unsupervised baseline: the original bare pool.map.  Kept for
            # the supervisor-overhead benchmark gate and as an escape
            # hatch; any worker failure here takes the whole run down.
            ctx = (multiprocessing.get_context(self._mp_context)
                   if self._mp_context else multiprocessing.get_context())
            with ctx.Pool(processes=len(payloads)) as pool:
                return pool.map(_analyze_shard, payloads)
        config = self._supervisor_config or SupervisorConfig()
        supervisor = ShardSupervisor(
            _shard_job, processes=len(payloads), mp_context=self._mp_context,
            config=config, obs=self._obs, faults=self.faults,
            diagnose=lambda index, exc: _diagnose_unpicklable(
                payloads[index], exc))
        if selected == "pickle":
            return supervisor.run(payloads)
        # The alternative transports bring their own round executor but
        # keep the supervisor's retry/backoff/fault-accounting loop and
        # its inline fallback — degraded shards replay in-process with
        # identical results under every backend.
        if selected == "thread":
            runner = _futures_round(config, supervisor.worker)
        elif selected == "subinterp":
            def subinterp_task(index, payload, attempt):
                blob = supervisor.payload_blob(index, payload)
                return pickle.loads(
                    run_pickled_in_subinterpreter(blob, _SUBINTERP_RUN))
            runner = _futures_round(config, subinterp_task)
        else:
            runner = self._shm_round(config)
        return supervisor.run_rounds(payloads, runner)

    def _shm_round(self, config: SupervisorConfig):
        """Build the shm backend's supervisor round runner.

        Each job gets a private record ring and worker process; the
        parent round-robins phase-A encoding across all rings (a full
        ring yields the CPU to other shards, then to the consumer) and
        collects results over a pipe.  Init payloads — registrations and
        settings, no actions — are pickled once per shard and reused
        verbatim on retry, mirroring the pool backend's serialize-once
        behavior.
        """
        ctx = (multiprocessing.get_context(self._mp_context)
               if self._mp_context else multiprocessing.get_context())
        obs = self._obs
        init_blobs: Dict[int, bytes] = {}
        hwm = 0

        def init_blob(index: int, payload) -> bytes:
            blob = init_blobs.get(index)
            if blob is not None:
                if obs is not None:
                    obs.add("shard_payload_reuse")
                return blob
            start = perf_counter_ns()
            blob = pickle.dumps(
                payload[:3] + ([entry[:4] for entry in payload[3]],),
                protocol=pickle.HIGHEST_PROTOCOL)
            if obs is not None:
                obs.add("ipc_bytes_pickled", len(blob))
                obs.timer("ipc_serialize").record(perf_counter_ns() - start)
            init_blobs[index] = blob
            return blob

        def runner(payloads, jobs, results):
            nonlocal hwm
            failures = []
            states: List[_ShmJob] = []
            encode_ns = 0
            try:
                for index, attempt in jobs:
                    ring = RecordRing.create(self._ring_slots,
                                             self._ring_side_bytes)
                    recv_conn, send_conn = ctx.Pipe(duplex=False)
                    proc = ctx.Process(
                        target=_shm_worker_main,
                        args=(ring.name, init_blob(index, payloads[index]),
                              send_conn),
                        daemon=True)
                    proc.start()
                    send_conn.close()
                    encoder = StampedEncoder(ring)
                    states.append(_ShmJob(
                        index, attempt, ring, recv_conn, proc, encoder,
                        feed_shard(encoder, payloads[index][3])))
                deadline = (time.monotonic() + config.shard_timeout
                            if config.shard_timeout is not None else None)
                # Feed phase: interleave all shards' encodes; a blocked
                # ring never busy-waits while another shard could progress.
                active = [job for job in states]
                while active:
                    if deadline is not None and time.monotonic() > deadline:
                        for job in active:
                            job.fail("timeout",
                                     f"ring not drained within "
                                     f"{config.shard_timeout:g}s "
                                     f"(stalled worker)", True)
                        break
                    progressed = False
                    for job in list(active):
                        start = perf_counter_ns()
                        try:
                            step = next(job.feeder)
                        except StopIteration:
                            encode_ns += perf_counter_ns() - start
                            occupancy = job.ring.occupancy_bytes()
                            if occupancy > hwm:
                                hwm = occupancy
                            job.fed = True
                            active.remove(job)
                            progressed = True
                            continue
                        encode_ns += perf_counter_ns() - start
                        occupancy = job.ring.occupancy_bytes()
                        if occupancy > hwm:
                            hwm = occupancy
                        if step:
                            progressed = True
                        elif not job.proc.is_alive():
                            # Dead consumer: stop feeding; the collect
                            # phase reads its (possibly classified) last
                            # words off the pipe.
                            active.remove(job)
                    if not progressed and active:
                        time.sleep(0.0005)
                # Collect phase.
                for job in states:
                    if job.failure is not None:
                        failures.append(job.failure)
                        continue
                    remaining = (max(0.0, deadline - time.monotonic())
                                 if deadline is not None else None)
                    msg = None
                    try:
                        if job.conn.poll(remaining):
                            msg = job.conn.recv()
                    except (EOFError, OSError):
                        msg = None
                    if msg is None:
                        if job.proc.is_alive():
                            job.fail("timeout",
                                     f"no result within "
                                     f"{config.shard_timeout:g}s "
                                     f"(hung worker)", True)
                        else:
                            job.fail("worker-raised",
                                     f"shard worker died "
                                     f"(exitcode {job.proc.exitcode})", True)
                    elif msg[0] == "ok" and job.fed:
                        results[job.index] = msg[1]
                    elif msg[0] == "ok":
                        job.fail("worker-raised",
                                 "worker returned before consuming its "
                                 "stream", True)
                    else:
                        _, kind, detail = msg
                        job.fail(kind, detail, kind != "result-unpicklable")
                    if job.failure is not None:
                        failures.append(job.failure)
            finally:
                for job in states:
                    if job.proc.is_alive():
                        job.proc.terminate()
                    job.proc.join()
                    try:
                        job.conn.close()
                    except Exception:
                        pass
                    job.ring.close()
                    job.ring.unlink()
                if obs is not None:
                    obs.add("shm_bytes_written",
                            sum(job.encoder.bytes_written for job in states))
                    obs.timer("shm_encode").record(encode_ns)
                    obs.gauge("shm_ring_hwm", hwm)
            return failures

        return runner

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
        merged = [race for _, _, race in triples]
        self.races = merged if self._keep_reports else []
        if self._on_race is not None:
            for race in merged:
                self._on_race(race)

    # -- convenience -----------------------------------------------------------

    @property
    def happens_before(self) -> HappensBeforeTracker:
        """The phase-A happens-before state (available after :meth:`run`)."""
        if self._hb is None:
            raise MonitorError("run() has not been called yet")
        return self._hb
