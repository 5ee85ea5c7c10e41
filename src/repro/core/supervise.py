"""Shard supervision: tracked jobs, timeouts, bounded retry, inline fallback.

The sharded pipeline's phase B used to be a bare ``pool.map``: one hung,
killed or crashing worker took the whole analysis down with it — unfit for
the long-lived production runs the paper's evaluation targets (H2 under
PolePosition, Cassandra's snitch).  :class:`ShardSupervisor` replaces it
with per-shard job tracking built around one invariant:

    **a supervised run's merged race report is byte-identical to the
    fault-free run's.**

That invariant is cheap to guarantee here because shard replay is *pure*:
each attempt builds a fresh detector from the shard's payload, so attempts
are idempotent and any successful attempt — in a pool worker or inline —
produces exactly the same triples.  Supervision therefore only decides
*where* a shard runs, never *what* it computes:

1. Every shard is submitted as an individually tracked job
   (``apply_async``) with a per-round timeout covering hung workers *and*
   workers that died mid-task (a killed pool worker is replaced by
   ``multiprocessing``, but its job's result never arrives).
2. A failed shard is retried in a fresh pool, up to
   :attr:`SupervisorConfig.max_retries` times, with exponential backoff
   between rounds.  Any round that saw a failure tears its pool down with
   ``terminate()`` so hung or zombie attempts cannot linger.
3. A shard that exhausts its retries — or fails in a way retrying cannot
   fix, like a result that does not pickle — is replayed **in-process**,
   where no pool, pipe or pickling is involved.  Graceful degradation:
   slower, never wrong.

Failures are recorded in the run's :class:`~repro.core.faults.FaultLog`
and, when observability is on, as registry counters (``shard_timeouts``,
``shard_worker_errors``, ``shard_result_errors``, ``shard_retries``,
``shard_fallbacks``, plus the ``faults_by_kind`` breakdown), so a tolerated
fault is always visible in ``--stats-json``.

Task-side pickling failures (the *payload* cannot be shipped) are the one
non-recoverable class: they are a caller input problem, so the supervisor
asks its ``diagnose`` callback to turn them into a precise
:class:`~repro.core.errors.MonitorError` naming the offending object
instead of retrying a deterministic failure.

For deterministic robustness testing, the worker can be wrapped with a
fault-injection plan (:attr:`SupervisorConfig.wrap`, or the
``REPRO_FAULT_PLAN`` environment variable consumed by
:mod:`repro.testing.faults`); :meth:`ShardSupervisor.wrap` applies the
same plan to a transport's own child-side job.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple)

from .faults import FaultLog

__all__ = ["DEFAULT_SHARD_TIMEOUT", "ANALYZER_POLICIES", "QuarantinePolicy",
           "SupervisorConfig", "ShardSupervisor"]


def _run_serialized(worker: Callable, index: int, blob: bytes,
                    attempt: int):
    """Pool trampoline: the payload crosses as pre-pickled bytes.

    The parent serializes each payload exactly once (and reuses the same
    bytes verbatim on every retry); this rehydrates it worker-side.  The
    pool still pickles the ``bytes`` object itself, but that is a flat
    memcpy-sized frame, not a re-walk of the payload's object graph.
    """
    return worker(index, pickle.loads(blob), attempt)

#: Valid fault policies for components that isolate analyzer exceptions:
#: ``"raise"`` propagates, ``"log"`` records and keeps going, ``"disable"``
#: records and quarantines the faulty analyzer after ``max_faults``.
ANALYZER_POLICIES = ("raise", "disable", "log")


class QuarantinePolicy:
    """Shared analyzer-fault policy: raise, log, or disable-after-N.

    Both the runtime :class:`~repro.runtime.monitor.Monitor` (many
    analyzers, one monitored process) and the detection service's tenant
    sessions (one analyzer per tenant, many tenants) need the same
    decision procedure for "the analyzer raised — now what?": propagate
    the exception (``raise``), record it and continue (``log``), or
    record it and drop the analyzer from further dispatch once it has
    faulted ``max_faults`` times (``disable``).  This class owns that
    decision plus its bookkeeping — the per-analyzer fault counts, the
    :class:`~repro.core.faults.FaultLog` records, and the obs counters —
    so the two layers cannot drift apart.

    Keys are caller-chosen hashables (the monitor keys by analyzer
    identity, the service by tenant name).  :meth:`record_failure`
    returns the verdict for this fault: ``"raise"``, ``"continue"`` or
    ``"quarantine"`` (returned exactly once, on the fault that crosses
    the threshold; later faults on a quarantined key should not occur —
    callers stop dispatching — but degrade to ``"continue"``).
    """

    def __init__(self, policy: str = "raise", max_faults: int = 5,
                 obs=None, faults: Optional[FaultLog] = None,
                 site: str = "analyzer"):
        if policy not in ANALYZER_POLICIES:
            raise ValueError(
                f"analyzer policy must be one of {ANALYZER_POLICIES}, "
                f"got {policy!r}")
        if max_faults < 1:
            raise ValueError(f"max_faults must be >= 1, got {max_faults}")
        self.policy = policy
        self.max_faults = max_faults
        self.site = site
        self.faults = faults if faults is not None else FaultLog()
        self._obs = obs if (obs is not None and obs.enabled) else None
        self._obs_faults = (self._obs.breakdown(f"{site}_faults")
                            if self._obs is not None else None)
        self._counts: Dict[Any, int] = {}
        self._quarantined: set = set()

    @property
    def isolates(self) -> bool:
        """True when exceptions should be caught rather than propagate."""
        return self.policy != "raise"

    def is_quarantined(self, key: Any) -> bool:
        return key in self._quarantined

    def fault_count(self, key: Any) -> int:
        return self._counts.get(key, 0)

    def quarantined_keys(self) -> set:
        return set(self._quarantined)

    def record_failure(self, key: Any, name: str, exc: Exception) -> str:
        """Account one analyzer exception; return the verdict.

        ``name`` is the human label used in fault records and obs
        breakdowns (the monitor passes the analyzer's class name, the
        service the tenant id).
        """
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        self.faults.record(
            site=self.site, kind="exception", attempt=count,
            detail=f"{name}: {type(exc).__name__}: {exc}")
        if self._obs_faults is not None:
            self._obs_faults[name] = self._obs_faults.get(name, 0) + 1
        if self.policy == "raise":
            return "raise"
        if self.policy == "disable" and count >= self.max_faults \
                and key not in self._quarantined:
            self._quarantined.add(key)
            self.faults.record(
                site=self.site, kind="quarantined", attempt=count,
                detail=f"{name}: dropped from dispatch after {count} faults")
            if self._obs is not None:
                self._obs.add(f"{self.site}s_quarantined")
                self._obs.count_in(f"{self.site}_quarantined", name)
            return "quarantine"
        return "continue"

#: Per-round shard deadline, in seconds.  Generous — a shard replay is
#: seconds, not minutes — because the timeout's job is to detect hung and
#: killed workers, not to police slow ones; a shard that legitimately needs
#: longer can raise it via ``SupervisorConfig`` / ``--shard-timeout``.
DEFAULT_SHARD_TIMEOUT = 120.0


@dataclass
class SupervisorConfig:
    """Supervision knobs (defaults suit offline analysis runs).

    ``shard_timeout`` is the per-round budget for a shard attempt;
    ``None`` waits forever (then a killed worker's lost job would hang the
    round, so only disable it for debugging).  ``max_retries`` bounds
    *pool* attempts beyond the first; after ``1 + max_retries`` failed
    attempts the shard is replayed inline.  Backoff before retry round
    ``n`` is ``backoff_base * backoff_factor ** n`` seconds.

    ``wrap`` (a callable ``worker -> worker``) lets the fault-injection
    harness interpose on the worker; ``sleep`` is injectable so tests can
    run backoff-free.
    """

    shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    wrap: Optional[Callable[[Callable], Callable]] = None
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be > 0 (or None), got {self.shard_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValueError(
                f"backoff must be non-negative and non-shrinking, got "
                f"base={self.backoff_base} factor={self.backoff_factor}")

    def backoff(self, round_index: int) -> float:
        """Delay before retry round ``round_index`` (0-based)."""
        return self.backoff_base * self.backoff_factor ** round_index


class ShardSupervisor:
    """Run one job per payload through a worker pool, surviving failures.

    Parameters
    ----------
    worker:
        Module-level callable ``worker(index, payload, attempt) -> result``
        (module-level so it is importable under any multiprocessing start
        method).  ``index`` and ``attempt`` are supervision bookkeeping a
        plain worker is free to ignore; the fault harness keys on them.
    processes:
        Pool size ceiling (each round's pool is sized to its pending jobs).
    mp_context:
        Optional start-method name (``"fork"``, ``"spawn"``...).
    config:
        :class:`SupervisorConfig`; defaults used when omitted.
    obs / faults:
        Optional metrics registry and fault log to record failures into
        (a fresh private :class:`FaultLog` is created when none is given).
    diagnose:
        Optional ``(index, exc) -> Optional[Exception]`` consulted on
        worker-side exceptions; returning an exception aborts the run by
        raising it (used to turn raw task pickling errors into a
        :class:`~repro.core.errors.MonitorError` naming the object).
    """

    def __init__(self, worker: Callable, processes: int,
                 mp_context: Optional[str] = None,
                 config: Optional[SupervisorConfig] = None,
                 obs=None, faults: Optional[FaultLog] = None,
                 diagnose: Optional[Callable[[int, Exception],
                                             Optional[Exception]]] = None):
        self._config = config or SupervisorConfig()
        self._processes = max(1, processes)
        self._mp_context = mp_context
        self._obs = obs if (obs is not None and obs.enabled) else None
        self._diagnose = diagnose
        self.faults = faults if faults is not None else FaultLog()
        wrap = self._config.wrap
        if wrap is None and os.environ.get("REPRO_FAULT_PLAN"):
            # Deterministic harness hook: an externally provided plan (JSON
            # in the environment) wraps the worker exactly like a test
            # passing SupervisorConfig(wrap=...) would — this is how the
            # differential suite injects faults through the real CLI.
            from ..testing.faults import FaultPlan
            wrap = FaultPlan.from_env().wrap
        self._wrap = wrap
        self._worker = self.wrap(worker)
        self._blobs: Dict[int, bytes] = {}

    # -- the supervision loop ----------------------------------------------

    #: Obs counter bumped per failure kind (fault records carry the precise
    #: kind either way; unknown kinds from external round runners count as
    #: worker errors).
    _FAILURE_COUNTERS = {
        "timeout": "shard_timeouts",
        "result-unpicklable": "shard_result_errors",
        "task-unpicklable": "shard_result_errors",
        "worker-raised": "shard_worker_errors",
    }

    def run(self, payloads: Sequence[Any]) -> List[Any]:
        """Compute one result per payload, in payload order."""
        return self._supervise(payloads, self._pool_round)

    def run_rounds(self, payloads: Sequence[Any],
                   round_runner: Callable) -> List[Any]:
        """Supervise an externally provided round executor.

        The shared-memory transport brings its own worker processes but
        wants this class's retry, backoff, fault accounting and
        inline-fallback semantics.  ``round_runner`` is called as
        ``round_runner(payloads, jobs, results)`` with ``jobs`` a list of
        ``(index, attempt)`` pairs; it must fill ``results``
        for the jobs it completed and return a list of
        ``(index, attempt, kind, detail, retryable)`` failures.  The
        inline fallback still runs ``self._worker`` directly.
        """
        return self._supervise(payloads, round_runner)

    def _supervise(self, payloads: Sequence[Any],
                   round_runner: Callable) -> List[Any]:
        results: Dict[int, Any] = {}
        pending: List[Tuple[int, int]] = [(i, 0) for i in range(len(payloads))]
        degraded: List[Tuple[int, int]] = []
        round_index = 0
        while pending:
            failures = round_runner(payloads, pending, results)
            pending = []
            for index, attempt, kind, detail, retryable in failures:
                self._record(kind, shard=index, attempt=attempt, detail=detail)
                self._count(self._FAILURE_COUNTERS.get(
                    kind, "shard_worker_errors"))
                done = attempt + 1
                if not retryable or done > self._config.max_retries:
                    degraded.append((index, done))
                else:
                    self._count("shard_retries")
                    pending.append((index, done))
            if pending:
                self._config.sleep(self._config.backoff(round_index))
            round_index += 1
        for index, attempt in sorted(degraded):
            # In-process replay: same payload, same pure computation, no
            # pool/pipe/pickle in the way — the merged report stays
            # byte-identical to the fault-free run's.
            self._record("fallback", shard=index, attempt=attempt,
                         detail="shard replayed in-process after "
                                "supervision gave up on the pool")
            self._count("shard_fallbacks")
            results[index] = self._worker(index, payloads[index], attempt)
        return [results[index] for index in range(len(payloads))]

    def wrap(self, job: Callable) -> Callable:
        """``job`` under this run's fault plan, if one is configured.

        A transport whose children run their own ``job(index, payload,
        attempt)`` instead of the supervised worker wraps it here, so one
        plan, keyed by shard and attempt, reaches every transport's
        children.
        """
        return self._wrap(job) if self._wrap is not None else job

    def payload_blob(self, index: int, payload: Any) -> bytes:
        """Serialize ``payload`` once; retries reuse the identical bytes."""
        blob = self._blobs.get(index)
        if blob is not None:
            self._count("shard_payload_reuse")
            return blob
        start = time.perf_counter_ns()
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        if self._obs is not None:
            self._obs.add("ipc_bytes_pickled", len(blob))
            self._obs.timer("ipc_serialize").record(
                time.perf_counter_ns() - start)
        self._blobs[index] = blob
        return blob

    def _pool_round(self, payloads: Sequence[Any],
                    jobs: List[Tuple[int, int]],
                    results: Dict[int, Any]
                    ) -> List[Tuple[int, int, str, str, bool]]:
        """One pool generation; returns the round's failures.

        Any failure dirties the round and the whole pool is ``terminate``d
        (a timed-out job may be a hung worker still squatting on a CPU);
        a clean round closes and joins normally.  ``KeyboardInterrupt`` —
        or any other escaping exception — also terminates the pool before
        propagating, so an interrupted analysis leaves no orphan workers.
        """
        config = self._config
        ctx = (multiprocessing.get_context(self._mp_context)
               if self._mp_context else multiprocessing.get_context())
        failures: List[Tuple[int, int, str, str, bool]] = []
        handles: List[Tuple[int, int, Any]] = []
        submittable: List[Tuple[int, int, bytes]] = []
        for index, attempt in jobs:
            try:
                blob = self.payload_blob(index, payloads[index])
            except Exception as exc:
                # The payload itself will not pickle — deterministic, so
                # never retried: diagnose (usually a precise MonitorError
                # naming the object) or degrade straight to inline.
                diagnosed = (self._diagnose(index, exc)
                             if self._diagnose is not None else None)
                if diagnosed is not None:
                    raise diagnosed from exc
                failures.append((index, attempt, "task-unpicklable",
                                 f"{type(exc).__name__}: {exc}", False))
                continue
            submittable.append((index, attempt, blob))
        if not submittable:
            return failures
        pool = ctx.Pool(processes=min(self._processes, len(submittable)))
        dirty = False
        try:
            handles = [
                (index, attempt,
                 pool.apply_async(_run_serialized,
                                  (self._worker, index, blob, attempt)))
                for index, attempt, blob in submittable]
            deadline = (time.monotonic() + config.shard_timeout
                        if config.shard_timeout is not None else None)
            for index, attempt, handle in handles:
                try:
                    results[index] = self._await(handle, deadline)
                except multiprocessing.TimeoutError:
                    dirty = True
                    failures.append((
                        index, attempt, "timeout",
                        f"no result within {config.shard_timeout:g}s "
                        f"(hung or killed worker)", True))
                except multiprocessing.pool.MaybeEncodingError as exc:
                    # The worker finished but its *result* would not pickle.
                    # Retrying in a pool reproduces the failure; the inline
                    # fallback needs no pickling, so degrade immediately.
                    dirty = True
                    failures.append((index, attempt, "result-unpicklable",
                                     str(exc), False))
                except Exception as exc:
                    dirty = True
                    diagnosed = (self._diagnose(index, exc)
                                 if self._diagnose is not None else None)
                    if diagnosed is not None:
                        raise diagnosed from exc
                    failures.append((index, attempt, "worker-raised",
                                     f"{type(exc).__name__}: {exc}", True))
        except BaseException:
            pool.terminate()
            pool.join()
            raise
        if dirty:
            pool.terminate()
        else:
            pool.close()
        pool.join()
        return failures

    @staticmethod
    def _await(handle, deadline: Optional[float]):
        """Wait for one job (separated out so tests can interpose)."""
        if deadline is None:
            return handle.get()
        return handle.get(max(0.0, deadline - time.monotonic()))

    # -- accounting --------------------------------------------------------

    def _record(self, kind: str, shard: int, attempt: int,
                detail: str = "") -> None:
        self.faults.record(site="shard", kind=kind, detail=detail,
                           shard=shard, attempt=attempt)
        if self._obs is not None:
            self._obs.add("shard_faults")
            self._obs.count_in("faults_by_kind", f"shard/{kind}")

    def _count(self, name: str) -> None:
        if self._obs is not None:
            self._obs.add(name)
