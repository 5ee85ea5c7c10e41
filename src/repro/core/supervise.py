"""Shard supervision: tracked jobs, timeouts, bounded retry, inline fallback.

The sharded pipeline's phase B runs every shard in a worker process, and
one hung, killed or crashing worker must not take the whole analysis down
with it — unfit for the long-lived production runs the paper's evaluation
targets (H2 under PolePosition, Cassandra's snitch).
:class:`ShardSupervisor` tracks each shard individually, built around one
invariant:

    **a supervised run's merged race report is byte-identical to the
    fault-free run's.**

That invariant is cheap to guarantee here because shard replay is *pure*:
each attempt builds a fresh detector from the shard's payload, so attempts
are idempotent and any successful attempt — in a child process or inline —
produces exactly the same triples.  Supervision therefore only decides
*where* a shard runs, never *what* it computes:

1. Each round starts one child process per pending shard.  The payload
   is pickled once (:meth:`ShardSupervisor.payload_blob`) and goes in as
   the process argument; the result, or a classified failure, comes back
   over a one-way pipe.  A pipe that closes unanswered is a dead child,
   caught at once (``worker-raised``); a child with no answer by the
   round's deadline is hung (``timeout``).
2. A failed shard is retried in a fresh child, up to
   :attr:`SupervisorConfig.max_retries` times, with exponential backoff
   between rounds.  Every round terminates and joins the children it
   started before it returns — or propagates ``KeyboardInterrupt`` — so
   hung or interrupted attempts cannot linger.
3. A shard that exhausts its retries — or fails in a way retrying cannot
   fix, like a result that does not pickle — is replayed **in-process**,
   where no child, pipe or pickling is involved.  Graceful degradation:
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
:mod:`repro.testing.faults`).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple)

from .faults import FaultLog

__all__ = ["DEFAULT_SHARD_TIMEOUT", "ANALYZER_POLICIES", "QuarantinePolicy",
           "SupervisorConfig", "ShardSupervisor"]


def _run_child(worker: Callable, index: int, attempt: int, blob: bytes,
               conn) -> None:
    """Child-process target: run one shard attempt, answer over ``conn``.

    The answer is ``("ok", result)`` or ``("error", kind, detail)``; a
    child that dies before answering closes the pipe unanswered.
    """
    try:
        result = worker(index, pickle.loads(blob), attempt)
        try:
            conn.send(("ok", result))
        except Exception as exc:
            conn.send(("error", "result-unpicklable",
                       f"{type(exc).__name__}: {exc}"))
    except Exception as exc:
        conn.send(("error", "worker-raised", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


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
#: seconds, not minutes — because the timeout's job is to detect hung
#: workers (a killed one closes its pipe and is caught at once), not to
#: police slow ones; a shard that legitimately needs longer can raise it
#: via ``SupervisorConfig`` / ``--shard-timeout``.
DEFAULT_SHARD_TIMEOUT = 120.0


@dataclass
class SupervisorConfig:
    """Supervision knobs (defaults suit offline analysis runs).

    ``shard_timeout`` is the per-round budget for a shard attempt;
    ``None`` waits forever (then a hung worker would hang the round, so
    only disable it for debugging).  ``max_retries`` bounds child-process
    attempts beyond the first; after ``1 + max_retries`` failed
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
    """Run one job per payload in child processes, surviving failures.

    Parameters
    ----------
    worker:
        Module-level callable ``worker(index, payload, attempt) -> result``
        (module-level so it is importable under any multiprocessing start
        method).  ``index`` and ``attempt`` are supervision bookkeeping a
        plain worker is free to ignore; the fault harness keys on them.
    mp_context:
        Optional start-method name (``"fork"``, ``"spawn"``...).
    config:
        :class:`SupervisorConfig`; defaults used when omitted.
    obs / faults:
        Optional metrics registry and fault log to record failures into
        (a fresh private :class:`FaultLog` is created when none is given).
    diagnose:
        Optional ``(index, exc) -> Optional[Exception]`` consulted when a
        payload fails to pickle and when a worker raises or dies;
        returning an exception aborts the run by raising it (used to turn
        pickling errors into a :class:`~repro.core.errors.MonitorError`
        naming the object).
    """

    def __init__(self, worker: Callable,
                 mp_context: Optional[str] = None,
                 config: Optional[SupervisorConfig] = None,
                 obs=None, faults: Optional[FaultLog] = None,
                 diagnose: Optional[Callable[[int, Exception],
                                             Optional[Exception]]] = None):
        self._config = config or SupervisorConfig()
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
        self._worker = wrap(worker) if wrap is not None else worker
        self._blobs: Dict[int, bytes] = {}

    # -- the supervision loop ----------------------------------------------

    #: Obs counter bumped per failure kind (fault records carry the precise
    #: kind either way).
    _FAILURE_COUNTERS = {
        "timeout": "shard_timeouts",
        "result-unpicklable": "shard_result_errors",
        "task-unpicklable": "shard_result_errors",
        "worker-raised": "shard_worker_errors",
    }

    def run(self, payloads: Sequence[Any]) -> List[Any]:
        """Compute one result per payload, in payload order."""
        results: Dict[int, Any] = {}
        pending: List[Tuple[int, int]] = [(i, 0) for i in range(len(payloads))]
        degraded: List[Tuple[int, int]] = []
        round_index = 0
        while pending:
            failures = self._round(payloads, pending, results)
            pending = []
            for index, attempt, kind, detail, retryable in failures:
                self._record(kind, shard=index, attempt=attempt, detail=detail)
                self._count(self._FAILURE_COUNTERS[kind])
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
            # child/pipe/pickle in the way — the merged report stays
            # byte-identical to the fault-free run's.
            self._record("fallback", shard=index, attempt=attempt,
                         detail="shard replayed in-process after "
                                "supervision gave up on worker processes")
            self._count("shard_fallbacks")
            results[index] = self._worker(index, payloads[index], attempt)
        return [results[index] for index in range(len(payloads))]

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

    def _round(self, payloads: Sequence[Any], jobs: List[Tuple[int, int]],
               results: Dict[int, Any]
               ) -> List[Tuple[int, int, str, str, bool]]:
        """One child process per job; returns the round's failures.

        Each child's payload is pickled (once per shard) just before the
        child starts, so earlier children replay while later payloads
        serialize.  ``finally`` terminates and joins every child this
        round started — hung ones, and all of them when an exception such
        as ``KeyboardInterrupt`` escapes — so no orphan outlives it.
        """
        timeout = self._config.shard_timeout
        ctx = multiprocessing.get_context(self._mp_context)
        failures: List[Tuple[int, int, str, str, bool]] = []
        children: List[Tuple[int, int, Any, Any]] = []
        try:
            for index, attempt in jobs:
                try:
                    blob = self.payload_blob(index, payloads[index])
                except Exception as exc:
                    # The payload itself will not pickle — deterministic,
                    # so never retried: diagnose (usually a precise
                    # MonitorError naming the object) or degrade straight
                    # to inline.
                    self._raise_diagnosed(index, exc)
                    failures.append((index, attempt, "task-unpicklable",
                                     f"{type(exc).__name__}: {exc}", False))
                    continue
                conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_run_child,
                    args=(self._worker, index, attempt, blob, child_conn),
                    daemon=True)
                proc.start()
                children.append((index, attempt, proc, conn))
                # Only the child may hold the sending end, so its death
                # closes the pipe.
                child_conn.close()
            deadline = (time.monotonic() + timeout
                        if timeout is not None else None)
            for index, attempt, proc, conn in children:
                try:
                    answer = self._await(conn, deadline)
                except (EOFError, OSError):
                    proc.join()
                    answer = ("error", "worker-raised",
                              f"shard worker died (exitcode {proc.exitcode})")
                if answer is None:
                    failures.append((index, attempt, "timeout",
                                     f"no result within {timeout:g}s "
                                     f"(hung worker)", True))
                elif answer[0] == "ok":
                    results[index] = answer[1]
                else:
                    _, kind, detail = answer
                    if kind == "worker-raised":
                        self._raise_diagnosed(index, RuntimeError(detail))
                    # A result that will not pickle fails the same way in
                    # every child; only the inline fallback avoids the
                    # pipe, so degrade at once.
                    failures.append((index, attempt, kind, detail,
                                     kind != "result-unpicklable"))
        finally:
            for _, _, proc, conn in children:
                if proc.is_alive():
                    proc.terminate()
                proc.join()
                conn.close()
        return failures

    @staticmethod
    def _await(conn, deadline: Optional[float]):
        """One child's answer, or None once ``deadline`` passes (separated
        out so tests can interpose).  Raises ``EOFError`` when the child
        closed the pipe unanswered."""
        remaining = (max(0.0, deadline - time.monotonic())
                     if deadline is not None else None)
        return conn.recv() if conn.poll(remaining) else None

    def _raise_diagnosed(self, index: int, exc: Exception) -> None:
        """Raise the caller's diagnosis of ``exc``, if it has one."""
        diagnosed = (self._diagnose(index, exc)
                     if self._diagnose is not None else None)
        if diagnosed is not None:
            raise diagnosed from exc

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
