"""Shard supervision: one child process per shard, in-process fallback.

The sharded pipeline's phase B runs every shard in a worker process, and
one hung, killed or crashing worker must not take the whole analysis down
with it — unfit for the long-lived production runs the paper's evaluation
targets (H2 under PolePosition, Cassandra's snitch).
:class:`ShardSupervisor` tracks each shard individually, built around one
invariant:

    **a supervised run's merged race report is byte-identical to the
    fault-free run's.**

That invariant is cheap to guarantee here because shard replay is *pure*:
Algorithm 1's phases 1–2 read and write only the acting object's state,
so a shard's result is a function of its payload alone, and a replay in
a child process or in-process produces exactly the same triples.
Supervision therefore only decides *where* a shard runs, never *what* it
computes:

1. :meth:`ShardSupervisor.run` starts one child process per shard.  The
   payload is pickled just before its child starts and goes in as the
   process argument; the result, or a classified failure, comes back
   over a one-way pipe.  A pipe that closes unanswered is a dead child,
   caught at once (``worker-raised``); a child with no answer by the
   deadline is hung (``timeout``).  ``finally`` terminates and joins
   every child the run started — or lets ``KeyboardInterrupt``
   propagate after doing so — so hung or interrupted children cannot
   linger.
2. Every shard whose child failed is replayed **in-process** at once,
   where no child, pipe or pickling is involved.  A second child would
   compute the same triples as the replay, and more slowly, so there is
   no retry.  Graceful degradation: slower, never wrong.

Failures are recorded in the run's :class:`~repro.core.faults.FaultLog` —
one ``<kind>`` record and one ``fallback`` record per failed shard — and,
when observability is on, as registry counters (``shard_timeouts``,
``shard_worker_errors``, ``shard_result_errors``, ``shard_fallbacks``,
plus the ``faults_by_kind`` breakdown), so a tolerated fault is always
visible in ``--stats-json``.

Input errors are not replayed.  A worker that raises a
:class:`~repro.core.errors.ReproError` (an action the bound kind cannot
interpret, say) would raise it again in-process, so the child sends the
error itself back and the run raises it in the parent once its children
are joined.  Task-side pickling failures (the *payload* cannot be
shipped) are the other deterministic class: the supervisor asks its
``diagnose`` callback to turn them into a precise
:class:`~repro.core.errors.MonitorError` naming the offending object.

For deterministic robustness testing, a fault-injection plan in the
``REPRO_FAULT_PLAN`` environment variable (see
:mod:`repro.testing.faults`) wraps the worker.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .errors import ReproError
from .faults import FaultLog

__all__ = ["DEFAULT_SHARD_TIMEOUT", "ANALYZER_POLICIES", "QuarantinePolicy",
           "ShardSupervisor"]


def _run_child(worker: Callable, index: int, blob: bytes, conn) -> None:
    """Child-process target: run one shard, answer over ``conn``.

    The answer is ``("ok", result)``, ``("raise", error)`` for an input
    error the parent re-raises, or ``("error", kind, detail)``; a child
    that dies before answering closes the pipe unanswered.
    """
    try:
        result = worker(index, pickle.loads(blob))
        try:
            conn.send(("ok", result))
        except Exception as exc:
            conn.send(("error", "result-unpicklable",
                       f"{type(exc).__name__}: {exc}"))
    except ReproError as exc:
        conn.send(("raise", exc))
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


#: Shard deadline, in seconds.  Generous — a shard replay is seconds, not
#: minutes — because the timeout's job is to detect hung workers (a
#: killed one closes its pipe and is caught at once), not to police slow
#: ones; a shard that legitimately needs longer can raise it via
#: ``ShardedDetector(shard_timeout=)`` / ``--shard-timeout``.
DEFAULT_SHARD_TIMEOUT = 120.0


class ShardSupervisor:
    """Run one job per payload in child processes, surviving failures.

    Parameters
    ----------
    worker:
        Module-level callable ``worker(index, payload) -> result``
        (module-level so it is importable under any multiprocessing start
        method).  ``index`` is bookkeeping a plain worker is free to
        ignore; the fault harness keys on it.
    mp_context:
        Optional start-method name (``"fork"``, ``"spawn"``...).
    timeout:
        Seconds every child has, from the moment the last one started,
        to answer; a child silent past it is hung.
    obs / faults:
        Optional metrics registry and fault log to record failures into
        (a fresh private :class:`FaultLog` is created when none is given).
    diagnose:
        Optional ``(index, exc) -> Optional[Exception]`` consulted when a
        payload fails to pickle; returning an exception aborts the run by
        raising it (used to turn pickling errors into a
        :class:`~repro.core.errors.MonitorError` naming the object).  A
        child's failure is never a pickling failure — its payload pickled
        before it started — so it is replayed without asking.
    """

    def __init__(self, worker: Callable,
                 mp_context: Optional[str] = None,
                 timeout: float = DEFAULT_SHARD_TIMEOUT,
                 obs=None, faults: Optional[FaultLog] = None,
                 diagnose: Optional[Callable[[int, Exception],
                                             Optional[Exception]]] = None):
        self._timeout = timeout
        self._mp_context = mp_context
        self._obs = obs if (obs is not None and obs.enabled) else None
        self._diagnose = diagnose
        self.faults = faults if faults is not None else FaultLog()
        if os.environ.get("REPRO_FAULT_PLAN"):
            # Deterministic harness hook: an externally provided plan
            # (JSON in the environment) wraps the worker — this is how
            # the fault suite injects faults, in-process and through the
            # real CLI alike.
            from ..testing.faults import FaultPlan, FaultyWorker
            worker = FaultyWorker(worker, FaultPlan.from_env())
        self._worker = worker

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
        for index, kind, detail in self._run_children(payloads, results):
            self._record(kind, shard=index, detail=detail)
            self._count(self._FAILURE_COUNTERS[kind])
            # In-process replay: same payload, same pure computation, no
            # child/pipe/pickle in the way — the merged report stays
            # byte-identical to the fault-free run's.
            self._record("fallback", shard=index,
                         detail="shard replayed in-process")
            self._count("shard_fallbacks")
            results[index] = self._worker(index, payloads[index])
        return [results[index] for index in range(len(payloads))]

    def _serialize(self, payload: Any) -> bytes:
        """Pickle one shard's payload for its child, metered."""
        start = time.perf_counter_ns()
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        if self._obs is not None:
            self._obs.add("ipc_bytes_pickled", len(blob))
            self._obs.timer("ipc_serialize").record(
                time.perf_counter_ns() - start)
        return blob

    def _run_children(self, payloads: Sequence[Any], results: Dict[int, Any]
                      ) -> List[Tuple[int, str, str]]:
        """One child process per payload; returns the failed shards.

        Each child's payload is pickled just before the child starts, so
        earlier children replay while later payloads serialize.
        ``finally`` terminates and joins every child started here — hung
        ones, and all of them when an exception such as
        ``KeyboardInterrupt`` escapes — so no orphan outlives the run.  An
        input error a child sends back is raised after that.
        """
        ctx = multiprocessing.get_context(self._mp_context)
        failures: List[Tuple[int, str, str]] = []
        children: List[Tuple[int, Any, Any]] = []
        raised: Optional[ReproError] = None
        try:
            for index, payload in enumerate(payloads):
                try:
                    blob = self._serialize(payload)
                except Exception as exc:
                    # The payload itself will not pickle: diagnose
                    # (usually a precise MonitorError naming the object)
                    # or replay it in-process.
                    diagnosed = (self._diagnose(index, exc)
                                 if self._diagnose is not None else None)
                    if diagnosed is not None:
                        raise diagnosed from exc
                    failures.append((index, "task-unpicklable",
                                     f"{type(exc).__name__}: {exc}"))
                    continue
                conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_run_child,
                    args=(self._worker, index, blob, child_conn),
                    daemon=True)
                proc.start()
                children.append((index, proc, conn))
                # Only the child may hold the sending end, so its death
                # closes the pipe.
                child_conn.close()
            deadline = time.monotonic() + self._timeout
            for index, proc, conn in children:
                try:
                    answer = self._await(conn, deadline)
                except (EOFError, OSError):
                    proc.join()
                    answer = ("error", "worker-raised",
                              f"shard worker died (exitcode {proc.exitcode})")
                if answer is None:
                    failures.append((index, "timeout",
                                     f"no result within {self._timeout:g}s "
                                     f"(hung worker)"))
                elif answer[0] == "ok":
                    results[index] = answer[1]
                elif answer[0] == "raise":
                    raised = answer[1]
                    break
                else:
                    _, kind, detail = answer
                    failures.append((index, kind, detail))
        finally:
            for _, proc, conn in children:
                if proc.is_alive():
                    proc.terminate()
                proc.join()
                conn.close()
        if raised is not None:
            raise raised
        return failures

    @staticmethod
    def _await(conn, deadline: float):
        """One child's answer, or None once ``deadline`` passes (separated
        out so tests can interpose).  Raises ``EOFError`` when the child
        closed the pipe unanswered."""
        remaining = max(0.0, deadline - time.monotonic())
        return conn.recv() if conn.poll(remaining) else None

    # -- accounting --------------------------------------------------------

    def _record(self, kind: str, shard: int, detail: str = "") -> None:
        self.faults.record(site="shard", kind=kind, detail=detail,
                           shard=shard)
        if self._obs is not None:
            self._obs.add("shard_faults")
            self._obs.count_in("faults_by_kind", f"shard/{kind}")

    def _count(self, name: str) -> None:
        if self._obs is not None:
            self._obs.add(name)
