"""Deterministic fault injection for the robustness test suite.

The fault-tolerance layer's central claim — recovered runs produce
*exactly* the fault-free output — is only testable if failures can be
provoked on demand, at a precise shard and attempt, reproducibly.  This
module provides those failure points:

* :class:`FaultPlan` / :class:`FaultSpec` — a per-shard schedule of
  injected failures (worker raises, dies, hangs, or returns an unpicklable
  result), built explicitly, from a seed (:meth:`FaultPlan.seeded`), or
  from the ``REPRO_FAULT_PLAN`` environment variable so faults can be
  injected through the real CLI in a subprocess.
* :class:`FaultyAnalyzer` — an analyzer that raises on ``process``, for
  the monitor's isolation policies.
* :func:`truncate_file` — corrupts a checkpoint the way a crash mid-write
  or a bad disk would.
* :func:`checkpoint_kill_hook` — ``SIGKILL``s the process right after the
  N-th checkpoint write (``REPRO_CHECKPOINT_KILL_AFTER``), so resume tests
  exercise a genuinely killed run rather than a polite exception.

Determinism rules: a fault fires based only on ``(shard index, attempt
number)``, both supplied by the supervisor, so a plan replays identically
across runs, start methods and transports.  Faults fire **only inside
shard worker processes** — pool workers and shm children alike
(``multiprocessing.parent_process() is not None``): the supervisor's
in-process fallback and the inline sharding path stay clean,
which is precisely the recovery behavior under test — and it keeps an
over-scheduled ``exit`` fault from killing the test runner itself.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import random
import signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..runtime.analyzers import Analyzer

__all__ = ["KINDS", "FaultSpec", "FaultPlan", "FaultyWorker", "Unpicklable",
           "FaultyAnalyzer", "truncate_file", "checkpoint_kill_hook",
           "PLAN_ENV", "KILL_ENV"]

#: Injectable shard-worker failure modes.
KINDS = ("raise", "exit", "hang", "bad-result")

PLAN_ENV = "REPRO_FAULT_PLAN"
KILL_ENV = "REPRO_CHECKPOINT_KILL_AFTER"


class Unpicklable:
    """An object that refuses to cross a process boundary.

    Returned by a ``bad-result`` fault: the worker computes it fine, the
    result pipe cannot encode it, and the parent sees
    ``MaybeEncodingError`` from a pool (a ``result-unpicklable`` report
    from an shm child) — the exact failure shape of a detector whose race
    reports captured something unpicklable.
    """

    def __reduce__(self):
        raise pickle.PicklingError("injected unpicklable result")


@dataclass(frozen=True)
class FaultSpec:
    """How one shard misbehaves.

    The fault fires on attempts ``0 .. times-1`` and the shard behaves
    normally from attempt ``times`` on, so ``times`` directly selects the
    recovery path: ``times <= max_retries`` recovers via pool retry,
    anything larger pushes the shard to the in-process fallback.
    ``seconds`` is the ``hang`` sleep; ``exit_code`` the ``exit`` status.
    """

    kind: str
    times: int = 1
    seconds: float = 30.0
    exit_code: int = 3

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of shard faults.

    ``shards`` maps shard index to its :class:`FaultSpec`; ``default``
    (the plan's ``"*"`` entry) applies to every shard without an explicit
    spec.  Wrap the shard worker with :meth:`wrap` — the supervisor does
    this automatically for ``SupervisorConfig(wrap=plan.wrap)`` or when
    ``REPRO_FAULT_PLAN`` carries :meth:`to_env` output.
    """

    shards: Tuple[Tuple[int, FaultSpec], ...] = ()
    default: Optional[FaultSpec] = None

    @staticmethod
    def build(shards: Dict[int, FaultSpec],
              default: Optional[FaultSpec] = None) -> "FaultPlan":
        """Construct from a plain dict (the natural literal in tests)."""
        return FaultPlan(shards=tuple(sorted(shards.items())),
                         default=default)

    def spec_for(self, index: int) -> Optional[FaultSpec]:
        for shard, spec in self.shards:
            if shard == index:
                return spec
        return self.default

    def has_faults(self) -> bool:
        return bool(self.shards) or self.default is not None

    def wrap(self, worker: Callable) -> "FaultyWorker":
        return FaultyWorker(worker, self)

    @staticmethod
    def seeded(seed: int, shards: int, retries: int,
               kinds: Sequence[str] = ("raise", "bad-result"),
               rate: float = 0.6, hang_seconds: float = 8.0) -> "FaultPlan":
        """A reproducible random plan over ``shards`` shard indexes.

        Each shard independently faults with probability ``rate``; fault
        counts range over ``1 .. retries + 2`` so seeds exercise both
        recovery paths (retry success and fallback).  The default
        ``kinds`` excludes ``exit`` and ``hang`` — those take a timeout
        each to detect, so the differential suite schedules them in
        dedicated cases rather than letting a seed stack several.
        """
        rng = random.Random(seed)
        specs: Dict[int, FaultSpec] = {}
        for index in range(shards):
            if rng.random() < rate:
                specs[index] = FaultSpec(
                    kind=rng.choice(list(kinds)),
                    times=rng.randint(1, retries + 2),
                    seconds=hang_seconds)
        return FaultPlan.build(specs)

    # -- environment transport (for CLI-level differential tests) ---------

    def to_env(self) -> str:
        """Serialize for ``REPRO_FAULT_PLAN``."""
        def encode(spec: FaultSpec) -> Dict:
            return {"kind": spec.kind, "times": spec.times,
                    "seconds": spec.seconds, "exit_code": spec.exit_code}
        payload: Dict[str, Dict] = {
            str(shard): encode(spec) for shard, spec in self.shards}
        if self.default is not None:
            payload["*"] = encode(self.default)
        return json.dumps({"shards": payload})

    @staticmethod
    def from_env(var: str = PLAN_ENV) -> "FaultPlan":
        """Parse a plan from the environment (raises on malformed JSON —
        a silently ignored fault plan would fake a green differential)."""
        raw = os.environ.get(var, "")
        if not raw:
            return FaultPlan()
        data = json.loads(raw)
        specs: Dict[int, FaultSpec] = {}
        default: Optional[FaultSpec] = None
        for key, entry in data.get("shards", {}).items():
            spec = FaultSpec(
                kind=entry["kind"], times=int(entry.get("times", 1)),
                seconds=float(entry.get("seconds", 30.0)),
                exit_code=int(entry.get("exit_code", 3)))
            if key == "*":
                default = spec
            else:
                specs[int(key)] = spec
        return FaultPlan.build(specs, default)


class FaultyWorker:
    """A supervised worker wrapped with a :class:`FaultPlan`.

    Picklable whenever the wrapped worker is (both transports' shard jobs
    are module-level functions), so it ships to pool workers and shm
    children under ``fork`` and ``spawn`` alike.  The attempt number comes
    from the supervisor, so "fail twice then succeed" needs no
    cross-process shared state.
    """

    def __init__(self, worker: Callable, plan: FaultPlan):
        self._worker = worker
        self._plan = plan

    def __call__(self, index: int, payload, attempt: int):
        spec = self._plan.spec_for(index)
        if (spec is not None and attempt < spec.times
                and multiprocessing.parent_process() is not None):
            if spec.kind == "raise":
                raise RuntimeError(
                    f"injected fault: shard {index} attempt {attempt}")
            if spec.kind == "exit":
                os._exit(spec.exit_code)
            if spec.kind == "hang":
                time.sleep(spec.seconds)
            elif spec.kind == "bad-result":
                return Unpicklable()
        return self._worker(index, payload, attempt)


class FaultyAnalyzer(Analyzer):
    """An analyzer whose ``process`` raises — fuel for isolation tests.

    Raises on the first ``times`` events (every event when ``times`` is
    None).  Event and fault counts are exposed so tests can assert the
    monitor kept dispatching, stopped dispatching after quarantine, etc.
    """

    name = "faulty"

    def __init__(self, times: Optional[int] = None):
        self.times = times
        self.calls = 0
        self.raised = 0

    def process(self, event) -> None:
        self.calls += 1
        if self.times is None or self.raised < self.times:
            self.raised += 1
            raise RuntimeError(f"injected analyzer fault #{self.raised}")


def truncate_file(path: str, keep_bytes: Optional[int] = None,
                  drop_bytes: int = 16) -> None:
    """Corrupt a file by truncation (to ``keep_bytes``, or dropping the
    last ``drop_bytes``) — the footprint of a crash mid-write."""
    size = os.path.getsize(path)
    keep = keep_bytes if keep_bytes is not None else max(0, size - drop_bytes)
    with open(path, "r+b") as handle:
        handle.truncate(keep)


def checkpoint_kill_hook(var: str = KILL_ENV
                         ) -> Optional[Callable[[int], None]]:
    """An ``after_write`` hook that SIGKILLs the process, or None.

    With ``REPRO_CHECKPOINT_KILL_AFTER=N`` set, the returned hook kills
    the process the moment the N-th checkpoint write completes —
    simulating the machine dying mid-run with a complete checkpoint on
    disk, the exact situation ``--resume-from`` exists for.
    """
    raw = os.environ.get(var, "")
    if not raw:
        return None
    threshold = int(raw)

    def kill_after(writes: int) -> None:
        if writes >= threshold:
            os.kill(os.getpid(), signal.SIGKILL)

    return kill_after
