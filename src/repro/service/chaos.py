"""The seeded chaos harness: prove the daemon right under abuse.

One run hosts a live :class:`~repro.service.server.DetectionServer` and
drives many concurrent tenants through the failure modes the service
exists to survive:

* **kill/restart** — tenants disconnect mid-stream at seeded byte
  offsets and reconnect, re-sending the trace from event zero for a
  fresh analysis;
* **torn frames** — the cut offsets land mid-record, so the server sees
  half-written JSONL lines flushed by dying clients;
* **budget squeeze** — a deliberately small per-tenant point budget
  forces maintenance windows mid-stream (with a suspension threshold
  high enough that detection continues — the *suspension* path has its
  own dedicated tests);
* **slow-consumer flood** — one designated tenant's analysis worker is
  throttled while its (largest) trace floods in, proving the bounded
  queue and socket backpressure hold the line.

The acceptance bar is strict: after the dust settles, every tenant's
``RACES`` report must be **byte-identical** to an offline single-tenant
analysis of the same trace, and no tenant's ingest-queue high-water mark
may exceed the configured bound.  Both are checked here, not eyeballed.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import threading
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Tuple

from ..core.detector import CommutativityRaceDetector
from ..core.races import group_races
from ..core.trace import Trace
from ..specs import bundled_objects
from ..testing.workloads import tenant_trace_text
from .budget import BudgetConfig
from .client import ControlClient, ServerThread, ServiceClient, StreamResult
from .server import ServiceConfig
from .session import SessionConfig

__all__ = ["ChaosPlan", "TenantOutcome", "ChaosReport",
           "offline_race_lines", "run_chaos"]


def offline_race_lines(trace: Trace, bindings: Dict[str, str]) -> List[str]:
    """The grouped race report a plain offline analysis produces."""
    registry = bundled_objects()
    detector = CommutativityRaceDetector(root=trace.root)
    for name, kind in bindings.items():
        detector.register_object(name, registry[kind].representation())
    detector.run(trace)
    return [str(group) for group in group_races(detector.races)]


@dataclass(frozen=True)
class ChaosPlan:
    """One seeded, fully deterministic abuse schedule."""

    seed: int
    tenants: int = 8
    #: Mid-stream disconnects per tenant (each at a seeded byte offset).
    min_cuts: int = 0
    max_cuts: int = 2
    #: Worker-side delay injected into the flood tenant's analysis.
    flood_delay: float = 0.002
    #: Ops per worker thread in the generated tenant workloads.
    min_ops: int = 30
    max_ops: int = 120

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")

    @classmethod
    def seeded(cls, seed: int, tenants: int = 8) -> "ChaosPlan":
        return cls(seed=seed, tenants=tenants)


@dataclass
class TenantOutcome:
    """How one tenant fared, with the offline ground truth beside it."""

    tenant: str
    workload_seed: int
    cuts: Tuple[int, ...]
    attempts: List[StreamResult]
    observed_lines: List[str]
    expected_lines: List[str]
    queue_hwm: int

    @property
    def matched(self) -> bool:
        terminal = self.attempts[-1] if self.attempts else None
        return (terminal is not None and terminal.status == "done"
                and self.observed_lines == self.expected_lines)


@dataclass
class ChaosReport:
    """A full chaos run's verdict and evidence."""

    plan: ChaosPlan
    queue_size: int
    outcomes: List[TenantOutcome]
    stats: dict = field(default_factory=dict)

    @property
    def mismatches(self) -> List[TenantOutcome]:
        return [o for o in self.outcomes if not o.matched]

    @property
    def queue_breaches(self) -> List[TenantOutcome]:
        return [o for o in self.outcomes if o.queue_hwm > self.queue_size]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.queue_breaches

    def summary(self) -> str:
        races = sum(len(o.expected_lines) for o in self.outcomes)
        cuts = sum(len(o.cuts) for o in self.outcomes)
        hwm = max((o.queue_hwm for o in self.outcomes), default=0)
        lines = [
            f"chaos seed={self.plan.seed} tenants={self.plan.tenants}: "
            f"{'OK' if self.ok else 'FAILED'}",
            f"  race groups (offline ground truth): {races}",
            f"  mid-stream cuts: {cuts}",
            f"  queue hwm: {hwm} (bound {self.queue_size})",
            f"  forced budget windows: "
            f"{self.stats.get('counters', {}).get('budget_forced_windows', 0)}",
        ]
        for outcome in self.mismatches:
            lines.append(f"  MISMATCH {outcome.tenant}: "
                         f"final={outcome.attempts[-1].final!r} "
                         f"observed={len(outcome.observed_lines)} "
                         f"expected={len(outcome.expected_lines)} groups")
        for outcome in self.queue_breaches:
            lines.append(f"  QUEUE BREACH {outcome.tenant}: "
                         f"hwm {outcome.queue_hwm} > {self.queue_size}")
        return "\n".join(lines)


def _seeded_cuts(rng: Random, payload_len: int, min_cuts: int,
                 max_cuts: int) -> Tuple[int, ...]:
    """Byte offsets to tear the stream at — deliberately mid-anything."""
    count = rng.randint(min_cuts, max_cuts)
    return tuple(sorted(rng.randint(1, max(1, payload_len - 1))
                        for _ in range(count)))


def run_chaos(plan: ChaosPlan, base_dir: Optional[str] = None,
              queue_size: int = 8,
              budget_points: Optional[int] = 24) -> ChaosReport:
    """Run one full chaos schedule; see the module docstring.

    The daemon's sockets live in ``base_dir``, or in a temporary
    directory that is removed afterwards when none is given.
    """
    if base_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as base:
            return _run_chaos_in(base, plan, queue_size, budget_points)
    os.makedirs(base_dir, exist_ok=True)
    return _run_chaos_in(base_dir, plan, queue_size, budget_points)


def _run_chaos_in(base: str, plan: ChaosPlan, queue_size: int,
                  budget_points: Optional[int]) -> ChaosReport:
    rng = Random(plan.seed)
    tenants = [f"tenant-{i:02d}" for i in range(plan.tenants)]
    flood = tenants[0]

    async def throttle(tenant: str, events_seen: int) -> None:
        if tenant == flood:
            await asyncio.sleep(plan.flood_delay)

    config = ServiceConfig(
        socket_path=os.path.join(base, "ingest.sock"),
        control_path=os.path.join(base, "control.sock"),
        session=SessionConfig(
            window=32,
            budget=BudgetConfig(max_points=budget_points,
                                suspend_after=1_000_000)),
        queue_size=queue_size,
        throttle=throttle)

    # Per-tenant schedules drawn up-front so thread interleaving cannot
    # perturb the seeded randomness.
    schedules = []
    for index, tenant in enumerate(tenants):
        workload_seed = rng.randrange(1 << 30)
        ops = (plan.max_ops * 4 if tenant == flood
               else rng.randint(plan.min_ops, plan.max_ops))
        text, bindings, trace = tenant_trace_text(
            workload_seed, min_ops=ops, max_ops=ops)
        cuts = _seeded_cuts(rng, len(text), plan.min_cuts, plan.max_cuts)
        schedules.append((tenant, workload_seed, text, bindings, trace,
                          cuts))

    outcomes: List[Optional[TenantOutcome]] = [None] * len(schedules)
    stats: dict = {}
    with ServerThread(config) as host:
        client = ServiceClient(config.socket_path)
        control = ControlClient(config.control_path)

        def drive(index: int) -> None:
            tenant, wseed, text, bindings, trace, cuts = schedules[index]
            attempts: List[StreamResult] = []
            for cut in cuts:
                attempts.append(client.stream_text(
                    tenant, bindings, text, truncate_at=cut))
            attempts.extend(client.stream_until_done(
                tenant, bindings, text))
            observed = control.races(tenant)
            if observed == ["(no races)"]:
                observed = []
            outcomes[index] = TenantOutcome(
                tenant=tenant, workload_seed=wseed, cuts=cuts,
                attempts=attempts, observed_lines=observed,
                expected_lines=offline_race_lines(trace, bindings),
                queue_hwm=0)

        threads = [threading.Thread(target=drive, args=(i,), daemon=True)
                   for i in range(len(schedules))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = control.stats()
        # Queue high-water marks live server-side; read them out of the
        # merged gauges rather than trusting any client-side accounting.
        gauges = stats.get("gauges", {})
        for outcome in outcomes:
            outcome.queue_hwm = int(gauges.get(
                f"tenant_queue_hwm[{outcome.tenant}]", 0))
        control.shutdown()
    if host.error is not None:
        raise host.error
    return ChaosReport(plan=plan, queue_size=queue_size,
                       outcomes=list(outcomes), stats=stats)
