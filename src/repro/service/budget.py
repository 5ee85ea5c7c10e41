"""Per-tenant memory budgets: forced maintenance, then suspension.

A tenant's :class:`~repro.core.stream.StreamAnalyzer` footprint is its
active + interned access-point count — exactly the quantities the
streaming memory gate bounds offline.  The budget enforces a ceiling on
that footprint at batch boundaries:

1. Under budget: nothing happens (strikes reset).
2. Over budget: a **forced maintenance window** runs immediately —
   joined-thread retirement, then an explicit Section 5.3 prune with
   intern eviction.  All of it is report-preserving, so a squeezed
   tenant's final race report stays byte-identical to the offline
   analysis of its trace.
3. Still over budget after ``suspend_after`` consecutive forced windows
   that failed to get back under: the tenant degrades to
   **budget-exceeded, detection suspended** — its analyzer stops
   consuming events (races found so far remain served) instead of
   growing until the daemon OOMs the whole fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["BudgetConfig", "TenantBudget"]


@dataclass(frozen=True)
class BudgetConfig:
    """Budget knobs shared by every tenant of a server.

    ``max_points`` is the soft/hard ceiling on active + interned points
    (``None`` disables budgeting).  ``suspend_after`` is how many
    *consecutive* forced maintenance windows may fail to reclaim enough
    before the tenant is suspended — transient overshoot between windows
    should squeeze, not kill.
    """

    max_points: Optional[int] = None
    suspend_after: int = 3

    def __post_init__(self) -> None:
        if self.max_points is not None and self.max_points < 1:
            raise ValueError(
                f"max_points must be >= 1, got {self.max_points}")
        if self.suspend_after < 1:
            raise ValueError(
                f"suspend_after must be >= 1, got {self.suspend_after}")


class TenantBudget:
    """One tenant's budget state machine (see module docstring)."""

    def __init__(self, config: BudgetConfig, tenant: str, obs=None):
        self._config = config
        self._tenant = tenant
        self._obs = obs if (obs is not None and obs.enabled) else None
        self._strikes = 0
        self.forced_windows = 0
        self.suspended = False

    def _footprint(self, analyzer) -> int:
        detector = analyzer.detector
        return (detector.active_point_count()
                + detector.interned_point_count())

    def check(self, analyzer) -> str:
        """Enforce the budget at a batch boundary.

        Returns ``"ok"``, ``"forced"`` (a forced maintenance window ran
        and reclaimed enough) or ``"suspend"`` (the tenant must stop
        analyzing).  Idempotent once suspended.
        """
        if self.suspended:
            return "suspend"
        limit = self._config.max_points
        if limit is None:
            return "ok"
        points = self._footprint(analyzer)
        if self._obs is not None:
            self._obs.gauge(f"tenant_points_hwm[{self._tenant}]", points)
        if points <= limit:
            self._strikes = 0
            return "ok"
        # Forced window: everything report-preserving that can shrink the
        # footprint, now rather than at the next periodic boundary.
        analyzer.maintain()
        analyzer.detector.prune_ordered_points()
        self.forced_windows += 1
        if self._obs is not None:
            self._obs.add("budget_forced_windows")
        points = self._footprint(analyzer)
        if points <= limit:
            self._strikes = 0
            return "forced"
        self._strikes += 1
        if self._strikes < self._config.suspend_after:
            return "forced"
        self.suspended = True
        if self._obs is not None:
            self._obs.add("budget_suspensions")
        return "suspend"
