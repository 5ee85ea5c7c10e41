"""One tenant's analysis lifecycle inside the detection daemon.

A :class:`TenantSession` owns everything tenant-scoped that the server's
connection plumbing must not care about: the
:class:`~repro.core.stream.StreamAnalyzer` and the memory budget.  The
server decodes events off the socket and calls :meth:`feed`; the session
decides whether each event is analyzed or refused (suspended).

A session lives for one connection.  A tenant that reconnects gets a
fresh session and is analyzed again from event zero: the analyzer's
state after n events is a function of the n-event prefix alone, so
re-analyzing the re-sent trace rebuilds it exactly.

States::

    ANALYZING --finish()--> DONE
    ANALYZING -(budget strikes out)-> SUSPENDED

Quarantine is *not* a session state — a raising session is a fault the
server attributes through its :class:`~repro.core.supervise.
QuarantinePolicy`, which outlives the session (a quarantined tenant stays
quarantined across reconnects; a session is per-analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.events import Event
from ..core.races import group_races
from ..core.stream import StreamAnalyzer
from ..specs import bundled_objects
from .budget import BudgetConfig, TenantBudget

__all__ = ["SessionConfig", "TenantSession",
           "ANALYZING", "SUSPENDED", "DONE"]

ANALYZING = "analyzing"
SUSPENDED = "suspended"
DONE = "done"


@dataclass(frozen=True)
class SessionConfig:
    """Analysis knobs shared by every tenant of one server.

    ``prune_interval``/``window`` are the :class:`StreamAnalyzer`'s
    (pruning is verdict-preserving, so any setting reports equivalently
    to offline analysis; the defaults report *byte*-identically;
    ``prune_interval=0`` turns pruning off).  The budget is checked at
    maintenance-window boundaries — between events, where forced
    maintenance is report-preserving.
    """

    prune_interval: int = 256
    window: int = 1024
    budget: BudgetConfig = field(default_factory=BudgetConfig)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.prune_interval < 0:
            raise ValueError(f"prune_interval must be >= 0, "
                             f"got {self.prune_interval}")


class TenantSession:
    """See the module docstring for the state machine."""

    def __init__(self, tenant: str, bindings: Dict[str, str], root,
                 config: SessionConfig, obs=None):
        self.tenant = tenant
        self._window = config.window
        self.state = ANALYZING
        self.events_seen = 0          # events accepted from this stream
        self.budget = TenantBudget(config.budget, tenant, obs=obs)
        registry = bundled_objects()
        self.analyzer = StreamAnalyzer(root=root,
                                       prune_interval=config.prune_interval,
                                       window=config.window)
        for name, kind in bindings.items():
            self.analyzer.register_object(name,
                                          registry[kind].representation())

    def feed(self, event: Event) -> None:
        """Consume one decoded event (ignored once suspended).

        Raises whatever the analyzer raises on an inconsistent event —
        the server turns that into per-tenant fault handling.
        """
        if self.state is SUSPENDED:
            return
        self.analyzer.process(event)
        self.events_seen += 1
        if self.events_seen % self._window == 0 \
                and self.budget.check(self.analyzer) == "suspend":
            self.state = SUSPENDED

    def finish(self) -> List:
        """Declared count reached: final maintenance."""
        if self.state is ANALYZING:
            self.analyzer.finish()
            self.state = DONE
        return self.races

    @property
    def races(self) -> List:
        return self.analyzer.races

    def race_lines(self) -> List[str]:
        """The grouped race report, one deterministic line per group.

        Exactly the lines ``repro-analyze`` prints for the same trace —
        the chaos harness compares them byte-for-byte.
        """
        return [str(group) for group in group_races(self.races)]
