"""Fault accounting: what went wrong, where, and what absorbed it.

The fault-tolerance layer (shard supervision in :mod:`repro.core.supervise`,
analyzer isolation in :mod:`repro.runtime.monitor`) promises that tolerated
failures never change a verdict — but a tolerated failure silently
swallowed is a debugging trap and an operational blind spot.  Every
recovery action therefore leaves a :class:`FaultRecord` in a
:class:`FaultLog`:

* the **supervisor** records each shard timeout, worker crash, worker
  exception and result-encoding failure, plus every inline fallback;
* the **monitor** records each isolated analyzer exception and each
  quarantine decision.

The log is bounded: per-(site, kind) counts stay exact forever, but only
the first ``capacity`` records keep their details (a monitored run with a
crash-on-every-event analyzer under the ``log`` policy would otherwise
accumulate one record per trace event).  :meth:`FaultLog.snapshot` renders
the log for the ``--stats-json`` report, which is how injected faults are
asserted visible by the differential fault suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["FaultRecord", "FaultLog"]


@dataclass(frozen=True)
class FaultRecord:
    """One tolerated (or at least observed) failure.

    ``site`` names the component that saw it (``shard``, ``analyzer``,
    ``tenant``); ``kind`` the failure mode within that site (``timeout``,
    ``worker-raised``, ``fallback``, ``exception``, ``quarantined``...).
    ``shard`` is set by shard supervision, ``attempt`` by analyzer fault
    counting (the analyzer's fault number).
    """

    site: str
    kind: str
    detail: str = ""
    shard: Optional[int] = None
    attempt: Optional[int] = None

    def __str__(self) -> str:
        where = f" shard={self.shard}" if self.shard is not None else ""
        nth = f" attempt={self.attempt}" if self.attempt is not None else ""
        tail = f": {self.detail}" if self.detail else ""
        return f"[{self.site}/{self.kind}]{where}{nth}{tail}"


class FaultLog:
    """A bounded, countable record of tolerated failures.

    ``len(log)`` counts every fault ever recorded; :meth:`records` returns
    the retained detail records (the first ``capacity`` of them — the
    earliest faults are the interesting ones, later repetitions add
    volume, not information).  Per-(site, kind) counts in :meth:`by_kind`
    stay exact even past the capacity.
    """

    def __init__(self, capacity: int = 1000):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: List[FaultRecord] = []
        self._counts: Dict[Tuple[str, str], int] = {}
        self.dropped = 0

    def record(self, site: str, kind: str, detail: str = "",
               shard: Optional[int] = None,
               attempt: Optional[int] = None) -> FaultRecord:
        """Log one fault; returns the (possibly not retained) record."""
        fault = FaultRecord(site=site, kind=kind, detail=detail,
                            shard=shard, attempt=attempt)
        key = (site, kind)
        self._counts[key] = self._counts.get(key, 0) + 1
        if len(self._records) < self.capacity:
            self._records.append(fault)
        else:
            self.dropped += 1
        return fault

    def records(self) -> Tuple[FaultRecord, ...]:
        """The retained detail records, in recording order."""
        return tuple(self._records)

    def __iter__(self) -> Iterator[FaultRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __bool__(self) -> bool:
        return bool(self._counts)

    def count(self, site: Optional[str] = None,
              kind: Optional[str] = None) -> int:
        """Exact fault count, optionally filtered by site and/or kind."""
        return sum(value for (s, k), value in self._counts.items()
                   if (site is None or s == site)
                   and (kind is None or k == kind))

    def by_kind(self) -> Dict[str, int]:
        """Exact ``"site/kind" -> count`` summary, key-sorted."""
        return {f"{site}/{kind}": count
                for (site, kind), count in sorted(self._counts.items())}

    def clear(self) -> None:
        self._records.clear()
        self._counts.clear()
        self.dropped = 0

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able view for the ``--stats-json`` report."""
        records = []
        for fault in self._records:
            entry: Dict[str, Any] = {"site": fault.site, "kind": fault.kind}
            if fault.shard is not None:
                entry["shard"] = fault.shard
            if fault.attempt is not None:
                entry["attempt"] = fault.attempt
            if fault.detail:
                entry["detail"] = fault.detail
            records.append(entry)
        return {"counts": self.by_kind(), "records": records,
                "dropped": self.dropped}

    def __repr__(self) -> str:
        return (f"FaultLog({len(self)} faults, "
                f"{len(self._records)} retained)")
