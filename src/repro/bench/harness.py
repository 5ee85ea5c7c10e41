"""The measurement harness shared by all benchmark drivers.

A *configuration* names an analyzer stack (the columns of Table 2):
``uninstrumented`` runs with an empty monitor — instrumentation sites see
``monitor.enabled == False`` and skip event construction, which is the
closest Python equivalent of running the JVM without RoadRunner.  The other
configurations attach detector analyzers to the same workload code.

:func:`measure` runs a workload callable under one configuration, timing it
and tallying each analyzer's race reports by flavour; the Table 2 driver
assembles rows from these measurements.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.races import (CommutativityRace, DataRace, LocksetWarning,
                          RaceTally, tally)
from ..runtime.analyzers import (Analyzer, DirectAnalyzer, EraserAnalyzer,
                                 FastTrackAnalyzer, NullAnalyzer,
                                 Rd2Analyzer)
from ..runtime.monitor import Monitor

__all__ = ["CONFIGURATIONS", "Measurement", "analyzer_stack", "measure"]


def analyzer_stack(config: str) -> List[Analyzer]:
    """The analyzers attached under a named configuration."""
    if config == "uninstrumented":
        return []
    if config == "fasttrack":
        return [FastTrackAnalyzer()]
    if config == "rd2":
        # The paper notes RoadRunner instruments all memory accesses even
        # when the tool only needs the ConcurrentHashMaps; mirroring that,
        # the RD2 configuration still pays for the low-level event stream
        # (a NullAnalyzer consumes it).
        return [Rd2Analyzer(), NullAnalyzer()]
    if config == "rd2-maps-only":
        # The ablation the paper suggests: "if we only instrumented the
        # ConcurrentHashMaps ... the overhead of RD2 would be lower."
        return [Rd2Analyzer()]
    if config == "eraser":
        return [EraserAnalyzer()]
    if config == "direct":
        return [DirectAnalyzer(), NullAnalyzer()]
    raise ValueError(f"unknown configuration {config!r}")


CONFIGURATIONS: Tuple[str, ...] = ("uninstrumented", "fasttrack", "rd2")
"""The three columns of Table 2."""

#: per-configuration Monitor options (the maps-only ablation turns off
#: memory-access and internal-lock event emission altogether)
_MONITOR_OPTIONS = {
    "rd2-maps-only": {"low_level": False},
}


@dataclass
class Measurement:
    """One (workload, configuration) execution."""

    config: str
    elapsed: float
    operations: int
    commutativity_races: RaceTally
    data_races: RaceTally
    lockset_warnings: RaceTally
    events: int = 0

    @property
    def qps(self) -> float:
        return self.operations / self.elapsed if self.elapsed > 0 else 0.0

    def races_for(self, config: Optional[str] = None) -> RaceTally:
        """The tally that Table 2 reports for this configuration."""
        name = config or self.config
        if name in ("rd2", "rd2-maps-only", "direct"):
            return self.commutativity_races
        if name == "fasttrack":
            return self.data_races
        if name == "eraser":
            return self.lockset_warnings
        return RaceTally(0, 0)


def measure(workload: Callable[[Monitor], int], config: str,
            repeats: int = 1) -> Measurement:
    """Run ``workload`` under ``config``; return the best-of-``repeats``.

    ``workload`` receives a fresh monitor and returns its operation count.
    Races accumulate across repeats only in the *last* run's monitor (each
    repeat gets a fresh monitor, so tallies are per-run as in the paper,
    which reports the races of a single benchmark execution).

    Each run is timed with the cyclic collector off (collected before the
    timer starts, re-enabled after it stops), so a collection paid for by
    garbage an earlier run left behind is not billed to this one.
    """
    best_elapsed: Optional[float] = None
    last_monitor: Optional[Monitor] = None
    operations = 0
    for _ in range(max(1, repeats)):
        monitor = Monitor(analyzers=analyzer_stack(config),
                          **_MONITOR_OPTIONS.get(config, {}))
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            operations = workload(monitor)
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed = elapsed
        last_monitor = monitor

    commutativity: List[CommutativityRace] = []
    data: List[DataRace] = []
    lockset: List[LocksetWarning] = []
    for report in last_monitor.races():
        if isinstance(report, CommutativityRace):
            commutativity.append(report)
        elif isinstance(report, DataRace):
            data.append(report)
        elif isinstance(report, LocksetWarning):
            lockset.append(report)
    return Measurement(
        config=config,
        elapsed=best_elapsed,
        operations=operations,
        commutativity_races=tally(commutativity),
        data_races=tally(data),
        lockset_warnings=tally(lockset),
        events=last_monitor.events_emitted,
    )
