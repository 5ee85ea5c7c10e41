"""Streaming bounded-memory analysis: follow a trace as it is written.

The batch analyzers hold the whole execution history: every active point,
every interned ``(schema, value)`` instance, every dead thread's clock.
For a finished trace that is merely wasteful; for a *never-ending* one it
is fatal.  :class:`StreamAnalyzer` runs Algorithm 1 incrementally and
keeps the detector's footprint proportional to the **concurrent**
footprint — what can still race — instead of the history:

* **Pruning + eviction** (every ``prune_interval`` actions, inside the
  detector): active points ordered before every live thread go, and so do
  their intern-table entries and candidate tuples — the Section 5.3
  "remove unnecessary active access points" bound, restored for the
  ENUMERATE loop's intern table.
* **Thread retirement** (every ``window`` events): joined threads' clocks
  leave the happens-before tables; the thread table tracks the live set,
  not the fork total.  Streaming race reports stay **byte-identical** to
  the batch detector's on the same trace.
* **Epoch deflation** (every ``window`` events): points that contention
  inflated to full vector clocks are re-certified back to O(1) epochs
  once the live thread clocks cover them on all but one component —
  exactly report-preserving, see
  :meth:`~repro.core.detector.CommutativityRaceDetector.
  deflate_point_clocks`.

Races are emitted incrementally (``on_race`` fires the moment phase 1
reports), and each maintenance window publishes memory gauges
(``active_points``, ``interned_points``, per-object high-water marks) and
invokes ``on_window`` — the CLI hangs its periodic ``--stats-json``
snapshots there.

:func:`follow_analyze` pairs the analyzer with
:class:`~repro.core.serialize.TailReader` to consume a trace file that is
still being written, surviving writers killed mid-record.

The daemon (``repro-serve``) wraps this analyzer per tenant; its ingest
bytes arrive over one unix socket per tenant, as the same
newline-delimited records.  See :mod:`repro.service.server`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from .detector import CommutativityRaceDetector, Strategy
from .events import Event
from .races import CommutativityRace
from .serialize import TailReader
from .vector_clock import Tid

__all__ = ["StreamAnalyzer", "FollowStatus", "follow_analyze"]


class StreamAnalyzer:
    """Incremental commutativity race detection in bounded memory.

    A thin maintenance loop around
    :class:`~repro.core.detector.CommutativityRaceDetector`: events go
    through :meth:`process` one at a time (no trace object, no length
    known up front), and every ``window`` events the analyzer retires
    dead threads, deflates point clocks, samples the memory gauges and
    fires ``on_window``.  Detector-level pruning/eviction rides the
    detector's own ``prune_interval`` counter, so a streaming run with
    ``prune_interval=k`` reports byte-identically to a batch detector
    constructed with the same ``prune_interval=k`` — and pruning itself
    is verdict-preserving, so also to a batch run without pruning.

    ``peak_active`` / ``peak_interned`` record the high-water marks seen
    at maintenance boundaries — the quantities the streaming memory gate
    (``benchmarks/test_gates.py::test_streaming_memory_bound``) bounds.
    """

    def __init__(
        self,
        root: Tid = 0,
        strategy: Strategy = Strategy.AUTO,
        on_race: Optional[Callable[[CommutativityRace], None]] = None,
        keep_reports: bool = True,
        prune_interval: int = 256,
        window: int = 1024,
        obs=None,
        on_window: Optional[Callable[["StreamAnalyzer"], None]] = None,
        predict_window: int = 0,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._detector = CommutativityRaceDetector(
            root=root, strategy=strategy, on_race=on_race,
            keep_reports=keep_reports, prune_interval=prune_interval,
            obs=obs, predict_window=predict_window)
        self._predict = bool(predict_window)
        self._window = window
        self._on_window = on_window
        self._obs = self._detector._obs
        self._since_maintenance = 0
        self.events_processed = 0
        self.windows_completed = 0
        self.peak_active = 0
        self.peak_interned = 0
        self.threads_retired = 0
        self.points_deflated = 0

    # -- delegation --------------------------------------------------------

    def register_object(self, obj, representation,
                        strategy: Optional[Strategy] = None) -> None:
        self._detector.register_object(obj, representation, strategy)

    def release_object(self, obj) -> None:
        self._detector.release_object(obj)

    @property
    def detector(self) -> CommutativityRaceDetector:
        return self._detector

    @property
    def races(self) -> List[CommutativityRace]:
        return self._detector.races

    @property
    def stats(self):
        return self._detector.stats

    @property
    def predicted(self) -> List:
        """Validated predictive races so far (``predict_window > 0``)."""
        return self._detector.predicted

    # -- the streaming loop ------------------------------------------------

    def process(self, event: Event) -> Optional[List[CommutativityRace]]:
        """Consume one event; races found on it come back immediately."""
        found = self._detector.process(event)
        self.events_processed += 1
        self._since_maintenance += 1
        if self._since_maintenance >= self._window:
            self.maintain()
        return found

    def run(self, events) -> List[CommutativityRace]:
        """Process an event iterable, then :meth:`finish`."""
        for event in events:
            self.process(event)
        return self.finish()

    def maintain(self) -> None:
        """One maintenance cycle: retire, deflate, sample."""
        self._since_maintenance = 0
        self.windows_completed += 1
        detector = self._detector
        self.threads_retired += len(
            detector.happens_before.retire_joined_threads())
        # Re-certify inflated points back to O(1) epochs against the live
        # clocks: contention that has since been ordered stops taxing
        # every later check.
        self.points_deflated += detector.deflate_point_clocks()
        if self._predict:
            # Bounded prediction windows flush here: candidates queued
            # since the last window resolve now (closures only look
            # backward, so incremental flushes equal one final pass).
            detector.predict()
        active = detector.active_point_count()
        interned = detector.interned_point_count()
        if active > self.peak_active:
            self.peak_active = active
        if interned > self.peak_interned:
            self.peak_interned = interned
        obs = self._obs
        if obs is not None:
            # Gauges merge by max, so one name per quantity is a running
            # high-water mark for free (and so are the per-object ones —
            # breakdowns would sum across samples and worker absorbs).
            obs.gauge("active_points", active)
            obs.gauge("interned_points", interned)
            for obj, (act, inte) in detector.per_object_footprint().items():
                obs.gauge(f"active_points_hwm[{obj}]", act)
                obs.gauge(f"interned_points_hwm[{obj}]", inte)
        if self._on_window is not None:
            self._on_window(self)

    def finish(self) -> List[CommutativityRace]:
        """Final maintenance (no extra prune — cadence stays batch-equal)."""
        self.maintain()
        return self._detector.races


@dataclass
class FollowStatus:
    """How a :func:`follow_analyze` run ended."""

    #: The header's declared event count was fully read.
    complete: bool
    events_read: int
    declared_events: Optional[int]
    #: Byte offset of the first unread (possibly partial) record — a new
    #: ``TailReader(path, resume_offset=...)`` picks up exactly here.
    resume_offset: int
    #: The file ended mid-record (writer killed or still flushing).
    truncated_tail: bool
    #: The header's root thread id (``None`` if the header never
    #: appeared).  Together with ``declared_events`` this makes the
    #: status complete resume metadata: feed it to
    #: :meth:`~repro.core.serialize.TailReader.from_status` so a resumed
    #: reader can still recognize end-of-trace.
    root: Any = None


def follow_analyze(
    path: str,
    build_analyzer: Callable[[Any], StreamAnalyzer],
    poll_interval: float = 0.05,
    idle_timeout: Optional[float] = 10.0,
    reader: Optional[TailReader] = None,
) -> tuple:
    """Follow a trace file being written and analyze it incrementally.

    Waits for the header (the analyzer's root thread id comes from it),
    calls ``build_analyzer(root)``, then feeds every complete event to
    the analyzer as it appears.  Ends when the declared event count has
    been read or after ``idle_timeout`` seconds without progress — a
    writer killed mid-record therefore stalls the reader for at most the
    idle budget, never forever, and the returned status carries the
    resume offset.  Returns ``(analyzer, FollowStatus)``; ``analyzer`` is
    ``None`` if the header never appeared.
    """
    if reader is None:
        reader = TailReader(path)
    analyzer: Optional[StreamAnalyzer] = None
    idle = 0.0
    while True:
        events = reader.poll()
        if analyzer is None and reader.header_ready:
            analyzer = build_analyzer(reader.root)
        for event in events:
            analyzer.process(event)
        if reader.done:
            break
        if events:
            idle = 0.0
        elif idle_timeout is not None:
            idle += poll_interval
            if idle >= idle_timeout:
                break
        _time.sleep(poll_interval)
    if analyzer is not None:
        analyzer.finish()
    status = FollowStatus(
        complete=reader.done,
        events_read=reader.events_read,
        declared_events=reader.declared_events,
        resume_offset=reader.offset,
        truncated_tail=reader.truncated,
        root=reader.root,
    )
    return analyzer, status
