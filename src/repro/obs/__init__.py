"""Observability for the detector pipeline: metrics and report sinks.

The paper's evaluation (Table 2) attributes detector cost to its phases —
happens-before stamping, per-object conflict checks, report merging — and
per-(method, method) conflict structure.  This package makes that
attribution a first-class output of every pipeline component instead of a
one-off benchmark script:

* :class:`~repro.obs.registry.Registry` — counters, gauges, labeled
  breakdown counters and bucketed latency timers, with a disabled mode
  that the instrumented hot paths reduce to a single ``None`` check.
* :mod:`~repro.obs.report` — the frozen ``--stats-json`` report schema,
  the human ``--stats`` table, and the timing scrubber the golden
  snapshot tests use.

Instrumentation conventions
---------------------------

Phase timers use the names ``stamp`` (happens-before stamping, Table 1 /
Algorithm 1's ``vc(e)``), ``check`` (Algorithm 1 phases 1-2), ``merge``
(the sharded pipeline's report merge) and ``fanout`` (wall-clock of the
parallel phase B).  Sequential components time phases by *sampling* —
every ``sample_interval``-th event is measured and recorded with weight
``sample_interval`` — so enabled-mode overhead stays within the CI smoke
gate's budget; per-run phases (the sharded pipeline, baseline replays)
are timed exactly.  Counters and per-object breakdowns are always exact;
the per-(method, method) *check* breakdown is sampled the same way the
timers are (race attribution per pair is exact — races are rare).
"""

from .registry import (DEFAULT_SAMPLE_INTERVAL, NULL_REGISTRY, Registry,
                       Timer)
from .report import (build_report, publish_detector_stats, render_table,
                     save_report, scrub_timings, write_report)

__all__ = [
    "DEFAULT_SAMPLE_INTERVAL",
    "NULL_REGISTRY",
    "Registry",
    "Timer",
    "build_report",
    "publish_detector_stats",
    "render_table",
    "save_report",
    "scrub_timings",
    "write_report",
]
