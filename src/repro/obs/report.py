"""Report sinks: the ``--stats-json`` document and the human ``--stats`` table.

The report's schema — its envelope, the ``meta`` keys of each mode, the
``stats`` sections, and the conditional ``faults`` and ``predicted``
sections — is documented in one place, the Observability section of
``docs/paper_mapping.md``.  It is frozen by golden snapshots under
``tests/data/expected/`` (regenerated by ``tests/data/generate_golden.py``):
structural changes must show up as reviewed golden diffs.  Timing values
are nondeterministic, so the goldens store reports passed through
:func:`scrub_timings`, which zeroes durations while keeping every key.
"""

from __future__ import annotations

import copy
import json
import os
import stat
from typing import IO, Any, Dict, Optional, Sequence

from .registry import Registry

__all__ = ["REPORT_KEY", "REPORT_VERSION", "build_report", "write_report",
           "save_report", "render_table", "scrub_timings",
           "publish_detector_stats"]

REPORT_KEY = "repro-stats"
REPORT_VERSION = 1

#: Timer fields holding measured time; scrubbed to 0 for golden snapshots.
_TIMING_FIELDS = ("total_ns", "min_ns", "max_ns")


def build_report(registry: Registry,
                 meta: Optional[Dict[str, Any]] = None,
                 faults: Optional[Dict[str, Any]] = None,
                 predicted: Optional[Sequence[Any]] = None
                 ) -> Dict[str, Any]:
    """The versioned ``--stats-json`` document for one analysis run.

    ``faults`` is a :meth:`~repro.core.faults.FaultLog.snapshot` — present
    only when the run actually tolerated failures, so fault-free reports
    keep the exact envelope the golden snapshots freeze.  ``predicted``
    is the run's list of predicted races, or None when ``--predict`` was
    off: present, possibly empty, exactly when prediction ran.
    """
    report = {
        REPORT_KEY: REPORT_VERSION,
        "meta": dict(sorted((meta or {}).items())),
        "stats": registry.snapshot(),
    }
    if faults:
        report["faults"] = faults
    if predicted is not None:
        report["predicted"] = [prediction.snapshot()
                               for prediction in predicted]
    return report


def write_report(report: Dict[str, Any], stream: IO[str]) -> None:
    """Serialize a report deterministically (sorted keys, trailing \\n)."""
    json.dump(report, stream, indent=2, sort_keys=True)
    stream.write("\n")


def save_report(report: Dict[str, Any], path: str) -> None:
    """Write ``report`` to ``path`` with :func:`write_report`.

    When ``path`` is absent or a regular file, the report goes to
    ``PATH.tmp`` first and is renamed over ``PATH``, so a reader polling
    the file never sees half a report.  Anything else — a FIFO, a
    terminal, ``/dev/stdout`` — is written in place: a rename would
    replace the special file with a regular one.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "w", encoding="utf-8") as out:
            write_report(report, out)
        return
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as out:
        write_report(report, out)
    os.replace(tmp, path)


def scrub_timings(report: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``report`` with nondeterministic timing values zeroed.

    Timer ``total_ns``/``min_ns``/``max_ns`` become 0 and the latency
    buckets collapse to ``{}``; weighted/sample counts stay (they are
    deterministic functions of the trace and the sample interval).  Used
    by the golden snapshot tests to freeze the schema without freezing
    wall-clock noise.
    """
    scrubbed = copy.deepcopy(report)
    timers = scrubbed.get("stats", {}).get("timers", {})
    for timer in timers.values():
        for fld in _TIMING_FIELDS:
            if fld in timer:
                timer[fld] = 0
        if "buckets" in timer:
            timer["buckets"] = {}
    # Wire byte volumes are environment noise the same way wall clocks
    # are: pickle output shifts a few bytes with the hash seed (set
    # iteration order perturbs memoization).  Presence in the schema is
    # frozen; the magnitude is not.
    counters = scrubbed.get("stats", {}).get("counters", {})
    if "ipc_bytes_pickled" in counters:
        counters["ipc_bytes_pickled"] = 0
    return scrubbed


def publish_detector_stats(registry: Registry, stats) -> None:
    """Mirror a detector's counter dataclass into registry counters.

    Works for any dataclass of integer counters (``DetectorStats`` today);
    iterating the fields rather than naming them means new counters flow
    into the report without touching this module.
    """
    import dataclasses

    for fld in dataclasses.fields(stats):
        registry.add(fld.name, getattr(stats, fld.name))


def _format_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.3f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}µs"
    return f"{ns:.0f}ns"


def render_table(report: Dict[str, Any], top: int = 20) -> str:
    """The human ``--stats`` rendering of a report (stderr-friendly).

    Sections: phase timers (with share of summed phase time), counters,
    gauges, then each breakdown sorted by count descending (ties by key)
    and truncated to ``top`` rows.
    """
    stats = report.get("stats", {})
    lines = []
    meta = report.get("meta", {})
    if meta:
        described = " ".join(f"{key}={value}" for key, value in meta.items()
                             if not isinstance(value, dict))
        lines.append(f"-- observability report ({described}) --")
    else:
        lines.append("-- observability report --")
    if not stats.get("enabled", False):
        lines.append("  (observability disabled: nothing recorded)")
        return "\n".join(lines)

    timers = stats.get("timers", {})
    if timers:
        lines.append("phases:")
        total = sum(t.get("total_ns", 0) for t in timers.values()) or 1
        width = max(len(name) for name in timers)
        for name, timer in timers.items():
            total_ns = timer.get("total_ns", 0)
            count = timer.get("count", 0)
            mean = total_ns / count if count else 0
            lines.append(
                f"  {name:<{width}}  {_format_ns(total_ns):>9}  "
                f"{total_ns / total:>5.1%}  x{count}  "
                f"mean {_format_ns(mean)}")

    counters = stats.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {value}")

    gauges = stats.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}}  {value:g}")

    for name, table in stats.get("breakdowns", {}).items():
        lines.append(f"{name}:")
        rows = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
        shown = rows[:top]
        if shown:
            width = max(len(key) for key, _ in shown)
            for key, value in shown:
                lines.append(f"  {key:<{width}}  {value}")
        if len(rows) > top:
            rest = sum(value for _, value in rows[top:])
            lines.append(f"  (+{len(rows) - top} more rows, {rest} total)")

    faults = report.get("faults", {})
    counts = faults.get("counts", {})
    if counts:
        lines.append("tolerated faults:")
        width = max(len(key) for key in counts)
        for key, value in sorted(counts.items()):
            lines.append(f"  {key:<{width}}  {value}")
        if faults.get("dropped"):
            lines.append(f"  ({faults['dropped']} detail records dropped)")
    return "\n".join(lines)
