"""The ``repro-analyze`` command: offline analysis of saved traces.

Record a trace in a monitored run (``Monitor(record_trace=True)``), park it
with :func:`repro.core.serialize.dump_trace`, then analyze it later::

    repro-analyze trace.jsonl --object o=dictionary --object s=set
    repro-analyze trace.jsonl --object o=dictionary --workers 4
    repro-analyze trace.jsonl --object o=dictionary --detector direct
    repro-analyze trace.jsonl --detector fasttrack
    repro-analyze trace.jsonl --object o=dictionary --atomicity
    repro-analyze trace.jsonl --spec-report dictionary

Verifying the bundled specs is a separate command, ``repro-verify-specs``
(:mod:`repro.verify.cli`).

``--object NAME=KIND`` binds a shared object in the trace to a bundled
specification kind; the commutativity detectors need at least one binding,
the read/write detectors none.

Observability has one output, ``--stats-json PATH``, the JSON report
whose schema the Observability section of ``docs/paper_mapping.md``
documents; ``--stats`` renders the same report as a table on **stderr**
(stdout keeps carrying only the race report).

Fault tolerance (see ``docs/robustness.md``): multi-worker rd2 runs are
supervised, and a shard whose worker raises, dies or stays silent past
``--shard-timeout`` is replayed in-process at once; a killed run is run
again.  Tolerated faults are summarized on stderr and recorded under
``"faults"`` in the ``--stats-json`` report.

Exit codes are part of the scripting interface (see ``EXIT_*``): 0 clean,
1 reports found, 2 usage error, 3 unreadable/invalid input, 130
interrupted.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .core.errors import ReproError
from .core.races import group_races, tally
from .core.serialize import load_trace
from .obs import (NULL_REGISTRY, Registry, build_report,
                  publish_detector_stats, render_table, save_report)
from .specs import bundled_objects

__all__ = ["main", "EXIT_CLEAN", "EXIT_REPORTS", "EXIT_USAGE", "EXIT_DATA",
           "EXIT_INTERRUPT"]

#: No reports found, analysis completed.
EXIT_CLEAN = 0
#: Analysis completed and found race/atomicity reports.
EXIT_REPORTS = 1
#: Bad invocation: unknown flags or invalid option values.
EXIT_USAGE = 2
#: Input problem: unreadable or malformed trace file.
EXIT_DATA = 3
#: Interrupted by the user (128 + SIGINT, the shell convention).
EXIT_INTERRUPT = 130

_EXIT_CODE_HELP = """\
exit codes:
  0   analysis completed, no reports
  1   analysis completed, race/atomicity reports found
  2   usage error (bad flag or option value)
  3   input error (unreadable or invalid trace file)
  130 interrupted (SIGINT)
"""


def _fail(message: str, code: int) -> "SystemExit":
    """Exit with a clean one-line diagnostic on stderr (no traceback)."""
    print(f"repro-analyze: error: {message}", file=sys.stderr)
    raise SystemExit(code)


class _Parser(argparse.ArgumentParser):
    """argparse whose own errors (an unknown flag, a bad choice, a flag
    missing its value) are one ``repro-analyze: error:`` line, not a
    usage dump."""

    def error(self, message: str) -> "SystemExit":
        _fail(message, EXIT_USAGE)


def _parse_bindings(pairs: Sequence[str]) -> List[Tuple[str, str]]:
    registry = bundled_objects()
    bindings = []
    for pair in pairs:
        if "=" not in pair:
            _fail(f"--object expects NAME=KIND, got {pair!r}", EXIT_USAGE)
        name, kind = pair.split("=", 1)
        if kind not in registry:
            _fail(f"unknown object kind {kind!r}; available: "
                  f"{sorted(registry)}", EXIT_USAGE)
        bindings.append((name, kind))
    return bindings


def _parse_workers(raw: str) -> int:
    """Validate ``--workers`` (kept a string so a non-integer gets a
    diagnostic naming the expected value)."""
    try:
        workers = int(raw)
    except ValueError:
        _fail(f"--workers expects a positive integer, got {raw!r}",
              EXIT_USAGE)
    if workers < 1:
        _fail(f"--workers must be >= 1, got {workers}", EXIT_USAGE)
    return workers


def _parse_prune_interval(args) -> int:
    """Validate ``--prune-interval`` (0 = pruning off, the default)."""
    if args.prune_interval is None:
        return 0
    try:
        interval = int(args.prune_interval)
    except ValueError:
        _fail(f"--prune-interval expects a positive integer, got "
              f"{args.prune_interval!r}", EXIT_USAGE)
    if interval < 1:
        _fail(f"--prune-interval must be >= 1, got {interval}", EXIT_USAGE)
    return interval


def _parse_predict(args) -> int:
    """Validate ``--predict[=WINDOW]`` (0 = prediction off, the default)."""
    if args.predict is None:
        return 0
    try:
        window = int(args.predict)
    except ValueError:
        _fail(f"--predict expects a positive integer window, got "
              f"{args.predict!r}", EXIT_USAGE)
    if window < 1:
        _fail(f"--predict window must be >= 1, got {window}", EXIT_USAGE)
    return window


def _parse_follow_window(args) -> Optional[int]:
    """Validate ``--window`` (None when the flag was not given)."""
    if args.window is None:
        return None
    try:
        window = int(args.window)
    except ValueError:
        _fail(f"--window expects a positive integer, got {args.window!r}",
              EXIT_USAGE)
    if window < 1:
        _fail(f"--window must be >= 1, got {window}", EXIT_USAGE)
    return window


def _parse_timeout(flag: str, value: Optional[str]) -> Optional[float]:
    """A timeout flag in seconds, or None when it was not given."""
    if value is None:
        return None
    try:
        timeout = float(value)
    except ValueError:
        _fail(f"{flag} expects a number of seconds, got {value!r}",
              EXIT_USAGE)
    if not math.isfinite(timeout) or timeout <= 0:
        _fail(f"{flag} must be a finite number > 0, got {timeout:g}",
              EXIT_USAGE)
    return timeout


def _load_trace_file(path: str):
    """Load a JSONL trace, turning format problems into clean exits.

    A malformed line (invalid JSON) or an unknown event kind is a user
    input problem, not a bug — report which file failed and why instead
    of letting the traceback escape.

    The trace is loaded unstamped: every engine stamps the events itself
    (or, like Eraser and the atomicity checker, reads no clocks).
    """
    try:
        with open(path, "r", encoding="utf-8") as stream:
            return load_trace(stream, stamp=False)
    except OSError as exc:
        _fail(f"cannot read trace {path!r}: {exc}", EXIT_DATA)
    except (ReproError, ValueError) as exc:
        # ValueError covers json.JSONDecodeError on malformed lines;
        # ReproError covers unknown event kinds, bad sentinels, and
        # truncated traces.
        _fail(f"invalid trace file {path!r}: {exc}", EXIT_DATA)


def _analyze_commutativity(trace, bindings, detector_kind: str,
                           workers: int = 1, obs=NULL_REGISTRY,
                           shard_timeout: Optional[float] = None,
                           predict_window: int = 0,
                           ) -> Tuple[int, Optional[Dict[str, Any]],
                                      Optional[List[Any]]]:
    registry = bundled_objects()
    if not bindings:
        _fail("commutativity analysis needs at least one --object NAME=KIND",
              EXIT_USAGE)
    if detector_kind == "rd2" and workers > 1:
        from .core.parallel import ShardedDetector
        from .core.supervise import DEFAULT_SHARD_TIMEOUT
        detector = ShardedDetector(
            root=trace.root, workers=workers, obs=obs,
            predict_window=predict_window,
            shard_timeout=(DEFAULT_SHARD_TIMEOUT if shard_timeout is None
                           else shard_timeout))
    elif detector_kind == "rd2":
        from .core.detector import CommutativityRaceDetector
        detector = CommutativityRaceDetector(root=trace.root, obs=obs,
                                             predict_window=predict_window)
    else:
        from .core.direct import DirectDetector
        detector = DirectDetector(root=trace.root)
    for name, kind in bindings:
        if detector_kind == "rd2":
            detector.register_object(name, registry[kind].representation())
        else:
            detector.register_object(name, registry[kind].spec().commutes)
    detector.run(trace)
    publish_detector_stats(obs, detector.stats)
    hb = getattr(detector, "happens_before", None)
    if hb is not None:
        obs.gauge("hb_threads", len(hb.known_threads()))
        obs.gauge("hb_locks", len(hb.known_locks()))
    if hasattr(detector, "interned_point_count"):
        # Sequential rd2 only: the sharded detector's per-object state
        # lives (and dies) in its workers.
        obs.gauge("active_points", detector.active_point_count())
        obs.gauge("interned_points", detector.interned_point_count())
    races = detector.races
    predicted = (list(detector.predicted) if predict_window else None)
    suffix = f" [{workers} workers]" if workers > 1 else ""
    with obs.span("report"):
        print(f"{detector_kind}{suffix}: {tally(races)} "
              f"commutativity race report(s)")
        for group in group_races(races):
            print(f"  {group}")
        if predicted is not None:
            print(f"{detector_kind}{suffix}: {len(predicted)} predicted "
                  f"race(s) in sound reorderings")
            for prediction in predicted:
                print(f"  {prediction}")
    fault_log = getattr(detector, "faults", None)
    faults = fault_log.snapshot() if fault_log else None
    code = EXIT_REPORTS if (races or predicted) else EXIT_CLEAN
    return code, faults, predicted


def _analyze_follow(path: str, bindings, obs=NULL_REGISTRY,
                    prune_interval: int = 0, window: int = 1024,
                    idle_timeout: float = 10.0,
                    stats_json: Optional[str] = None,
                    meta_base: Optional[Dict[str, Any]] = None,
                    poll_interval: float = 0.05,
                    predict_window: int = 0,
                    ) -> Tuple[int, int, Optional[List[Any]]]:
    """Stream a trace that may still be growing; returns (code, events).

    Races print the moment phase 1 reports them (the whole point of
    following a live trace), and every maintenance window rewrites the
    ``--stats-json`` snapshot so an operator can watch the memory gauges
    of a run that never ends.  The snapshot is built from a throwaway
    merged registry — publishing cumulative detector counters into ``obs``
    every window would double-count them.
    """
    from .core.serialize import TailReader
    from .core.stream import StreamAnalyzer, follow_analyze
    registry = bundled_objects()
    if not bindings:
        _fail("commutativity analysis needs at least one --object NAME=KIND",
              EXIT_USAGE)

    def on_race(race) -> None:
        print(f"race: {race}", flush=True)

    def snapshot(analyzer: "StreamAnalyzer") -> None:
        if not stats_json:
            return
        merged = Registry(sample_interval=1)
        merged.absorb(obs)
        publish_detector_stats(merged, analyzer.stats)
        meta = dict(meta_base or {})
        meta["events"] = analyzer.events_processed
        meta["windows"] = analyzer.windows_completed
        predicted = analyzer.predicted if predict_window else None
        save_report(build_report(merged, meta=meta, predicted=predicted),
                    stats_json)

    def build(root) -> "StreamAnalyzer":
        analyzer = StreamAnalyzer(root=root, on_race=on_race,
                                  prune_interval=prune_interval,
                                  window=window, obs=obs,
                                  on_window=snapshot,
                                  predict_window=predict_window)
        for name, kind in bindings:
            analyzer.register_object(name, registry[kind].representation())
        return analyzer

    try:
        # The reader carries the obs handle so frame-cap violations are
        # counted (stream_frame_errors) before the error surfaces.
        reader = TailReader(path, obs=obs)
        analyzer, status = follow_analyze(path, build,
                                          poll_interval=poll_interval,
                                          idle_timeout=idle_timeout,
                                          reader=reader)
    except (ReproError, ValueError) as exc:
        _fail(f"invalid trace file {path!r}: {exc}", EXIT_DATA)
    if analyzer is None:
        _fail(f"cannot read trace {path!r}: no complete header after "
              f"{idle_timeout:g}s", EXIT_DATA)
    if not status.complete:
        declared = ("?" if status.declared_events is None
                    else status.declared_events)
        print(f"repro-analyze: follow: no new events for {idle_timeout:g}s; "
              f"trace incomplete ({status.events_read} of {declared} "
              f"events)", file=sys.stderr)
    if meta_base is not None:
        # Keep the final report on the follow-mode snapshot schema: the
        # periodic snapshots carry a "windows" count, and so must the
        # closing rewrite (an idle timeout inside a maintenance window
        # still flushed that window via finish()).
        meta_base["windows"] = analyzer.windows_completed
    publish_detector_stats(obs, analyzer.stats)
    hb = analyzer.detector.happens_before
    obs.gauge("hb_threads", len(hb.known_threads()))
    obs.gauge("hb_locks", len(hb.known_locks()))
    races = analyzer.races
    predicted = (list(analyzer.predicted) if predict_window else None)
    with obs.span("report"):
        print(f"rd2 [follow]: {tally(races)} commutativity race report(s)")
        for group in group_races(races):
            print(f"  {group}")
        if predicted is not None:
            print(f"rd2 [follow]: {len(predicted)} predicted race(s) in "
                  f"sound reorderings")
            for prediction in predicted:
                print(f"  {prediction}")
    code = EXIT_REPORTS if (races or predicted) else EXIT_CLEAN
    return code, status.events_read, predicted


def _analyze_memory(trace, detector_kind: str, obs=NULL_REGISTRY,
                    ) -> Tuple[int, Optional[Dict[str, Any]]]:
    if detector_kind == "fasttrack":
        from .baselines.fasttrack import FastTrack
        detector = FastTrack(root=trace.root, obs=obs)
        detector.run(trace)
        reports = detector.races
    else:
        from .baselines.eraser import Eraser
        detector = Eraser(root=trace.root, obs=obs)
        detector.run(trace)
        reports = detector.warnings
    with obs.span("report"):
        print(f"{detector_kind}: {tally(reports)} report(s)")
        for group in group_races(reports):
            print(f"  {group}")
    return (EXIT_REPORTS if reports else EXIT_CLEAN), None


def _analyze_atomicity(trace, bindings, obs=NULL_REGISTRY,
                       ) -> Tuple[int, Optional[Dict[str, Any]]]:
    from .atomicity import AtomicityChecker, ConflictMode
    registry = bundled_objects()
    checker = AtomicityChecker(ConflictMode.COMMUTATIVITY)
    for name, kind in bindings:
        checker.register_object(name, registry[kind].representation())
    with obs.span("check"):
        report = checker.analyze(trace)
    obs.add("transactions", len(report.transactions))
    obs.add("conflict_edges", report.conflict_edges)
    obs.add("violations", len(report.violations))
    with obs.span("report"):
        print(f"atomicity: {len(report.transactions)} transactions, "
              f"{report.conflict_edges} conflict edges, "
              f"{len(report.violations)} violation(s)")
        for violation in report.violations:
            print(f"  {violation}")
    return (EXIT_REPORTS if report.violations else EXIT_CLEAN), None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _Parser(
        prog="repro-analyze",
        description="Analyze a saved trace (JSONL) for commutativity "
                    "races, read/write races, or atomicity violations.",
        epilog=_EXIT_CODE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", nargs="?",
                        help="path to a trace written by dump_trace()")
    parser.add_argument("--object", action="append", default=[],
                        metavar="NAME=KIND", dest="objects",
                        help="bind a shared object to a bundled spec kind")
    parser.add_argument("--detector", default="rd2",
                        choices=("rd2", "direct", "fasttrack", "eraser"),
                        help="which analysis to run (default rd2)")
    parser.add_argument("--workers", default="1", metavar="N",
                        help="fan the rd2 per-object race checks out to N "
                             "worker processes (two-phase sharded pipeline, "
                             "one pickled payload per shard; default "
                             "1 = sequential)")
    parser.add_argument("--shard-timeout", default=None, metavar="SECONDS",
                        help="seconds the shard workers of a --workers N "
                             "run (N >= 2) have to answer; a shard whose "
                             "worker fails or stays silent is replayed "
                             "in-process (default 120)")
    parser.add_argument("--prune-interval", default=None, metavar="N",
                        dest="prune_interval",
                        help="--follow: every N actions, reclaim active "
                             "points (and their interned entries) ordered "
                             "before every live thread — bounds memory by "
                             "the concurrent footprint (verdict-preserving)")
    parser.add_argument("--predict", nargs="?", const="256", default=None,
                        metavar="WINDOW",
                        help="rd2: additionally report *predicted* "
                             "commutativity races — conflicting pairs at "
                             "most WINDOW same-object actions apart "
                             "(default 256) that some sound reordering of "
                             "the trace makes concurrent; each prediction "
                             "ships with a concrete witness reordering, "
                             "validated by replay through the standard "
                             "detector (strictly more races, never "
                             "different ones)")
    parser.add_argument("--follow", action="store_true",
                        help="stream the trace as it is being written: "
                             "analyze incrementally, print races as they "
                             "are found, tolerate a partially written "
                             "tail, stop when the declared event count is "
                             "reached or no data arrives for "
                             "--follow-timeout seconds (rd2, sequential)")
    parser.add_argument("--window", default=None, metavar="N",
                        help="events per --follow maintenance cycle: dead "
                             "threads retire, memory gauges sample and "
                             "--stats-json rewrites (default 1024)")
    parser.add_argument("--follow-timeout", default=None, metavar="SECONDS",
                        dest="follow_timeout",
                        help="give up on --follow after this long without "
                             "a new complete event — a writer killed "
                             "mid-record cannot wedge the reader "
                             "(default 10)")
    parser.add_argument("--atomicity", action="store_true",
                        help="run the atomicity checker instead")
    parser.add_argument("--spec-report", metavar="KIND",
                        help="print the Fig. 6/7-style report of a bundled "
                             "spec and exit")
    parser.add_argument("--stats", action="store_true",
                        help="print the observability table (per-phase "
                             "timings, per-object and per-method-pair "
                             "attribution) to stderr")
    parser.add_argument("--stats-json", metavar="PATH",
                        help="write the structured observability report "
                             "as JSON")
    args = parser.parse_args(argv)

    if args.spec_report:
        registry = bundled_objects()
        if args.spec_report not in registry:
            _fail(f"unknown kind {args.spec_report!r}; "
                  f"available: {sorted(registry)}", EXIT_USAGE)
        from .logic.pretty import spec_report
        print(spec_report(registry[args.spec_report].spec()))
        return EXIT_CLEAN

    if not args.trace:
        _fail("a trace file is required (or use --spec-report)", EXIT_USAGE)

    workers = _parse_workers(args.workers)
    shard_timeout = _parse_timeout("--shard-timeout", args.shard_timeout)
    sharded = workers > 1
    if ((sharded or shard_timeout is not None)
            and (args.detector != "rd2" or args.atomicity)):
        _fail("--workers and --shard-* apply only to the rd2 detector",
              EXIT_USAGE)
    if shard_timeout is not None and not sharded:
        # Without worker processes every shard runs inline, so no timer
        # could ever fire.
        _fail("--shard-timeout requires --workers N with N >= 2",
              EXIT_USAGE)
    prune_interval = _parse_prune_interval(args)
    predict_window = _parse_predict(args)
    if predict_window and (args.detector != "rd2" or args.atomicity):
        _fail("--predict applies only to the rd2 detector", EXIT_USAGE)
    window = _parse_follow_window(args)
    follow_timeout = _parse_timeout("--follow-timeout", args.follow_timeout)
    if args.follow:
        if args.detector != "rd2" or args.atomicity:
            _fail("--follow applies only to the rd2 detector", EXIT_USAGE)
        if sharded:
            _fail("--follow is a sequential streaming mode; it cannot be "
                  "combined with --workers or --shard-*", EXIT_USAGE)
    elif (window is not None or follow_timeout is not None
          or prune_interval):
        # A batch run holds the whole trace in memory before it checks
        # one event, so pruning could not bound it; a followed trace is
        # never held, and pruning is what keeps its state bounded.
        _fail("--window, --follow-timeout and --prune-interval require "
              "--follow", EXIT_USAGE)

    want_obs = args.stats or args.stats_json
    # Offline analysis can afford exact attribution (sample every event);
    # the sampled default only matters for live runtime monitoring.
    obs = Registry(sample_interval=1) if want_obs else NULL_REGISTRY

    mode = "atomicity" if args.atomicity else args.detector
    meta_base = {"detector": mode, "workers": workers,
                 "trace": os.path.basename(args.trace)}
    if predict_window:
        # Conditional, like "faults": witnessed-mode reports stay on the
        # frozen schema byte for byte when --predict is off.
        meta_base["predict_window"] = predict_window
    faults: Optional[Dict[str, Any]] = None
    predicted: Optional[List[Any]] = None
    try:
        bindings = _parse_bindings(args.objects)
        if args.follow:
            code, events_total, predicted = _analyze_follow(
                args.trace, bindings, obs=obs,
                prune_interval=prune_interval,
                window=window if window is not None else 1024,
                idle_timeout=(follow_timeout if follow_timeout is not None
                              else 10.0),
                stats_json=args.stats_json, meta_base=meta_base,
                predict_window=predict_window)
        else:
            with obs.span("load"):
                trace = _load_trace_file(args.trace)
            events_total = len(trace)
            print(f"loaded {len(trace)} events "
                  f"({len(trace.actions())} actions, "
                  f"{len(trace.threads())} threads)")

            if args.atomicity:
                code, faults = _analyze_atomicity(trace, bindings, obs=obs)
            elif args.detector in ("rd2", "direct"):
                code, faults, predicted = _analyze_commutativity(
                    trace, bindings, args.detector, workers=workers, obs=obs,
                    shard_timeout=shard_timeout,
                    predict_window=predict_window)
            else:
                code, faults = _analyze_memory(trace, args.detector, obs=obs)
    except KeyboardInterrupt:
        # The supervisor already tore its worker processes down on the
        # way out (no orphans).
        print("repro-analyze: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except ReproError as exc:
        # A trace that parsed but that analysis cannot interpret (an
        # action the bound kind has no reading for) is an input problem.
        _fail(f"invalid trace file {args.trace!r}: {exc}", EXIT_DATA)

    if faults and faults.get("counts"):
        total = sum(faults["counts"].values())
        summary = ", ".join(f"{kind}×{count}" for kind, count
                            in sorted(faults["counts"].items()))
        print(f"repro-analyze: tolerated {total} fault(s): {summary}",
              file=sys.stderr)

    if want_obs:
        report = build_report(obs, meta=dict(meta_base, events=events_total),
                              faults=faults, predicted=predicted)
        if args.stats_json:
            save_report(report, args.stats_json)
        if args.stats:
            print(render_table(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
