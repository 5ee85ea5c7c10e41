"""One traced pass over a workload's inputs, in a fresh interpreter.

``run.py`` starts this program; nothing in the program under test imports
it.  It calls the program's public functions in the order ``repro-analyze``
(``repro/cli.py``) calls them for the workload's flags, or the order the
daemon's per-tenant session calls them for a served stream, and wraps a
span (name, start, end, parent) around each call.  Spans stay in memory
and are written out with the counters the program already publishes
(``DetectorStats``, the ``repro.obs`` registry) when the pass ends.

``--mode ref`` runs the same pass and then the literal references: the
set of flagged actions must equal :class:`repro.core.direct.DirectDetector`'s
(Theorem 5.1 at the level of events) and each predicted race's witness,
replayed through ``DirectDetector``, must contain that race.

Usage::

    python3 perfbench/layers.py --dir DIR --mode trace|ref --out OUT.json
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import gen  # noqa: E402

#: The daemon's per-tenant analyzer settings (``repro-serve`` defaults).
SERVE_PRUNE_INTERVAL = 256
SERVE_WINDOW = 1024

MB = float(1 << 20)


class Spans:
    """In-memory span recorder: (name, start, end, parent) per call."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._open: List[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.records.append({"name": name, "start": start, "end": end,
                                 "parent": parent})


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _flagged(races, index_of) -> List[int]:
    """Trace indices of the actions a detector flagged."""
    return sorted({index_of[(race.current_tid,
                             race.current_clock[race.current_tid])]
                   for race in races})


def _action_index(events) -> Dict[tuple, int]:
    """``(tid, own clock component) -> position``; unique per action."""
    from repro.core.events import EventKind
    return {(event.tid, event.clock[event.tid]): position
            for position, event in enumerate(events)
            if event.kind is EventKind.ACTION}


def _fresh(event):
    from repro.core.events import Event
    return Event(kind=event.kind, tid=event.tid, action=event.action,
                 peer=event.peer, lock=event.lock, location=event.location)


def direct_flagged(events, root, bindings, can_race) -> List[int]:
    """Positions ``DirectDetector`` flags, run on a projection.

    The projection keeps every non-action event and the actions
    ``can_race`` accepts; dropping actions that cannot race changes no
    happens-before order among the rest, so the flagged set is the one
    the full trace gives.
    """
    from repro.core.direct import DirectDetector
    from repro.core.events import EventKind
    from repro.specs import bundled_objects
    registry = bundled_objects()
    kept = [position for position, event in enumerate(events)
            if event.kind is not EventKind.ACTION or can_race(event.action)]
    projected = [_fresh(events[position]) for position in kept]
    detector = DirectDetector(root=root)
    for name, kind in bindings.items():
        detector.register_object(name, registry[kind].spec().commutes)
    detector.run(projected)
    index_of = _action_index(projected)
    return sorted(kept[position]
                  for position in _flagged(detector.races, index_of))


def witness_check(predicted, root, bindings) -> List[str]:
    """Replay each witness through ``DirectDetector``; list the misses."""
    from repro.core.direct import DirectDetector
    from repro.specs import bundled_objects
    registry = bundled_objects()
    misses = []
    for prediction in predicted:
        obj = prediction.race.obj
        detector = DirectDetector(root=root)
        detector.register_object(obj, registry[bindings[obj]].spec().commutes)
        witness = [_fresh(event) for event in prediction.witness]
        detector.run(witness)
        first, second = witness[-2], witness[-1]
        if not any(race.current == second.action
                   and race.current_tid == second.tid
                   and race.prior == first.action
                   and race.prior_tid == first.tid
                   for race in detector.races):
            misses.append(f"witness of pair {list(prediction.pair)} does "
                          f"not race under DirectDetector")
    return misses


def offline(manifest: dict, directory: str, spans: Spans, mode: str) -> dict:
    """``repro-analyze TRACE --object ... FLAGS`` as public calls."""
    flags = manifest["cli_flags"]
    workers = (int(flags[flags.index("--workers") + 1])
               if "--workers" in flags else 1)
    # ``--predict`` without a value means a window of 256 in repro-analyze.
    predict_window = 256 if "--predict" in flags else 0
    with spans.span("cli.import"):
        import repro.cli  # noqa: F401
        from repro.core.races import group_races, tally
        from repro.core.serialize import load_trace
        from repro.obs import Registry
        from repro.specs import bundled_objects
        if workers > 1:
            from repro.core.parallel import ShardedDetector
        else:
            from repro.core.detector import CommutativityRaceDetector
    with spans.span("cli.args"):
        registry = bundled_objects()
        bindings = list(manifest["bindings"].items())
    path = os.path.join(directory, manifest["files"][0])
    with spans.span("serialize.parse"):
        with open(path, "r", encoding="utf-8") as stream:
            trace = load_trace(stream, stamp=False)
    with spans.span("hb.load_stamp"):
        trace.stamp()
    with spans.span("cli.loaded"):
        loaded = (f"loaded {len(trace)} events ({len(trace.actions())} "
                  f"actions, {len(trace.threads())} threads)")
        print(loaded)
    obs = Registry()
    counters: Dict[str, float] = {
        "serialize.events": len(trace),
        "serialize.input_mb": os.path.getsize(path) / MB,
    }
    with spans.span("detector.register"):
        if workers > 1:
            # "pickle" is repro-analyze's --backend default.
            detector = ShardedDetector(root=trace.root, workers=workers,
                                       obs=obs, backend="pickle",
                                       predict_window=predict_window)
        else:
            detector = CommutativityRaceDetector(
                root=trace.root, obs=obs, predict_window=predict_window)
        for name, kind in bindings:
            detector.register_object(name, registry[kind].representation())
    if workers > 1:
        parent_cpu, child_cpu = (_cpu(resource.RUSAGE_SELF),
                                 _cpu(resource.RUSAGE_CHILDREN))
        with spans.span("parallel.run"):
            detector.run(trace)
        counters["parallel.parent_cpu_s"] = (_cpu(resource.RUSAGE_SELF)
                                             - parent_cpu)
        counters["parallel.worker_cpu_s"] = (_cpu(resource.RUSAGE_CHILDREN)
                                             - child_cpu)
    else:
        happens_before = detector.happens_before
        with spans.span("hb.run_stamp"):
            observe = happens_before.observe
            for event in trace:
                observe(event)
        with spans.span("detector.check"):
            process = detector.process_stamped
            for event in trace:
                process(event)
            detector.flush_batch()
        if predict_window:
            with spans.span("predict.run"):
                detector.predict()
    races = detector.races
    predicted = list(detector.predicted) if predict_window else None
    suffix = f" [{workers} workers]" if workers > 1 else ""
    with spans.span("races.report"):
        lines = [f"rd2{suffix}: {tally(races)} commutativity race report(s)"]
        for group in group_races(races):
            lines.append(f"  {group}")
        if predicted is not None:
            lines.append(f"rd2{suffix}: {len(predicted)} predicted race(s) "
                         f"in sound reorderings")
            for prediction in predicted:
                lines.append(f"  {prediction}")
        print("\n".join(lines))
    end = time.perf_counter()

    hb = detector.happens_before
    stats = detector.stats
    snapshot = obs.snapshot()
    timers = snapshot["timers"]
    obs_counters = snapshot["counters"]

    def timer_s(name: str) -> float:
        return timers.get(name, {}).get("total_ns", 0) / 1e9

    counters.update({
        "hb.threads": len(hb.known_threads()),
        "hb.locks": len(hb.known_locks()),
        "detector.actions": stats.actions,
        "detector.conflict_checks": stats.conflict_checks,
        "detector.checks_per_action": stats.checks_per_action(),
        "detector.races": stats.races,
        "detector.epoch_promotions": stats.epoch_promotions,
        "races.lines": len(lines),
        "predict.candidates": obs_counters.get("predict_candidates", 0),
        "predict.dropped_ordered": obs_counters.get(
            "predict_dropped_ordered", 0),
        "predict.validated": obs_counters.get("predict_validated", 0),
    })
    if workers > 1:
        # Phase A is the run-time stamping pass; the shard workers' exact
        # per-shard replay spans are the child-side check.
        counters.update({
            "parallel.stamp_s": timer_s("stamp"),
            "parallel.fanout_s": timer_s("fanout"),
            "parallel.merge_s": timer_s("merge"),
            "parallel.ipc_mb": (obs_counters.get("ipc_bytes_pickled", 0)
                                + obs_counters.get("shm_bytes_written", 0))
            / MB,
            "parallel.shard_retries": obs_counters.get("shard_retries", 0),
            "hb.run_stamp_s": timer_s("stamp"),
            "detector.check_s": timer_s("shard"),
        })
    events = list(trace)
    flagged = _flagged(races, _action_index(events))
    result = {"stdout": [loaded] + lines, "end": end, "counters": counters,
              "exit_code": 1 if (races or predicted) else 0,
              "flagged": flagged}
    if mode == "ref":
        shape = manifest["shape"]
        reference = direct_flagged(events, trace.root, manifest["bindings"],
                                   lambda action: gen.may_race(shape,
                                                               action.args))
        problems = []
        if flagged != reference:
            problems.append(
                f"flagged actions differ from DirectDetector's: "
                f"{len(flagged)} vs {len(reference)}; first difference at "
                f"{sorted(set(flagged) ^ set(reference))[:5]}")
        if predicted:
            problems += witness_check(predicted, trace.root,
                                      manifest["bindings"])
        result["reference"] = {"direct_flagged": reference,
                               "problems": problems}
    return result


def served(manifest: dict, directory: str, spans: Spans, mode: str) -> dict:
    """Each pool stream as the daemon's tenant session analyzes it."""
    with spans.span("cli.import"):
        import repro.service.cli  # noqa: F401
        from repro.core.races import group_races
        from repro.core.serialize import loads_trace
        from repro.core.stream import StreamAnalyzer
        # What the daemon imports before it serves.
        from repro.service.server import DetectionServer  # noqa: F401
        from repro.specs import bundled_objects
    registry = bundled_objects()
    bindings = manifest["bindings"]
    counters: Dict[str, float] = {"serialize.events": 0,
                                  "serialize.input_mb": 0.0,
                                  "stream.windows": 0,
                                  "stream.points_pruned": 0,
                                  "detector.actions": 0,
                                  "detector.conflict_checks": 0,
                                  "detector.races": 0,
                                  "detector.epoch_promotions": 0,
                                  "races.lines": 0}
    expected = []
    flagged: List[List[int]] = []
    direct: List[List[int]] = []
    problems: List[str] = []
    for name in manifest["files"]:
        path = os.path.join(directory, name)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        with spans.span("serialize.parse"):
            trace = loads_trace(text, stamp=False)
        with spans.span("stream.analyze"):
            analyzer = StreamAnalyzer(root=trace.root,
                                      prune_interval=SERVE_PRUNE_INTERVAL,
                                      window=SERVE_WINDOW)
            for obj, kind in bindings.items():
                analyzer.register_object(obj, registry[kind].representation())
            for event in trace:
                analyzer.process(event)
            analyzer.finish()
        with spans.span("races.report"):
            lines = [str(group) for group in group_races(analyzer.races)]
        expected.append({"done": len(analyzer.races),
                         "races": lines or ["(no races)"]})
        stats = analyzer.stats
        counters["serialize.events"] += len(trace)
        counters["serialize.input_mb"] += len(text.encode("utf-8")) / MB
        counters["stream.windows"] += analyzer.windows_completed
        counters["stream.points_pruned"] += stats.points_pruned
        counters["detector.actions"] += stats.actions
        counters["detector.conflict_checks"] += stats.conflict_checks
        counters["detector.races"] += stats.races
        counters["detector.epoch_promotions"] += stats.epoch_promotions
        counters["races.lines"] += len(lines)
        events = list(trace)
        flagged.append(_flagged(analyzer.races, _action_index(events)))
        if mode == "ref":
            direct.append(direct_flagged(events, trace.root, bindings,
                                         lambda action: True))
            if flagged[-1] != direct[-1]:
                problems.append(
                    f"{name}: flagged actions differ from DirectDetector's: "
                    f"{len(flagged[-1])} vs {len(direct[-1])}")
    end = time.perf_counter()
    actions = counters["detector.actions"]
    counters["detector.checks_per_action"] = (
        counters["detector.conflict_checks"] / actions if actions else 0.0)
    result = {"expected": expected, "end": end, "counters": counters,
              "flagged": flagged}
    if mode == "ref":
        result["reference"] = {"direct_flagged": direct,
                               "problems": problems}
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--mode", choices=("trace", "ref"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.dir, "manifest.json"),
              encoding="utf-8") as handle:
        manifest = json.load(handle)
    spans = Spans()
    if manifest["cli_flags"] is None:
        result = served(manifest, args.dir, spans, args.mode)
    else:
        result = offline(manifest, args.dir, spans, args.mode)
    result["start"] = START
    result["spans"] = spans.records
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
