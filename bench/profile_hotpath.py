#!/usr/bin/env python
"""Profile the detector's per-event hot path over a golden trace.

Replays one frozen trace from ``tests/data`` through the sequential
detector many times under :mod:`cProfile` and prints the top functions by
cumulative time — the view that surfaced the pre-PR-4 costs (per-event
``freeze()`` dict copies, ``points_of`` re-validation, candidate
generators) and that should now show the ENUMERATE loop at the top.

Run:  PYTHONPATH=src python bench/profile_hotpath.py
          [--trace NAME] [--passes N] [--top N]
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import sys

from repro.core.detector import CommutativityRaceDetector
from repro.core.serialize import load_trace
from repro.specs import bundled_objects

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"


def load_case(name: str):
    import json
    expected_path = GOLDEN_DIR / "expected" / f"{name}.json"
    if not expected_path.exists():
        known = sorted(path.stem for path in GOLDEN_DIR.glob("*.jsonl"))
        raise SystemExit(f"unknown golden trace {name!r}; "
                         f"choose from: {', '.join(known)}")
    with open(expected_path, encoding="utf-8") as stream:
        bindings = json.load(stream)["bindings"]
    with open(GOLDEN_DIR / f"{name}.jsonl", encoding="utf-8") as stream:
        trace = load_trace(stream)
    return trace, bindings


def replay(trace, bindings, passes: int) -> None:
    registry = bundled_objects()
    for _ in range(passes):
        detector = CommutativityRaceDetector(root=trace.root,
                                             keep_reports=False)
        for obj, kind in bindings.items():
            detector.register_object(obj, registry[kind].representation())
        detector.run(trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="multi_object_mixed",
                        help="golden trace name under tests/data "
                             "(default: %(default)s)")
    parser.add_argument("--passes", type=int, default=500,
                        help="replays per profile run (default: %(default)s)")
    parser.add_argument("--top", type=int, default=20,
                        help="rows of the cumulative-time table to print")
    args = parser.parse_args(argv)

    trace, bindings = load_case(args.trace)
    print(f"profiling the detector: {args.passes} passes over "
          f"{args.trace!r} ({len(trace)} events)\n")

    profiler = cProfile.Profile()
    profiler.runcall(replay, trace, bindings, args.passes)

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
