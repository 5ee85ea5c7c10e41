"""CI gates on stamping speed, streaming memory and prediction cost.

Each gate fails the suite on a breach of a fixed bound.  Timed gates
use the ``interleaved_best`` discipline (a warm-up pair, then the two
sides alternate and the minima are compared) and re-measure once with
twice the rounds before a breach sticks, so one scheduler spike cannot
fail CI:

* ``test_cow_stamping_speedup`` — Phase-A copy-on-write stamping runs
  at least **1.5×** the seed's advance-then-copy stamp on 100k events
  over 16 threads (Section 5.4's per-event cost).
* ``test_streaming_memory_bound`` — a pruning ``StreamAnalyzer``'s peak
  active + interned point count stays under **10 %** of the unpruned
  footprint on a 200k-event fork/join-phased trace, with race counts
  equal to the batch detector's (Section 5.3's active-point bound).
* ``test_prediction_overhead`` — ``predict_window=64`` over the golden
  corpus costs under **2×** the witnessed-only replay, with witnessed
  verdicts identical.

The observability budget (≤ 5 %) is the fourth gate; it lives in
``test_overhead.py::test_obs_overhead_within_budget``.

Run:  PYTHONPATH=src python -m pytest benchmarks/test_gates.py -q
"""

import contextlib
import json
import pathlib
import random
import time

from repro.core.detector import CommutativityRaceDetector
from repro.core.events import NIL
from repro.core.hb import HappensBeforeTracker
from repro.core.serialize import load_trace
from repro.core.stream import StreamAnalyzer
from repro.core.trace import TraceBuilder
from repro.core.vector_clock import MutableVectorClock, VectorClock
from repro.specs import bundled_objects
from repro.specs.dictionary import dictionary_representation

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"


def _register_dictionaries(detector, objects: int):
    for index in range(objects):
        detector.register_object(f"d{index}", dictionary_representation())
    return detector


# -- copy-on-write stamping ---------------------------------------------------


def _seed_stamp_next(self, tid):
    """The seed's per-event stamp: advance, then copy the whole dict.

    Patched over ``MutableVectorClock.stamp_next`` for the baseline side.
    Dropping the copy-on-write base keeps the other operations'
    bookkeeping (fork/join/acquire/release still run the real code)
    consistent, so the stamps are unchanged.
    """
    entries = self._entries
    entries[tid] = entries.get(tid, 0) + 1
    if self._base is not None:
        self._invalidate()
    return VectorClock._trusted(dict(entries))


@contextlib.contextmanager
def _seed_stamping():
    saved = MutableVectorClock.stamp_next
    MutableVectorClock.stamp_next = _seed_stamp_next
    try:
        yield
    finally:
        MutableVectorClock.stamp_next = saved


def test_cow_stamping_speedup(synthetic_trace, interleaved_best):
    """Phase A alone (the happens-before pass the sharded pipeline runs
    sequentially): copy-on-write must be >= 1.5x the copying stamp.
    The seed's stamp copies O(threads) per event, so 16 threads."""
    trace = synthetic_trace(100_000, objects=4, threads=16, seed=0)

    def observe_all():
        tracker = HappensBeforeTracker(root=trace.root)
        start = time.perf_counter()
        for event in trace:
            tracker.observe(event)
        return time.perf_counter() - start

    def observe_all_seed():
        with _seed_stamping():
            return observe_all()

    def speedup(rounds):
        cow, seed = interleaved_best(observe_all, observe_all_seed, rounds)
        return seed / cow

    ratio = speedup(3)
    if ratio < 1.5:
        ratio = speedup(6)
    assert ratio >= 1.5, (
        f"copy-on-write stamping is {ratio:.2f}x the copying stamp, "
        f"floor is 1.5x")


# -- streaming memory -----------------------------------------------------------


def _phased_trace(events: int, objects: int = 8, threads: int = 8,
                  phases: int = 20, seed: int = 0, keys: int = 16):
    """Fork/churn/join-all phases, with fresh tids and keys every time.

    Each phase forks ``threads`` new tids, churns put/get/size over the
    shared objects with phase-scoped keys, then joins everything back
    into the root.  Once a phase's threads are joined, all of its access
    points are ordered before every live thread, so a pruning analyzer's
    footprint is one phase, while an unpruned one accumulates all of
    them: dead points, dead threads' clocks, and one interned
    ``(schema, value)`` entry per phase-scoped key it ever saw.
    """
    rng = random.Random(seed)
    builder = TraceBuilder(root=0)
    churn = max(1, events // phases - 2 * threads)
    next_tid = 1
    emitted = 0
    phase = 0
    while emitted < events:
        tids = list(range(next_tid, next_tid + threads))
        next_tid += threads
        for tid in tids:
            builder.fork(0, tid)
        shadow = [dict() for _ in range(objects)]
        for _ in range(min(churn, max(1, events - emitted - 2 * threads))):
            tid = rng.choice(tids)
            index = rng.randrange(objects)
            obj = f"d{index}"
            key = f"p{phase}k{rng.randrange(keys)}"
            roll = rng.random()
            if roll < 0.6:
                value = rng.randrange(8)
                prev = shadow[index].get(key, NIL)
                shadow[index][key] = value
                builder.invoke(tid, obj, "put", key, value, returns=prev)
            elif roll < 0.9:
                builder.invoke(tid, obj, "get", key,
                               returns=shadow[index].get(key, NIL))
            else:
                size = sum(1 for v in shadow[index].values() if v is not NIL)
                builder.invoke(tid, obj, "size", returns=size)
        for tid in tids:
            builder.join(0, tid)
        emitted += 2 * threads + churn
        phase += 1
    return builder.build(stamp=False)


def test_streaming_memory_bound():
    """Streaming peak footprint < 10% of the unpruned final footprint.

    The streaming peak is active + interned points, sampled at every
    maintenance window.  Race counts are asserted equal first, so the
    gate cannot pass by dropping work.
    """
    trace = _phased_trace(200_000, objects=8, threads=8, phases=20, seed=0)
    baseline = _register_dictionaries(
        CommutativityRaceDetector(root=0, keep_reports=False), 8)
    baseline.run(trace)
    unpruned = (baseline.active_point_count()
                + baseline.interned_point_count())

    analyzer = _register_dictionaries(
        StreamAnalyzer(root=0, keep_reports=False, prune_interval=256,
                       window=512), 8)
    analyzer.run(trace)
    assert analyzer.stats.races == baseline.stats.races

    peak = analyzer.peak_active + analyzer.peak_interned
    assert peak < 0.10 * unpruned, (
        f"streaming peak {peak} points is {peak / unpruned:.1%} of the "
        f"unpruned {unpruned}, budget is 10%")


# -- prediction overhead ----------------------------------------------------------

#: Replays of the whole golden corpus per timed sample.  Enough that each
#: side's best-of total is over 0.2 s, far above the timer's resolution
#: and a scheduler tick.
PREDICT_PASSES = 300


def test_prediction_overhead(interleaved_best):
    """Prediction (window 64) under 2x witnessed-only on the golden
    corpus.  Witnessed verdicts are asserted identical first: prediction
    only adds reports, so the gate cannot pass by dropping work."""
    registry = bundled_objects()
    cases = []
    for path in sorted(GOLDEN_DIR.glob("*.jsonl")):
        expected = GOLDEN_DIR / "expected" / f"{path.stem}.json"
        with open(expected, encoding="utf-8") as stream:
            bindings = json.load(stream)["bindings"]
        with open(path, encoding="utf-8") as stream:
            cases.append((load_trace(stream), bindings))
    assert cases, f"no golden traces under {GOLDEN_DIR}"

    def replay_all(window, passes):
        verdicts = []
        total = 0.0
        for _ in range(passes):
            verdicts.clear()
            for trace, bindings in cases:
                detector = CommutativityRaceDetector(
                    root=trace.root, predict_window=window)
                for obj, kind in bindings.items():
                    detector.register_object(
                        obj, registry[kind].representation())
                start = time.perf_counter()
                detector.run(trace)
                total += time.perf_counter() - start
                verdicts.append((detector.stats.races,
                                 detector.stats.conflict_checks))
        return total, verdicts

    assert replay_all(64, 1)[1] == replay_all(0, 1)[1]

    def ratio(rounds):
        plain, predict = interleaved_best(
            lambda: replay_all(0, PREDICT_PASSES)[0],
            lambda: replay_all(64, PREDICT_PASSES)[0], rounds)
        return predict / plain

    overhead = ratio(5)
    if overhead >= 2.0:
        overhead = ratio(10)
    assert overhead < 2.0, (
        f"prediction costs {overhead:.2f}x witnessed-only, budget is 2x")
