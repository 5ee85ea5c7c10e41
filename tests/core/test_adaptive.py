"""Epoch-adaptive point clocks (FastTrack's insight applied to points).

The reference is the same detector with every point clock inflated to its
bare vector clock after each event (``tests.support.run_with_plain_clocks``)
— what a full-vector-clock detector stores.
"""

import pytest
from hypothesis import given, settings

from repro.core.detector import CommutativityRaceDetector, Strategy
from repro.core.events import NIL
from repro.core.trace import TraceBuilder
from repro.specs.dictionary import dictionary_representation

from tests.support import (build_trace, race_snapshot,
                           run_with_plain_clocks, trace_programs)


def detectors(representation=dictionary_representation):
    """``(plain, adaptive)``: run ``plain`` with ``run_with_plain_clocks``."""
    plain = CommutativityRaceDetector(root=0)
    plain.register_object("obj", representation())
    adaptive = CommutativityRaceDetector(root=0)
    adaptive.register_object("obj", representation())
    return plain, adaptive


def race_keys(detector):
    return sorted((str(r.current), str(r.point), str(r.prior_point))
                  for r in detector.races)


class TestAdaptiveEquivalence:
    @given(trace_programs())
    @settings(max_examples=60, deadline=None)
    def test_identical_reports_on_random_traces(self, program):
        trace, bundled = build_trace(program)
        plain, adaptive = detectors(bundled.representation)
        run_with_plain_clocks(plain, trace)
        adaptive.run(trace)
        # Byte-identical, clocks included: epochs carry the exact clock
        # a full vector clock would hold.
        assert ([race_snapshot(r) for r in plain.races]
                == [race_snapshot(r) for r in adaptive.races])

    def test_same_thread_touches_stay_epoch(self):
        builder = TraceBuilder(root=0)
        for index in range(5):
            builder.invoke(0, "obj", "put", "k", index,
                           returns=NIL if index == 0 else index - 1)
        _, adaptive = detectors()
        adaptive.run(builder.build())
        assert adaptive.stats.epoch_promotions == 0

    def test_ordered_cross_thread_touch_stays_epoch(self):
        # A second thread, but fork-ordered: the epoch certificate covers
        # the touch, so the point re-stamps as the new thread's epoch
        # instead of inflating — no full vector clock is ever built.
        trace = (TraceBuilder(root=0)
                 .invoke(0, "obj", "put", "k", 1, returns=NIL)
                 .fork(0, 1)
                 .invoke(1, "obj", "put", "k", 2, returns=1)
                 .build())
        _, adaptive = detectors()
        adaptive.run(trace)
        assert adaptive.stats.epoch_promotions == 0
        assert adaptive.races == []  # fork orders the touches

    def test_concurrent_second_thread_promotes(self):
        # Genuine contention — two unordered touches — is exactly when a
        # single-component certificate cannot exist: the point inflates.
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .invoke(1, "obj", "put", "k", 1, returns=NIL)
                 .invoke(2, "obj", "put", "k", 2, returns=1)
                 .build())
        _, adaptive = detectors()
        adaptive.run(trace)
        assert adaptive.stats.epoch_promotions >= 1
        assert len(adaptive.races) == 1

    def test_race_detected_through_epoch(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .invoke(1, "obj", "put", "k", 1, returns=NIL)
                 .invoke(2, "obj", "put", "k", 2, returns=1)
                 .build())
        plain, adaptive = detectors()
        run_with_plain_clocks(plain, trace)
        adaptive.run(trace)
        assert len(adaptive.races) == len(plain.races) == 1

    def test_domination_scenario(self):
        """A touch clock with foreign components (via a lock) must still be
        fully covered by the epoch check."""
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 # thread 2 releases L, thread 1 acquires: t1's clock gains
                 # a t2 component before touching the point.
                 .acquire(2, "L").release(2, "L")
                 .acquire(1, "L")
                 .invoke(1, "obj", "put", "k", 1, returns=NIL)
                 .release(1, "L")
                 # thread 2 reacquires L: ordered after the touch.
                 .acquire(2, "L")
                 .invoke(2, "obj", "put", "k", 2, returns=1)
                 .release(2, "L")
                 .build())
        plain, adaptive = detectors()
        run_with_plain_clocks(plain, trace)
        adaptive.run(trace)
        assert race_keys(plain) == race_keys(adaptive) == []

    def test_promoted_point_keeps_detecting(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2).fork(0, 3)
                 .invoke(1, "obj", "put", "k", 1, returns=NIL)
                 .invoke(2, "obj", "put", "k", 2, returns=1)   # race 1
                 .invoke(3, "obj", "put", "k", 3, returns=2)   # races 2
                 .build())
        plain, adaptive = detectors()
        run_with_plain_clocks(plain, trace)
        adaptive.run(trace)
        assert race_keys(plain) == race_keys(adaptive)
        # One report per (touched point, conflicting active point) pair:
        # put2 vs the accumulated w-point, put3 vs the same — put3 does not
        # re-report per historical event (Algorithm 1 keeps joins, not
        # histories), identically in both modes.
        assert len(adaptive.races) == len(plain.races) == 2

    def test_adaptive_with_pruning(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1)
                 .invoke(1, "obj", "put", "k", 1, returns=NIL)
                 .join(0, 1)
                 .build())
        adaptive = CommutativityRaceDetector(root=0, prune_interval=1)
        adaptive.register_object("obj", dictionary_representation())
        adaptive.run(trace)
        # The join arrives after the last action, so the interval-driven
        # prune has not seen it yet; an explicit prune must now reclaim
        # the epoch-represented points.
        assert adaptive.prune_ordered_points() > 0
        assert adaptive.active_point_count() == 0

    @given(trace_programs(kinds=("dictionary", "queue", "set")))
    @settings(max_examples=30, deadline=None)
    def test_adaptive_plus_pruning_still_equivalent(self, program):
        """The two optimizations compose without changing verdicts."""
        trace, bundled = build_trace(program)
        plain, _ = detectors(bundled.representation)
        optimized = CommutativityRaceDetector(root=0, prune_interval=1)
        optimized.register_object("obj", bundled.representation())
        run_with_plain_clocks(plain, trace)
        optimized.run(trace)
        assert race_keys(plain) == race_keys(optimized)

    def test_scan_strategy_also_adaptive(self):
        from repro.core.access_points import NaiveRepresentation
        from repro.specs.dictionary import dictionary_spec
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .invoke(1, "obj", "put", "k", 1, returns=NIL)
                 .invoke(2, "obj", "put", "k", 2, returns=1)
                 .build())
        detector = CommutativityRaceDetector(root=0, strategy=Strategy.SCAN)
        detector.register_object(
            "obj", NaiveRepresentation("dictionary",
                                       dictionary_spec().commutes))
        assert len(detector.run(trace)) == 1
