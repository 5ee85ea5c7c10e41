"""Property tests locking down epoch-adaptive point clocks (PR 7).

Three promises, each stated as a hypothesis property over the
contention-adversarial corpus (``tests.support.build_contention_trace`` —
cross-thread argument re-targeting plus tid churn, the epoch machinery's
worst case):

* **Verdict preservation** — inflation and the return to an epoch on
  the next ordered touch never change a report: a streaming analyzer
  that runs a maintenance window every few events is byte-identical to
  the sequential detector.
* **Contention-only inflation** — a point inflates iff a second thread
  touches it *concurrently*.  The O(1) epoch certificate
  (``stamp <= C[tid]``) is checked against an independent reference that
  replays the trace with full ``⊑`` comparisons, so a certificate that
  ever disagreed with the real ordering relation would show up as a
  promotion-count mismatch.
* **Persistence** — epoch state survives pickling mid-run (the sharded
  pipeline's transport), and the copy finishes the run exactly as the
  original does.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import CommutativityRaceDetector
from repro.core.events import EventKind
from repro.core.hb import HappensBeforeTracker
from repro.core.plan import _PointEpoch
from repro.core.stream import StreamAnalyzer
from repro.specs import bundled_objects

from tests.support import (build_contention_trace, build_multi_object_trace,
                           contention_program, race_snapshot,
                           register_bindings)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def adversarial_case(seed):
    return build_contention_trace(contention_program(seed))


def snapshots(races):
    return [race_snapshot(r) for r in races]


class TestVerdictPreservation:
    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_streaming_windows_byte_identical(self, seed):
        """A window every 3 events never perturbs a single report."""
        trace, bindings = adversarial_case(seed)
        sequential = register_bindings(CommutativityRaceDetector(root=0),
                                       bindings)
        sequential.run(trace)
        analyzer = register_bindings(
            StreamAnalyzer(root=0, window=3, prune_interval=2), bindings)
        analyzer.run(trace)
        assert snapshots(analyzer.races) == snapshots(sequential.races)


class TestContentionOnlyInflation:
    @staticmethod
    def reference_promotions(trace, bindings):
        """Replay with full ``⊑`` comparisons instead of certificates.

        The point state machine is the detector's, but ordering is
        decided by ``VectorClock.leq`` on the stored full clock — no
        epoch certificate anywhere.  Equality with the detector's
        ``epoch_promotions`` therefore proves both that inflation fires
        exactly on concurrent cross-thread touches and that the O(1)
        certificate never disagrees with the real ordering relation.
        """
        registry = bundled_objects()
        reps = {name: registry[kind].representation()
                for name, kind in bindings.items()}
        hb = HappensBeforeTracker(root=trace.root)
        # pt -> [owner_tid, clock, inflated]
        points = {}
        promotions = 0
        for event in trace:
            clock = hb.observe(event)
            if event.kind is not EventKind.ACTION:
                continue
            action = event.action
            rep = reps.get(action.obj)
            if rep is None:
                continue
            for pt in rep.points_of(action):
                entry = points.get(pt)
                if entry is None:
                    points[pt] = [event.tid, clock, False]
                elif entry[2]:
                    if entry[1].leq(clock):  # ordered touch: epoch again
                        points[pt] = [event.tid, clock, False]
                    else:
                        entry[1] = entry[1].join(clock)
                elif entry[0] == event.tid or entry[1].leq(clock):
                    points[pt] = [event.tid, clock, False]
                else:
                    promotions += 1
                    points[pt] = [event.tid, entry[1].join(clock), True]
        return promotions

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_promotion_count_matches_full_comparison_reference(self, seed):
        trace, bindings = adversarial_case(seed)
        detector = register_bindings(
            CommutativityRaceDetector(root=0), bindings)
        detector.run(trace)
        assert (detector.stats.epoch_promotions
                == self.reference_promotions(trace, bindings))

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_single_thread_never_promotes(self, seed):
        kinds = contention_program(seed)[0]
        trace, bindings = build_multi_object_trace(
            (kinds, seed, 1, 40, 0.0, False))
        detector = register_bindings(
            CommutativityRaceDetector(root=0), bindings)
        detector.run(trace)
        assert detector.stats.epoch_promotions == 0
        assert detector.stats.races == 0

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_fully_locked_trace_never_promotes(self, seed):
        """lock_rate=1.0 totally orders the actions: no contention."""
        kinds = contention_program(seed)[0]
        trace, bindings = build_multi_object_trace(
            (kinds, seed, 4, 40, 1.0, False))
        detector = register_bindings(
            CommutativityRaceDetector(root=0), bindings)
        detector.run(trace)
        assert detector.stats.epoch_promotions == 0
        assert detector.stats.races == 0


class TestPersistence:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_epoch_state_pickles_mid_run(self, seed):
        """A mid-run detector (epochs and inflated points) pickles, and
        the copy finishes the trace identically."""
        trace, bindings = adversarial_case(seed)
        events = list(trace)
        cut = len(events) // 2
        original = register_bindings(CommutativityRaceDetector(root=0),
                                     bindings)
        for event in events[:cut]:
            original.process(event)
        clone = pickle.loads(pickle.dumps(original))
        for event in events[cut:]:
            original.process(event)
            clone.process(event)
        assert snapshots(clone.races) == snapshots(original.races)
        assert clone.stats == original.stats

    def test_point_epoch_pickles_by_name(self):
        from repro.core.vector_clock import VectorClock
        epoch = _PointEpoch(3, 7, VectorClock({3: 7}))
        clone = pickle.loads(pickle.dumps(epoch))
        assert clone.tid == 3 and clone.stamp == 7
        assert clone.clock == epoch.clock
