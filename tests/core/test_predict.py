"""Predictive commutativity race detection over sound reorderings.

Hand-built traces pin the per-candidate pipeline: which ordered
conflicting pairs become candidates, which closures prove them stuck or
ordered, what the witness looks like, and that every shipped prediction
replays through the standard detector to the very race it reports.
"""

import pytest

from repro.core.detector import CommutativityRaceDetector
from repro.core.errors import MonitorError
from repro.core.events import NIL
from repro.core.parallel import ShardedDetector
from repro.core.predict import Predictor
from repro.core.stream import StreamAnalyzer
from repro.core.trace import TraceBuilder
from repro.specs import bundled_objects

from tests.support import race_snapshot, register_bindings


def dict_rep():
    return bundled_objects()["dictionary"].representation()


def handoff_trace():
    """t0's put is HB-ordered before t1's only via an *empty* lock
    hand-off — a correct reordering runs t1's critical section first,
    making the puts concurrent.  The canonical predictable race."""
    return (TraceBuilder(root=0)
            .fork(0, 1)
            .acquire(0, "L")
            .invoke(0, "o", "put", "k", 1, returns=NIL)
            .release(0, "L")
            .acquire(1, "L")
            .release(1, "L")
            .invoke(1, "o", "put", "k", 2, returns=1)
            .join(0, 1)
            .build())


def chain_trace(c_method, *c_args):
    """a and b are the only actions on o.  On r, t0's read a2 (after a)
    conflicts with t1's action c when c writes, and c with t2's read d
    (before b); a2 and d commute.  So a reaches b along a -> a2 -> c ->
    d -> b, through t1, or not at all when c reads."""
    return (TraceBuilder(root=0)
            .fork(0, 1).fork(0, 2)
            .acquire(0, "L")
            .invoke(0, "o", "put", "k", 1, returns=NIL)      # a   3
            .invoke(0, "r", "read", returns=0)               # a2  4
            .release(0, "L")
            .acquire(1, "L")
            .release(1, "L")
            .invoke(1, "r", c_method, *c_args, returns=0)    # c   8
            .acquire(1, "M")
            .release(1, "M")
            .acquire(2, "M")
            .release(2, "M")
            .invoke(2, "r", "read", returns=1)               # d  13
            .invoke(2, "o", "put", "k", 2, returns=1)        # b  14
            .join(0, 1).join(0, 2)
            .build())


def run_predictive(trace, window=256, bindings=None, **kw):
    """Run ``trace`` with prediction on; ``bindings`` maps object names to
    bundled kinds (default: ``o``, a dictionary)."""
    detector = register_bindings(
        CommutativityRaceDetector(root=0, predict_window=window, **kw),
        bindings or {"o": "dictionary"})
    detector.run(trace)
    return detector


CHAIN_BINDINGS = {"o": "dictionary", "r": "register"}


class TestPrediction:
    def test_lock_handoff_race_is_predicted(self):
        detector = run_predictive(handoff_trace())
        assert detector.races == []          # witnessed-clean
        assert len(detector.predicted) == 1
        prediction = detector.predicted[0]
        assert prediction.pair == (2, 6)
        assert str(prediction).startswith("predicted: ")
        assert detector._predictor.counts == {"predict_candidates": 1,
                                              "predict_validated": 1}

    def test_witness_replays_to_the_same_race(self):
        detector = run_predictive(handoff_trace())
        prediction = detector.predicted[0]
        replay = CommutativityRaceDetector(root=0)
        replay.register_object("o", dict_rep())
        races = replay.run(list(prediction.witness))
        # Byte-identical: the PredictedRace *is* the replay's report.
        assert [race_snapshot(r) for r in races] \
            == [race_snapshot(prediction.race)]

    def test_same_lock_critical_sections_stay_unpredicted(self):
        # Both puts run *inside* critical sections on one lock: mutual
        # exclusion genuinely orders them in every correct reordering,
        # and the witness scheduler proves it by getting stuck.
        trace = (TraceBuilder(root=0)
                 .fork(0, 1)
                 .acquire(0, "L")
                 .invoke(0, "o", "put", "k", 1, returns=NIL)
                 .release(0, "L")
                 .acquire(1, "L")
                 .invoke(1, "o", "put", "k", 2, returns=1)
                 .release(1, "L")
                 .join(0, 1)
                 .build())
        detector = run_predictive(trace)
        assert detector.races == []
        assert detector.predicted == []
        assert detector._predictor.counts == {"predict_candidates": 1,
                                              "predict_dropped_stuck": 1}

    def test_fork_order_stays_unpredicted(self):
        # The put precedes the fork of the thread doing the second put:
        # program order + the fork edge put the first put in the second's
        # dependence closure — ordered in every correct reordering.
        trace = (TraceBuilder(root=0)
                 .invoke(0, "o", "put", "k", 1, returns=NIL)
                 .fork(0, 1)
                 .invoke(1, "o", "put", "k", 2, returns=1)
                 .join(0, 1)
                 .build())
        detector = run_predictive(trace)
        assert detector.races == []
        assert detector.predicted == []
        assert detector._predictor.counts == {"predict_candidates": 1,
                                              "predict_dropped_ordered": 1}

    def test_conflict_chain_through_third_action_orders_the_pair(self):
        # a conflicts with c, c conflicts with b: the a -> c -> b chain
        # survives the direct-edge exclusion, so (a, b) stays ordered.
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .acquire(0, "L")
                 .invoke(0, "o", "put", "k", 1, returns=NIL)   # a
                 .release(0, "L")
                 .acquire(1, "L")
                 .release(1, "L")
                 .invoke(1, "o", "put", "k", 2, returns=1)     # c
                 .acquire(1, "M")
                 .release(1, "M")
                 .acquire(2, "M")
                 .release(2, "M")
                 .invoke(2, "o", "put", "k", 3, returns=2)     # b
                 .join(0, 1).join(0, 2)
                 .build())
        detector = run_predictive(trace)
        assert detector.races == []
        counts = detector._predictor.counts
        # (a, c) and (c, b) are hand-off predictions; (a, b) is ordered
        # through the chain and must NOT be predicted.
        assert counts["predict_candidates"] == 3
        assert counts["predict_dropped_ordered"] == 1
        assert counts["predict_validated"] == 2
        assert [p.pair for p in detector.predicted] == [(3, 7), (7, 12)]

    def test_pair_ordered_only_through_a_third_threads_conflict_chain(self):
        # b's latest predecessor on its own thread, d, has a D-clock that
        # covers a only through t1's write c.
        chained = run_predictive(chain_trace("write", 1),
                                 bindings=CHAIN_BINDINGS)
        assert chained.races == []
        assert chained._predictor.counts == {"predict_candidates": 3,
                                             "predict_dropped_ordered": 1,
                                             "predict_validated": 2}
        assert [p.pair for p in chained.predicted] == [(4, 8), (8, 13)]
        # With c a read, nothing on r conflicts and (a, b) is predicted.
        unchained = run_predictive(chain_trace("read"),
                                   bindings=CHAIN_BINDINGS)
        assert [p.pair for p in unchained.predicted] == [(3, 14)]

    def test_pair_ordered_only_through_a_fork(self):
        # t0 puts, then forks t1, which forks t2, which puts: the only
        # path from a to b runs through two fork edges, none of them on
        # b's thread.
        trace = (TraceBuilder(root=0)
                 .invoke(0, "o", "put", "k", 1, returns=NIL)   # a
                 .fork(0, 1)
                 .fork(1, 2)
                 .invoke(2, "o", "put", "k", 2, returns=1)     # b
                 .join(1, 2).join(0, 1)
                 .build())
        detector = run_predictive(trace)
        assert detector.races == []
        assert detector.predicted == []
        assert detector._predictor.counts == {"predict_candidates": 1,
                                              "predict_dropped_ordered": 1}

    def test_pair_linked_only_by_the_chain_anchor(self):
        # On p, t0's get x (after a) and t1's get z (before b) commute,
        # so nothing orders a before b — unless the window is so narrow
        # that get z's scan stops short of get x: then the chain anchor
        # links them, and the anchor alone orders the pair.
        trace = (TraceBuilder(root=0)
                 .fork(0, 1)
                 .acquire(0, "L")
                 .invoke(0, "o", "put", "k", 1, returns=NIL)   # a
                 .invoke(0, "p", "get", "x", returns=NIL)
                 .invoke(0, "p", "get", "y", returns=NIL)
                 .invoke(0, "p", "get", "y", returns=NIL)
                 .release(0, "L")
                 .acquire(1, "L")
                 .release(1, "L")
                 .invoke(1, "p", "get", "z", returns=NIL)
                 .invoke(1, "o", "put", "k", 2, returns=1)     # b
                 .join(0, 1)
                 .build())
        bindings = {"o": "dictionary", "p": "dictionary"}
        narrow = run_predictive(trace, window=2, bindings=bindings)
        assert narrow.predicted == []
        assert narrow._predictor.counts == {"predict_candidates": 1,
                                            "predict_dropped_ordered": 1}
        wide = run_predictive(trace, window=256, bindings=bindings)
        assert [p.pair for p in wide.predicted] == [(2, 10)]

    def test_single_thread_has_no_candidates(self):
        trace = (TraceBuilder(root=0)
                 .invoke(0, "o", "put", "k", 1, returns=NIL)
                 .invoke(0, "o", "put", "k", 2, returns=1)
                 .build())
        detector = run_predictive(trace)
        assert detector.predicted == []
        assert detector._predictor.counts == {}

    def test_witnessed_races_are_not_candidates(self):
        # Unordered conflicting pairs are the witnessed detector's
        # territory; prediction must not double-report them.
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .invoke(1, "o", "put", "k", 1, returns=NIL)
                 .invoke(2, "o", "put", "k", 2, returns=1)
                 .join(0, 1).join(0, 2)
                 .build())
        detector = run_predictive(trace)
        assert len(detector.races) == 1
        assert detector.predicted == []
        assert detector._predictor.counts == {}

    def test_window_bounds_the_candidate_scan(self):
        # With window=1 only adjacent same-object actions pair up; the
        # intervening commuting gets push the conflicting puts out of
        # each other's scan window, so nothing is predicted — and the
        # chain anchor keeps the closure sound rather than crashing.
        builder = (TraceBuilder(root=0)
                   .fork(0, 1)
                   .acquire(0, "L")
                   .invoke(0, "o", "put", "k", 1, returns=NIL)
                   .release(0, "L"))
        for _ in range(3):
            builder.invoke(0, "o", "get", "other", returns=NIL)
        trace = (builder
                 .acquire(1, "L")
                 .release(1, "L")
                 .invoke(1, "o", "put", "k", 2, returns=1)
                 .join(0, 1)
                 .build())
        narrow = run_predictive(trace, window=1)
        assert narrow.predicted == []
        wide = run_predictive(trace, window=256)
        assert len(wide.predicted) == 1

    def test_predict_window_validation(self):
        with pytest.raises(MonitorError):
            CommutativityRaceDetector(predict_window=-1)
        with pytest.raises(MonitorError):
            ShardedDetector(predict_window=-1)
        detector = CommutativityRaceDetector()    # prediction off
        with pytest.raises(MonitorError):
            detector.predict()

    def test_predictor_rejects_unstamped_events(self):
        predictor = Predictor({"o": dict_rep()}, window=4)
        unstamped = handoff_trace()
        for event in unstamped:
            event.clock = None
        from repro.core.errors import ReproError
        with pytest.raises(ReproError):
            for event in unstamped:
                predictor.feed(event)


class TestPredictionAcrossEngines:
    def test_sharded_matches_sequential(self):
        sequential = run_predictive(handoff_trace())
        for workers in (1, 2):
            sharded = ShardedDetector(root=0, workers=workers,
                                      predict_window=256)
            sharded.register_object("o", dict_rep())
            sharded.run(handoff_trace())
            assert sharded.races == sequential.races
            assert ([(p.pair, race_snapshot(p.race))
                     for p in sharded.predicted]
                    == [(p.pair, race_snapshot(p.race))
                        for p in sequential.predicted])

    def test_streaming_maintenance_flush_matches_batch(self):
        # Tiny window: prediction flushes at several maintenance
        # boundaries mid-trace, yet must accumulate to exactly the
        # one-shot batch result.
        sequential = run_predictive(handoff_trace())
        analyzer = StreamAnalyzer(root=0, window=2, predict_window=256)
        analyzer.register_object("o", dict_rep())
        analyzer.run(handoff_trace())
        assert analyzer.races == sequential.races
        assert ([(p.pair, race_snapshot(p.race)) for p in analyzer.predicted]
                == [(p.pair, race_snapshot(p.race))
                    for p in sequential.predicted])

    def test_sharded_predict_rejects_checkpointing(self):
        from repro.core.checkpoint import CheckpointConfig
        with pytest.raises(MonitorError):
            ShardedDetector(predict_window=8,
                            checkpoint=CheckpointConfig(path="x"))
        with pytest.raises(MonitorError):
            ShardedDetector(predict_window=8, resume_from="x")

    def test_witnessed_output_unchanged_by_prediction(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .invoke(1, "o", "put", "k", 1, returns=NIL)
                 .invoke(2, "o", "put", "k", 2, returns=1)
                 .join(0, 1).join(0, 2)
                 .build())
        plain = CommutativityRaceDetector(root=0)
        plain.register_object("o", dict_rep())
        plain.run(trace)
        predictive = run_predictive(trace)
        assert [race_snapshot(r) for r in predictive.races] \
            == [race_snapshot(r) for r in plain.races]
        assert predictive.stats.races == plain.stats.races


class TestObsCounters:
    def test_predict_counters_and_timer_published(self):
        from repro.obs import Registry
        obs = Registry(sample_interval=1)
        detector = CommutativityRaceDetector(root=0, predict_window=256,
                                             obs=obs)
        detector.register_object("o", dict_rep())
        detector.run(handoff_trace())
        snap = obs.snapshot()
        assert snap["counters"]["predict_candidates"] == 1
        assert snap["counters"]["predict_validated"] == 1
        assert snap["timers"]["predict"]["count"] >= 1

    def test_counter_totals_across_flushes(self):
        # Candidates queued and resolved over several maintenance
        # windows: each batch publishes its counters once, and the
        # registry's totals equal the predictor's own.
        from repro.obs import Registry
        obs = Registry(sample_interval=1)
        analyzer = register_bindings(
            StreamAnalyzer(root=0, window=4, predict_window=256, obs=obs),
            CHAIN_BINDINGS)
        analyzer.run(chain_trace("write", 1))
        want = {"predict_candidates": 3, "predict_dropped_ordered": 1,
                "predict_validated": 2}
        assert analyzer.detector._predictor.counts == want
        counters = obs.snapshot()["counters"]
        assert {name: counters[name] for name in want} == want
