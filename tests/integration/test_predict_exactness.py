"""D-clock prediction against the literal reference, candidate by candidate.

``repro.core.predict`` decides whether a candidate pair is ordered, and
which events its witness must include, from D-clocks: one vector
comparison per thread instead of a search over the dependence relation
D.  ``tests.support.ReferencePredictor`` builds D as explicit
predecessor lists and answers the same questions by backward search.
Over the 120-seed corpus, for every candidate the predictor queues, the
two must agree on the outcome (ordered, stuck, unvalidated or
validated), the witness support, the schedule and the witness.
"""

from collections import Counter

import pytest

from repro.core.detector import CommutativityRaceDetector
from repro.core.predict import Predictor
from repro.specs import bundled_objects

from tests.support import (ReferencePredictor, build_multi_object_trace,
                           race_snapshot, random_multi_object_program,
                           register_bindings)

CORPUS_SEEDS = range(120)

#: (threads, ops per thread, predict window): the predictive differential
#: sweep's shape, and a larger one under a narrow, the usual and a wide
#: window (a narrow window exercises the chain anchor).
SHAPES = [(3, 16, 64), (5, 40, 4), (5, 40, 64), (5, 40, 256)]

OUTCOME_COUNTER = {
    "ordered": "predict_dropped_ordered",
    "stuck": "predict_dropped_stuck",
    "unvalidated": "predict_dropped_unvalidated",
    "validated": "predict_validated",
}


def queued_predictor(trace, bindings, window, monkeypatch):
    """The sequential detector's own predictor after the whole trace,
    its candidates still queued (the detector's flush is held back)."""
    held = []

    def hold(predictor):
        held.append(predictor)
        return []

    monkeypatch.setattr(Predictor, "flush", hold)
    detector = register_bindings(
        CommutativityRaceDetector(root=0, predict_window=window), bindings)
    detector.run(trace)
    monkeypatch.undo()
    (predictor,) = held
    return predictor


@pytest.mark.parametrize("threads, ops, window", SHAPES)
def test_every_candidate_matches_the_reference(monkeypatch, threads, ops,
                                               window):
    registry = bundled_objects()
    outcomes = Counter()
    for seed in CORPUS_SEEDS:
        program = random_multi_object_program(seed, max_threads=threads,
                                              max_ops=ops)
        trace, bindings = build_multi_object_trace(program)
        predictor = queued_predictor(trace, bindings, window, monkeypatch)
        reference = ReferencePredictor(
            trace, {name: registry[kind].representation()
                    for name, kind in bindings.items()}, window)
        queued = [(obj, pair) for obj, pairs in predictor._pending.items()
                  for pair in pairs]
        assert sorted(queued) == sorted(reference.candidates), seed
        for obj, pair in queued:
            want = reference.resolve(obj, pair)
            where = (seed, obj, pair)
            counts = {}
            prediction = predictor._try_candidate(obj, pair, counts)
            assert counts == {OUTCOME_COUNTER[want.outcome]: 1}, where
            support = predictor._support(*pair)
            assert support == want.support, where
            if support is not None:
                assert predictor._schedule(support) == want.order, where
            if prediction is not None:
                assert prediction.witness == want.witness, where
                assert (race_snapshot(prediction.race)
                        == race_snapshot(want.race)), where
            outcomes[want.outcome] += 1
    # Every shape reaches each outcome the corpus can produce (a witness
    # fails its replay on no candidate, by construction).
    assert outcomes["ordered"] and outcomes["stuck"] \
        and outcomes["validated"], outcomes
