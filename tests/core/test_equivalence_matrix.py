"""Engine × backend equivalence, anchored on the literal detector.

Algorithm 1 exists once — an ENUMERATE loop over compiled plans and a SCAN
loop for everything else — so what varies is the *engine* that drives it:
the sequential detector, the sharded pipeline inline (``workers=1``) or
over two workers on each transport the host offers, and the
streaming analyzer with maintenance windows and pruning.  On the 40-seed
randomized multi-object corpus two checks anchor the matrix:

1. every engine's race reports are byte-identical to the sequential
   engine's — same races, same clocks, same order;
2. the sequential engine flags exactly the events the literal
   :class:`~repro.core.direct.DirectDetector` (Section 5.1) flags, so the
   reference is the paper's definition rather than another optimised path.

The remaining classes pin the axes that survive inside one engine:
ENUMERATE vs SCAN (Section 5.4) and the predictive pass.  Epochs are
checked against full vector clocks in ``test_adaptive.py`` and on the
golden corpus.  The CI matrix reruns this file under both
multiprocessing start methods (``REPRO_TEST_START_METHOD``).
"""

import os

import pytest

from repro.core.backend import shm_available
from repro.core.detector import CommutativityRaceDetector, Strategy
from repro.core.parallel import ShardedDetector
from repro.core.stream import StreamAnalyzer

from tests.support import (build_multi_object_trace, direct_flagged,
                           flagged_events, race_snapshot,
                           random_multi_object_program, register_bindings)

CORPUS_SEEDS = range(40)

# The CI matrix reruns this suite under both multiprocessing start
# methods (fork and spawn): worker transport must not perturb a verdict.
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None


def corpus():
    for seed in CORPUS_SEEDS:
        yield seed, build_multi_object_trace(random_multi_object_program(seed))


def run_detector(trace, bindings, factory, **kw):
    if factory is ShardedDetector and START_METHOD:
        kw.setdefault("mp_context", START_METHOD)
    detector = register_bindings(factory(root=0, **kw), bindings)
    detector.run(trace)
    return detector


def sequential(trace, bindings):
    return run_detector(trace, bindings, CommutativityRaceDetector)


def reports(detector):
    return [race_snapshot(race) for race in detector.races]


def snapshots(detector):
    """Race snapshots as sortable tuples (order-insensitive comparison)."""
    return sorted(tuple(sorted(race_snapshot(race).items()))
                  for race in detector.races)


def assert_matches_sequential(factory, seeds=CORPUS_SEEDS, **kw):
    for seed in seeds:
        trace, bindings = build_multi_object_trace(
            random_multi_object_program(seed))
        reference = sequential(trace, bindings)
        engine = run_detector(trace, bindings, factory, **kw)
        assert reports(engine) == reports(reference), seed
        assert engine.stats.races == reference.stats.races, seed
    return engine


class TestDirectReference:
    def test_flags_match_direct(self):
        """Check 2: the sequential engine flags exactly the events the
        literal DirectDetector flags."""
        nonempty = 0
        for seed, (trace, bindings) in corpus():
            detector = sequential(trace, bindings)
            flagged = flagged_events(detector.races, list(trace))
            assert flagged == direct_flagged(trace, bindings), seed
            nonempty += bool(flagged)
        # The corpus must exercise the race paths, not compare empties.
        assert nonempty >= 10


@pytest.mark.parametrize("engine", ["sharded-w1", "streaming"])
class TestEngineEquivalence:
    def test_matches_sequential(self, engine):
        """Check 1 for the engines that need no second process."""
        if engine == "sharded-w1":
            assert_matches_sequential(ShardedDetector, workers=1)
        else:
            assert_matches_sequential(StreamAnalyzer, window=5,
                                      prune_interval=3)


# Two-worker transport legs, each pinned by name.
BACKEND_AXES = [
    "pickle",
    pytest.param("shm", marks=pytest.mark.skipif(
        not shm_available(), reason="no shared memory on this host")),
]


@pytest.mark.parametrize("backend", BACKEND_AXES)
class TestBackendEquivalence:
    """The execution backend must be invisible, byte for byte."""

    def test_byte_identical_to_sequential_reference(self, backend):
        det = assert_matches_sequential(ShardedDetector, workers=2,
                                        backend=backend)
        assert det.backend.selected == backend, det.backend

    def test_stats_match_the_pickle_backend(self, backend):
        # Same transport-invisibility claim for the counters: whatever
        # crosses the process boundary, the detector work is identical.
        for seed in list(CORPUS_SEEDS)[:6]:
            program = random_multi_object_program(seed)
            trace, bindings = build_multi_object_trace(program)
            pickled = run_detector(trace, bindings, ShardedDetector,
                                   workers=2, backend="pickle")
            other = run_detector(trace, bindings, ShardedDetector,
                                 workers=2, backend=backend)
            assert other.races == pickled.races
            assert other.stats == pickled.stats


@pytest.mark.parametrize("factory", [CommutativityRaceDetector,
                                     ShardedDetector],
                         ids=["sequential", "sharded"])
class TestStrategyEquivalence:
    def test_enumerate_vs_scan_same_reports(self, factory):
        # ENUMERATE and SCAN visit the same (point, candidate) pairs in
        # different orders: same content, order may differ.
        for _, (trace, bindings) in corpus():
            enum = run_detector(trace, bindings, factory,
                                strategy=Strategy.ENUMERATE)
            scan = run_detector(trace, bindings, factory,
                                strategy=Strategy.SCAN)
            assert snapshots(enum) == snapshots(scan)
            assert enum.stats.races == scan.stats.races

    def test_auto_matches_enumerate_for_bundled_reps(self, factory):
        # Every bundled representation compiles, so AUTO must resolve to
        # ENUMERATE — identical reports *and* identical check counts.
        for _, (trace, bindings) in corpus():
            auto = run_detector(trace, bindings, factory)
            enum = run_detector(trace, bindings, factory,
                                strategy=Strategy.ENUMERATE)
            assert auto.races == enum.races
            assert auto.stats == enum.stats


PREDICT_SEEDS = list(CORPUS_SEEDS)[:12]


@pytest.mark.parametrize("factory", [CommutativityRaceDetector,
                                     ShardedDetector],
                         ids=["sequential", "sharded"])
class TestPredictiveEquivalence:
    """The predictive pass rides every engine without perturbing it.

    Witnessed reports must stay byte-identical with prediction on, and
    the prediction list itself must be engine-independent: sequential
    and sharded (and, via its own suite, streaming) agree pair for pair,
    race for race.
    """

    def test_witnessed_reports_unchanged_by_prediction(self, factory):
        for seed in PREDICT_SEEDS:
            trace, bindings = build_multi_object_trace(
                random_multi_object_program(seed))
            plain = run_detector(trace, bindings, factory)
            predictive = run_detector(trace, bindings, factory,
                                      predict_window=32)
            assert reports(predictive) == reports(plain), seed
            assert predictive.stats.races == plain.stats.races

    def test_predictions_match_the_sequential_reference(self, factory):
        for seed in PREDICT_SEEDS:
            trace, bindings = build_multi_object_trace(
                random_multi_object_program(seed))
            reference = run_detector(trace, bindings,
                                     CommutativityRaceDetector,
                                     predict_window=32)
            kw = ({"workers": 2} if factory is ShardedDetector else {})
            det = run_detector(trace, bindings, factory,
                               predict_window=32, **kw)
            assert ([(p.pair, race_snapshot(p.race)) for p in det.predicted]
                    == [(p.pair, race_snapshot(p.race))
                        for p in reference.predicted]), seed
