"""One differential harness: every engine against the sequential detector.

The engines drive the same Algorithm 1 loop differently — the sharded
pipeline replays per-object stamped actions inline or in worker
processes, the streaming analyzer prunes and retires threads every few
events — and none of that may change a report.  The harness takes the
engine as a parameter and runs it over two 120-seed corpora from
``tests.support``:

* ``random`` — plain random multi-object traces;
* ``contention`` — the epoch machinery's worst case: cross-thread
  argument re-targeting (promotions and races on shared points) plus tid
  churn (dead clock components inside carried epochs, so pruning does
  real work).

Two checks, as in the engine equivalence matrix:

1. each engine's race reports are byte-identical (clocks and order) to
   the sequential detector's, and so are its counters (the streaming
   engine's pruning counters aside);
2. the sequential detector flags exactly the events the literal
   :class:`~repro.core.direct.DirectDetector` flags.
"""

import dataclasses
import functools
import os

import pytest

from repro.core.detector import CommutativityRaceDetector
from repro.core.parallel import ShardedDetector
from repro.core.stream import StreamAnalyzer

from tests.support import (build_contention_trace, build_multi_object_trace,
                           contention_program, direct_flagged,
                           flagged_events, race_snapshot,
                           random_multi_object_program, register_bindings)

SEEDS = range(120)

# The CI matrix reruns this suite under both multiprocessing start
# methods; the two-worker ("sharded-pool") engine honours the selection.
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None

CORPORA = {
    "random": lambda seed: build_multi_object_trace(
        random_multi_object_program(seed)),
    "contention": lambda seed: build_contention_trace(
        contention_program(seed)),
}

ENGINES = {
    "sharded-inline": lambda root: ShardedDetector(root=root, workers=1),
    "sharded-pool": lambda root: ShardedDetector(
        root=root, workers=2, mp_context=START_METHOD),
    "streaming": lambda root: StreamAnalyzer(root=root, window=5,
                                             prune_interval=3),
}


@functools.lru_cache(maxsize=None)
def case(corpus, seed):
    """``(trace, bindings, sequential detector)`` — built once per run."""
    trace, bindings = CORPORA[corpus](seed)
    detector = register_bindings(
        CommutativityRaceDetector(root=trace.root), bindings)
    detector.run(trace)
    return trace, bindings, detector


def reports(detector):
    return [race_snapshot(race) for race in detector.races]


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_matches_sequential(engine, corpus):
    """Check 1: byte-identical reports and equal counters."""
    for seed in SEEDS:
        trace, bindings, sequential = case(corpus, seed)
        other = register_bindings(ENGINES[engine](trace.root), bindings)
        other.run(trace)
        assert reports(other) == reports(sequential), f"seed {seed}"
        stats = other.stats
        if engine == "streaming":
            # Maintenance windows only retire threads and prune, so the
            # streaming run does the sequential detector's exact work,
            # counter for counter, except the pruning the sequential run
            # never does.
            stats = dataclasses.replace(stats, points_pruned=0,
                                        interned_points_evicted=0)
        assert stats == sequential.stats, f"seed {seed}"


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_flags_match_direct(corpus):
    """Check 2: the sequential detector flags exactly DirectDetector's
    events."""
    nonempty = promotions = 0
    for seed in SEEDS:
        trace, bindings, sequential = case(corpus, seed)
        flagged = flagged_events(sequential.races, list(trace))
        assert flagged == direct_flagged(trace, bindings), f"seed {seed}"
        nonempty += bool(flagged)
        promotions += sequential.stats.epoch_promotions
    # The corpora must exercise the race paths, not compare empties; the
    # adversarial one must also force real epoch promotions.
    assert nonempty >= 20
    if corpus == "contention":
        assert nonempty >= 40
        assert promotions >= 100
