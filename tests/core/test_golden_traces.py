"""Golden-trace regression corpus: frozen verdicts for frozen traces.

The traces and expected reports under ``tests/data/`` were produced by
``tests/data/generate_golden.py``.  Any refactor that changes a verdict —
a race appearing, disappearing, reordering, or changing its clocks —
fails here and must be an explicit, reviewed regeneration of the corpus,
never a silent drift.
"""

import json
import pathlib

import pytest

from repro.core.detector import CommutativityRaceDetector, Strategy
from repro.core.parallel import ShardedDetector
from repro.core.serialize import load_trace
from repro.specs import bundled_objects

from tests.support import (inflate_point_clocks, race_snapshot,
                           run_with_plain_clocks)

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"
EXPECTED_DIR = DATA_DIR / "expected"
GOLDEN_NAMES = sorted(path.stem for path in DATA_DIR.glob("*.jsonl"))


def load_case(name):
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as stream:
        expected = json.load(stream)
    with open(DATA_DIR / expected["trace"], encoding="utf-8") as stream:
        trace = load_trace(stream)
    return trace, expected


def test_corpus_is_present():
    assert len(GOLDEN_NAMES) >= 6
    racy = sum(bool(load_case(name)[1]["races"]) for name in GOLDEN_NAMES)
    clean = len(GOLDEN_NAMES) - racy
    assert racy >= 4 and clean >= 1  # both verdict polarities covered


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_sequential_detector_matches_snapshot(name):
    trace, expected = load_case(name)
    registry = bundled_objects()
    detector = CommutativityRaceDetector(root=trace.root)
    for obj, kind in expected["bindings"].items():
        detector.register_object(obj, registry[kind].representation())
    detector.run(trace)
    assert [race_snapshot(race) for race in detector.races] \
        == expected["races"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_sharded_detector_matches_snapshot(name, workers):
    trace, expected = load_case(name)
    registry = bundled_objects()
    detector = ShardedDetector(root=trace.root, workers=workers)
    for obj, kind in expected["bindings"].items():
        detector.register_object(obj, registry[kind].representation())
    detector.run(trace)
    assert [race_snapshot(race) for race in detector.races] \
        == expected["races"]


# -- loop and clock axes: same frozen snapshots, never regenerated ----------
#
# The tests above pin the default engines.  These pin the variations that
# survive inside them against the *same* disk snapshots.  Their names date
# from the configuration knobs they used to exercise:
#
# * "seed path" and "dispatch" are the interpreted loop — the SCAN loop,
#   whose reports may reorder within an event, so it is compared as a
#   multiset; "compiled" is the ENUMERATE loop over a check plan.
# * "plain clock" inflates every point clock to its bare vector clock after
#   each event, which is exactly what a full-vector-clock detector stores.
# * a "batch" is the W events between two point-clock rewrites: inflating
#   everything ("plain") or deflating at a maintenance window ("epochs")
#   must be invisible at any cadence.

def register(detector, expected, strategy=None):
    registry = bundled_objects()
    for obj, kind in expected["bindings"].items():
        detector.register_object(obj, registry[kind].representation(),
                                 strategy)
    return detector


def multiset(snapshots):
    return sorted(json.dumps(snapshot, sort_keys=True)
                  for snapshot in snapshots)


def assert_matches(races, expected, strategy):
    got = [race_snapshot(race) for race in races]
    if strategy is Strategy.SCAN:
        assert multiset(got) == multiset(expected["races"])
    else:
        assert got == expected["races"]


LOOPS = pytest.mark.parametrize("compiled", [False, True],
                                ids=["dispatch", "compiled"])


def loop_strategy(compiled):
    return Strategy.ENUMERATE if compiled else Strategy.SCAN


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_seed_path_matches_snapshot(name):
    trace, expected = load_case(name)
    detector = register(CommutativityRaceDetector(root=trace.root),
                        expected, Strategy.SCAN)
    detector.run(trace)
    assert_matches(detector.races, expected, Strategy.SCAN)


@LOOPS
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_sharded_compiled_axis_matches_snapshot(name, compiled):
    # The per-object strategy travels in the shard payload, next to the
    # plan compiled once in the facade.
    trace, expected = load_case(name)
    strategy = loop_strategy(compiled)
    detector = register(ShardedDetector(root=trace.root, workers=2),
                        expected, strategy)
    detector.run(trace)
    assert_matches(detector.races, expected, strategy)


@LOOPS
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_plain_clock_axis_matches_snapshot(name, compiled):
    trace, expected = load_case(name)
    strategy = loop_strategy(compiled)
    detector = register(CommutativityRaceDetector(root=trace.root),
                        expected, strategy)
    run_with_plain_clocks(detector, trace)
    assert_matches(detector.races, expected, strategy)


@pytest.mark.parametrize("clocks", ["plain", "epochs"])
@pytest.mark.parametrize("cadence", [1, 3, 64])
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_batch_axis_matches_snapshot(name, cadence, clocks):
    trace, expected = load_case(name)
    detector = register(CommutativityRaceDetector(root=trace.root),
                        expected)
    for index, event in enumerate(trace, 1):
        detector.process(event)
        if index % cadence == 0:
            if clocks == "plain":
                inflate_point_clocks(detector)
            else:
                detector.deflate_point_clocks()
    assert [race_snapshot(race) for race in detector.races] \
        == expected["races"]


# -- streaming and pruning axes: same frozen snapshots, never regenerated ---

@pytest.mark.parametrize("prune_interval", [0, 1, 3],
                         ids=["noprune", "prune1", "prune3"])
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_streaming_axis_matches_snapshot(name, prune_interval):
    # Streaming (incremental processing + pruning + intern eviction +
    # thread retirement) must be byte-identical to the frozen corpus —
    # clocks included.
    from repro.core.stream import StreamAnalyzer
    trace, expected = load_case(name)
    registry = bundled_objects()
    analyzer = StreamAnalyzer(root=trace.root,
                              prune_interval=prune_interval, window=4)
    for obj, kind in expected["bindings"].items():
        analyzer.register_object(obj, registry[kind].representation())
    analyzer.run(trace)
    assert [race_snapshot(race) for race in analyzer.races] \
        == expected["races"]


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_sharded_epoch_batch_axis_matches_snapshot(name):
    # Shard workers apply phase A's prune snapshots between their actions.
    trace, expected = load_case(name)
    detector = register(ShardedDetector(root=trace.root, workers=2,
                                        prune_interval=2), expected)
    detector.run(trace)
    assert [race_snapshot(race) for race in detector.races] \
        == expected["races"]


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_streaming_epoch_batch_axis_matches_snapshot(name):
    # Epochs, pruning and a deflation window every three events.
    from repro.core.stream import StreamAnalyzer
    trace, expected = load_case(name)
    analyzer = register(StreamAnalyzer(root=trace.root, window=3,
                                       prune_interval=2), expected)
    analyzer.run(trace)
    assert [race_snapshot(race) for race in analyzer.races] \
        == expected["races"]
