"""Differential checks: ShardedDetector ≡ CommutativityRaceDetector.

The two-phase pipeline's whole claim is that fanning Algorithm 1's
per-object work out by shard changes *nothing*: same race reports, in the
same order, with the same counters.  The 120-seed corpus sweeps live in
``test_differential_harness.py``; this suite adds hypothesis-shrunk
programs, a real multiprocessing pool at several worker counts, and the
SCAN strategy.
"""

import pytest
from hypothesis import given, settings

from repro.core.detector import CommutativityRaceDetector, Strategy
from repro.core.parallel import ShardedDetector

from tests.support import (build_multi_object_trace, multi_object_programs,
                           random_multi_object_program, register_bindings)


def run_pair(trace, bindings, *, workers, **register_kw):
    sequential = register_bindings(
        CommutativityRaceDetector(root=0), bindings, **register_kw)
    sharded = register_bindings(
        ShardedDetector(root=0, workers=workers), bindings, **register_kw)
    sequential.run(trace)
    sharded.run(trace)
    return sequential, sharded


def assert_identical(sequential, sharded):
    assert sharded.races == sequential.races
    assert sharded.stats == sequential.stats


class TestDifferentialCorpus:
    @given(multi_object_programs())
    @settings(max_examples=60, deadline=None)
    def test_inline_sharding_property(self, program):
        trace, bindings = build_multi_object_trace(program)
        sequential, sharded = run_pair(trace, bindings, workers=0)
        assert_identical(sequential, sharded)

    @pytest.mark.parametrize("seed", [3, 17, 41, 77])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_pool_sharding(self, seed, workers):
        """The real multiprocessing path: pickled shards, merged results."""
        program = random_multi_object_program(seed, max_ops=60)
        trace, bindings = build_multi_object_trace(program)
        sequential, sharded = run_pair(trace, bindings, workers=workers)
        assert_identical(sequential, sharded)

    def test_scan_strategy_sharding(self):
        for seed in range(20):
            program = random_multi_object_program(seed)
            trace, bindings = build_multi_object_trace(program)
            sequential, sharded = run_pair(trace, bindings, workers=1,
                                           strategy=Strategy.SCAN)
            assert_identical(sequential, sharded)


class TestMergedCountersAgree:
    """Satellite: sharded stats must merge, not drop, shard counters."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_conflict_checks_and_all_counters(self, workers):
        for seed in range(30):
            program = random_multi_object_program(seed)
            trace, bindings = build_multi_object_trace(program)
            sequential, sharded = run_pair(trace, bindings, workers=workers)
            assert sharded.stats.conflict_checks == \
                sequential.stats.conflict_checks
            assert sharded.stats.actions == sequential.stats.actions
            assert sharded.stats.points_touched == \
                sequential.stats.points_touched
            assert sharded.stats.races == sequential.stats.races
            assert sharded.stats.events == sequential.stats.events
            assert sharded.stats.checks_per_action() == pytest.approx(
                sequential.stats.checks_per_action())

