"""Unit tests for the two-phase sharded pipeline's moving parts."""

import multiprocessing
import pickle
import threading

import pytest

from repro.core.access_points import NaiveRepresentation
from repro.core.backend import shm_available
from repro.core.detector import CommutativityRaceDetector, DetectorStats
from repro.core.errors import MonitorError
from repro.core.events import (NIL, Action, action_event,
                               pack_stamped_action, unpack_stamped_action)
from repro.core.parallel import ShardedDetector, partition_by_load
from repro.core.trace import TraceBuilder
from repro.core.vector_clock import MutableVectorClock, VectorClock
from repro.specs.dictionary import dictionary_representation

from tests.support import shm_entries


class TestPartitionByLoad:
    def test_balances_by_load(self):
        loads = [("a", 10), ("b", 1), ("c", 9), ("d", 2)]
        shards = partition_by_load(loads, 2)
        weights = sorted(sum(dict(loads)[obj] for obj in group)
                         for group in shards)
        assert weights == [11, 11]

    def test_deterministic(self):
        loads = [(f"o{i}", (i * 7) % 5) for i in range(20)]
        assert partition_by_load(loads, 4) == partition_by_load(loads, 4)

    def test_more_shards_than_objects_drops_empties(self):
        shards = partition_by_load([("a", 3)], 8)
        assert shards == [["a"]]

    def test_every_object_lands_exactly_once(self):
        loads = [(f"o{i}", i) for i in range(13)]
        shards = partition_by_load(loads, 3)
        flat = [obj for group in shards for obj in group]
        assert sorted(flat) == sorted(obj for obj, _ in loads)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            partition_by_load([("a", 1)], 0)


class TestWireFormat:
    def test_roundtrip_preserves_event_and_clock(self):
        action = Action("o", "put", ("k", (1, NIL)), (NIL,))
        event = action_event(7, action)
        clock = VectorClock({0: 3, 7: 5})
        packed = pack_stamped_action(event, 42, clock)
        # The wire form must survive pickling (it crosses process lines).
        packed = pickle.loads(pickle.dumps(packed))
        rebuilt = unpack_stamped_action("o", packed)
        assert rebuilt.action == action
        assert rebuilt.tid == 7
        assert rebuilt.index == 42
        assert rebuilt.clock == clock

    def test_clock_reduce_is_compact_and_faithful(self):
        clock = VectorClock({1: 2, 9: 4})
        hash(clock)  # populate the hash cache; it must not be pickled
        func, args = clock.__reduce__()
        assert func is VectorClock and args == ({1: 2, 9: 4},)
        assert pickle.loads(pickle.dumps(clock)) == clock
        mutable = MutableVectorClock({1: 2})
        assert pickle.loads(pickle.dumps(mutable)) == mutable


class TestProcessStamped:
    def fig3_trace(self):
        return (TraceBuilder(root=0)
                .fork(0, 1).fork(0, 2)
                .invoke(2, "o", "put", "a", 1, returns=NIL)
                .invoke(1, "o", "put", "a", 2, returns=1)
                .join(0, 1).join(0, 2)
                .invoke(0, "o", "size", returns=1)
                .build())

    def test_matches_online_processing(self):
        trace = self.fig3_trace()
        online = CommutativityRaceDetector(root=0)
        online.register_object("o", dictionary_representation())
        online.run(trace)
        offline = CommutativityRaceDetector(root=0)
        offline.register_object("o", dictionary_representation())
        for event in trace:  # trace.build() already stamped every event
            offline.process_stamped(event)
        assert offline.races == online.races
        assert offline.stats == online.stats

    def test_rejects_unstamped_events(self):
        detector = CommutativityRaceDetector(root=0)
        event = action_event(0, Action("o", "size", (), (0,)))
        with pytest.raises(MonitorError):
            detector.process_stamped(event)


class TestDetectorStatsAbsorb:
    def test_sums_every_counter_field(self):
        left = DetectorStats(events=1, actions=2, points_touched=3,
                             conflict_checks=4, races=5, epoch_promotions=6)
        right = DetectorStats(events=10, actions=20, points_touched=30,
                              conflict_checks=40, races=50,
                              epoch_promotions=60)
        left.absorb(right)
        assert left == DetectorStats(events=11, actions=22, points_touched=33,
                                     conflict_checks=44, races=55,
                                     epoch_promotions=66)


class TestShardedDetectorFacade:
    def test_double_registration_rejected(self):
        detector = ShardedDetector(workers=1)
        detector.register_object("o", dictionary_representation())
        with pytest.raises(MonitorError):
            detector.register_object("o", dictionary_representation())

    def test_release_object_before_run(self):
        detector = ShardedDetector(workers=1)
        detector.register_object("o", dictionary_representation())
        detector.release_object("o")
        assert list(detector.registered_objects()) == []

    def test_unpicklable_representation_rejected_for_pools(self):
        rep = NaiveRepresentation("opaque", lambda a, b: False)
        detector = ShardedDetector(workers=2)
        with pytest.raises(MonitorError, match="not picklable"):
            detector.register_object("o", rep)

    @pytest.mark.parametrize("transport", [
        "pickle",
        pytest.param("shm", marks=pytest.mark.skipif(
            not shm_available(), reason="no shared memory on this host")),
    ])
    def test_unshippable_action_values_rejected_alike(self, transport):
        # A value that cannot cross the shard boundary fails the same way
        # on both transports, and leaves no worker or segment behind.
        lock = threading.Lock()
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .invoke(1, "a", "put", lock, 1, returns=NIL)
                 .invoke(2, "a", "put", lock, 2, returns=1)
                 .invoke(1, "b", "put", "k", 1, returns=NIL)
                 .invoke(2, "b", "put", "k", 2, returns=1)
                 .build())
        detector = ShardedDetector(workers=2, backend=transport)
        for obj in ("a", "b"):
            detector.register_object(obj, dictionary_representation())
        assert detector.backend.selected == transport
        before = shm_entries()
        with pytest.raises(MonitorError, match="object 'a': its stamped "
                                               "actions cannot be pickled"):
            detector.run(trace)
        assert not multiprocessing.active_children()
        assert shm_entries() <= before

    def test_unpicklable_representation_fine_inline(self):
        rep = NaiveRepresentation("opaque", lambda a, b: False)
        detector = ShardedDetector(workers=1)
        detector.register_object("o", rep)
        trace = (TraceBuilder(root=0)
                 .fork(0, 1)
                 .invoke(0, "o", "poke", returns=())
                 .invoke(1, "o", "poke", returns=())
                 .build())
        races = detector.run(trace)
        assert len(races) == 1

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ShardedDetector(workers=-1)

    def test_happens_before_requires_run(self):
        detector = ShardedDetector(workers=1)
        with pytest.raises(MonitorError):
            detector.happens_before

    def test_event_count_includes_sync_events_once(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1)
                 .invoke(0, "o", "size", returns=0)
                 .invoke(1, "o", "size", returns=0)
                 .join(0, 1)
                 .build())
        detector = ShardedDetector(workers=1)
        detector.register_object("o", dictionary_representation())
        detector.run(trace)
        assert detector.stats.events == len(trace)
        assert detector.stats.actions == 2

    def test_unregistered_objects_ignored(self):
        trace = (TraceBuilder(root=0)
                 .invoke(0, "ghost", "size", returns=0)
                 .build())
        detector = ShardedDetector(workers=1)
        detector.register_object("o", dictionary_representation())
        detector.run(trace)
        assert detector.races == []
        assert detector.stats.actions == 0
        assert detector.stats.events == 1

    def test_no_registered_objects_counts_events(self):
        trace = TraceBuilder(root=0).fork(0, 1).join(0, 1).build()
        detector = ShardedDetector(workers=4)
        detector.run(trace)
        assert detector.races == []
        assert detector.stats.events == len(trace)

    def test_rerun_resets_reports(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .invoke(1, "o", "put", "k", 1, returns=NIL)
                 .invoke(2, "o", "put", "k", 2, returns=1)
                 .build())
        detector = ShardedDetector(workers=1)
        detector.register_object("o", dictionary_representation())
        first = list(detector.run(trace))
        second = list(detector.run(trace))
        assert first == second
        assert detector.stats.races == len(second)
