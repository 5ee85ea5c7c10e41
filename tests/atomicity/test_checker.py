"""Commutativity-aware atomicity checking vs. classic Velodrome."""

import pytest

from repro.atomicity import AtomicityChecker, ConflictMode, atomic
from repro.core.events import NIL
from repro.core.trace import TraceBuilder
from repro.runtime.analyzers import NullAnalyzer
from repro.runtime.collections_rt import MonitoredCounter, MonitoredDict
from repro.runtime.monitor import Monitor
from repro.sched.scheduler import Scheduler
from repro.specs.counter import counter_representation
from repro.specs.dictionary import dictionary_representation


def commutativity_checker(*objects):
    checker = AtomicityChecker(ConflictMode.COMMUTATIVITY)
    for obj, representation in objects:
        checker.register_object(obj, representation)
    return checker


def dict_checker():
    return commutativity_checker(("d", dictionary_representation()))


class TestSerializableCases:
    def test_serial_blocks_are_serializable(self):
        trace = (TraceBuilder(root=0)
                 .begin(0)
                 .invoke(0, "d", "put", "a", 1, returns=NIL)
                 .commit(0)
                 .begin(0)
                 .invoke(0, "d", "put", "a", 2, returns=1)
                 .commit(0)
                 .build())
        assert dict_checker().analyze(trace).serializable

    def test_commuting_interleaving_is_serializable(self):
        """The generalization's win: an interleaved counter increment
        does not break atomicity because increments commute."""
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .begin(1)
                 .invoke(1, "c", "add", 1)
                 .invoke(2, "c", "add", 1)     # interleaved, commutes
                 .invoke(1, "c", "add", 1)
                 .commit(1)
                 .build())
        checker = commutativity_checker(("c", counter_representation()))
        assert checker.analyze(trace).serializable

    def test_different_key_interleaving_is_serializable(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .begin(1)
                 .invoke(1, "d", "get", "a", returns=NIL)
                 .invoke(2, "d", "put", "b", 9, returns=NIL)  # other key
                 .invoke(1, "d", "put", "a", 1, returns=NIL)
                 .commit(1)
                 .build())
        assert dict_checker().analyze(trace).serializable

    def test_unregistered_objects_do_not_conflict(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .begin(1)
                 .invoke(1, "ghost", "put", "a", 1, returns=NIL)
                 .invoke(2, "ghost", "put", "a", 2, returns=1)
                 .invoke(1, "ghost", "put", "a", 3, returns=2)
                 .commit(1)
                 .build())
        assert dict_checker().analyze(trace).serializable


class TestViolations:
    def interleaved_check_then_act(self):
        return (TraceBuilder(root=0)
                .fork(0, 1).fork(0, 2)
                .begin(1)
                .invoke(1, "d", "get", "k", returns=NIL)
                .invoke(2, "d", "put", "k", 99, returns=NIL)  # intruder
                .invoke(1, "d", "put", "k", 1, returns=99)
                .commit(1)
                .build())

    def test_same_key_intrusion_violates(self):
        report = dict_checker().analyze(self.interleaved_check_then_act())
        assert not report.serializable
        violation = report.violations[0]
        labels = {txn.label for txn in violation.cycle}
        assert any(label.startswith("T") for label in labels)
        assert "→" in str(violation)

    def test_two_blocks_cross_violate(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .begin(1).begin(2)
                 .invoke(1, "d", "put", "a", 1, returns=NIL)
                 .invoke(2, "d", "put", "a", 2, returns=1)
                 .invoke(1, "d", "put", "a", 3, returns=2)
                 .commit(1).commit(2)
                 .build())
        report = dict_checker().analyze(trace)
        assert not report.serializable

    def test_size_intrusion_violates(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .begin(1)
                 .invoke(1, "d", "size", returns=0)
                 .invoke(2, "d", "put", "k", 1, returns=NIL)   # resizes
                 .invoke(1, "d", "size", returns=1)
                 .commit(1)
                 .build())
        report = dict_checker().analyze(trace)
        assert not report.serializable


class TestModesDiffer:
    def commuting_rw_trace(self):
        """Interleaved counter adds at both abstraction levels."""
        builder = (TraceBuilder(root=0).fork(0, 1).fork(0, 2).begin(1))
        builder.invoke(1, "c", "add", 1).write(1, "c.value")
        builder.invoke(2, "c", "add", 1).write(2, "c.value")
        builder.invoke(1, "c", "add", 1).write(1, "c.value")
        return builder.commit(1).build()

    def test_read_write_mode_false_alarms(self):
        trace = self.commuting_rw_trace()
        rw_report = AtomicityChecker(ConflictMode.READ_WRITE).analyze(trace)
        assert not rw_report.serializable
        comm = commutativity_checker(("c", counter_representation()))
        assert comm.analyze(trace).serializable

    def test_read_write_mode_ignores_actions(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .begin(1)
                 .invoke(1, "d", "put", "k", 1, returns=NIL)
                 .invoke(2, "d", "put", "k", 2, returns=1)
                 .invoke(1, "d", "put", "k", 3, returns=2)
                 .commit(1)
                 .build())
        assert AtomicityChecker(ConflictMode.READ_WRITE).analyze(
            trace).serializable


class TestSynchronization:
    def test_lock_round_trip_inside_block_violates(self):
        # The block releases and re-acquires a lock another thread takes
        # in between: lock edges force a cycle (classic Velodrome case).
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .begin(1)
                 .acquire(1, "L").release(1, "L")
                 .acquire(2, "L").release(2, "L")
                 .acquire(1, "L").release(1, "L")
                 .commit(1)
                 .build())
        assert not dict_checker().analyze(trace).serializable

    def test_internal_locks_invisible_in_commutativity_mode(self):
        from repro.runtime.shared import internal_lock_id
        internal = internal_lock_id("d")
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .begin(1)
                 .acquire(1, internal).release(1, internal)
                 .acquire(2, internal).release(2, internal)
                 .acquire(1, internal).release(1, internal)
                 .commit(1)
                 .build())
        assert dict_checker().analyze(trace).serializable


class TestRuntimeIntegration:
    def test_atomic_context_manager_records_boundaries(self):
        monitor = Monitor(record_trace=True)
        scheduler = Scheduler(monitor, seed=0)

        def main():
            counter = MonitoredCounter(monitor, name="c")
            with atomic(monitor):
                counter.add(1)
                counter.add(1)

        scheduler.run(main)
        from repro.core.events import EventKind
        kinds = [e.kind for e in monitor.trace]
        assert kinds[0] is EventKind.BEGIN
        assert kinds[-1] is EventKind.COMMIT

    def test_atomic_is_noop_when_uninstrumented(self):
        monitor = Monitor()
        with atomic(monitor):
            pass
        assert monitor.events_emitted == 0

    def test_end_to_end_violation_under_scheduler(self):
        violations_seen = []
        for seed in range(12):
            monitor = Monitor(record_trace=True)
            scheduler = Scheduler(monitor, seed=seed)

            def main():
                d = MonitoredDict(monitor, name="d")

                def transactional_worker():
                    with atomic(monitor):
                        current = d.get("hot")
                        d.put("hot", (current, "updated"))

                def intruder():
                    d.put("hot", "intrusion")

                scheduler.join_all([
                    scheduler.spawn(transactional_worker),
                    scheduler.spawn(intruder),
                    scheduler.spawn(transactional_worker),
                ])

            scheduler.run(main)
            checker = dict_checker()
            report = checker.analyze(monitor.trace)
            violations_seen.append(not report.serializable)
        assert any(violations_seen), \
            "some interleaving must intrude into an atomic block"
