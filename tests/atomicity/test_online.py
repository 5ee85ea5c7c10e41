"""The online (monitor-pluggable) atomicity analyzer."""

import pytest
from hypothesis import given, settings, strategies as st

import random

from repro.atomicity import (AtomicityAnalyzer, AtomicityChecker,
                             ConflictMode, atomic)
from repro.atomicity.online import _shortest_path
from repro.core.events import NIL
from repro.core.trace import TraceBuilder
from repro.runtime.collections_rt import MonitoredDict
from repro.runtime.monitor import Monitor
from repro.sched.scheduler import Scheduler
from repro.specs.dictionary import dictionary_representation


def analyzer():
    out = AtomicityAnalyzer(ConflictMode.COMMUTATIVITY)
    out.register_object("d", representation=dictionary_representation())
    return out


def violating_trace():
    return (TraceBuilder(root=0)
            .fork(0, 1).fork(0, 2)
            .begin(1)
            .invoke(1, "d", "get", "k", returns=NIL)
            .invoke(2, "d", "put", "k", 99, returns=NIL)
            .invoke(1, "d", "put", "k", 1, returns=99)
            .commit(1)
            .build())


def clean_trace():
    return (TraceBuilder(root=0)
            .fork(0, 1).fork(0, 2)
            .begin(1)
            .invoke(1, "d", "get", "a", returns=NIL)
            .invoke(2, "d", "put", "b", 9, returns=NIL)
            .invoke(1, "d", "put", "a", 1, returns=NIL)
            .commit(1)
            .build())


class TestOnlineDetection:
    def test_violation_reported_at_closing_event(self):
        online = analyzer()
        for event in violating_trace():
            online.process(event)
        assert online.violation_count == 1
        violation = online.violations[0]
        assert "put" in violation.closing_event
        assert any(label.startswith("T") for label in violation.cycle_labels)

    def test_clean_trace_silent(self):
        online = analyzer()
        for event in clean_trace():
            online.process(event)
        assert online.violation_count == 0

    def test_cycle_reported_once(self):
        builder = (TraceBuilder(root=0)
                   .fork(0, 1).fork(0, 2)
                   .begin(1)
                   .invoke(1, "d", "get", "k", returns=NIL)
                   .invoke(2, "d", "put", "k", 99, returns=NIL)
                   .invoke(1, "d", "put", "k", 1, returns=99)
                   .invoke(2, "d", "put", "k", 2, returns=1)
                   .invoke(1, "d", "get", "k", returns=2)
                   .commit(1))
        online = analyzer()
        for event in builder.build():
            online.process(event)
        # Multiple closing edges may exist; distinct cycles only.
        assert online.violation_count == len(
            {v.cycle_labels for v in online.violations})

    def test_str_and_keys(self):
        online = analyzer()
        for event in violating_trace():
            online.process(event)
        violation = online.violations[0]
        assert "atomicity violation" in str(violation)
        assert violation.distinct_key() == violation.cycle_labels

    def test_keep_reports_false(self):
        online = AtomicityAnalyzer(keep_reports=False)
        online.register_object("d",
                               representation=dictionary_representation())
        for event in violating_trace():
            online.process(event)
        assert online.violation_count == 1
        assert online.races() == []


class TestPathSearch:
    def test_equal_length_paths_break_ties_bidirectionally(self):
        # Two shortest 3 → 0 paths.  A forward BFS takes 3 → 2 → 0; the
        # bidirectional search meets at 1, the first predecessor of 0.
        succ = {node: {} for node in range(4)}
        pred = {node: {} for node in range(4)}
        for source, target in [(3, 2), (1, 0), (2, 0), (3, 1)]:
            succ[source][target] = None
            pred[target][source] = None
        assert _shortest_path(succ, pred, 3, 0) == [3, 1, 0]
        assert _shortest_path(succ, pred, 0, 3) is None


class TestAgreementWithOffline:
    @staticmethod
    def random_transactional_trace(seed):
        rng = random.Random(seed)
        builder = TraceBuilder(root=0)
        tids = [1, 2, 3]
        for tid in tids:
            builder.fork(0, tid)
        in_block = {tid: False for tid in tids}
        state: dict = {}
        for _ in range(rng.randrange(5, 30)):
            tid = rng.choice(tids)
            roll = rng.random()
            if roll < 0.15 and not in_block[tid]:
                builder.begin(tid)
                in_block[tid] = True
            elif roll < 0.3 and in_block[tid]:
                builder.commit(tid)
                in_block[tid] = False
            else:
                key = rng.choice(["a", "b"])
                if rng.random() < 0.5:
                    prev = state.get(key, NIL)
                    value = rng.randrange(5)
                    state[key] = value
                    builder.invoke(tid, "d", "put", key, value,
                                   returns=prev)
                else:
                    builder.invoke(tid, "d", "get", key,
                                   returns=state.get(key, NIL))
        return builder.build()

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_online_flags_iff_offline_does(self, seed):
        trace = self.random_transactional_trace(seed)
        online = analyzer()
        for event in trace:
            online.process(event)
        offline = AtomicityChecker(ConflictMode.COMMUTATIVITY)
        offline.register_object("d", dictionary_representation())
        report = offline.analyze(trace)
        assert (online.violation_count > 0) == (not report.serializable)


class TestMonitorIntegration:
    def test_runs_alongside_rd2(self):
        from repro.runtime.analyzers import Rd2Analyzer
        online = AtomicityAnalyzer()
        rd2 = Rd2Analyzer()
        monitor = Monitor(analyzers=[rd2, online])
        scheduler = Scheduler(monitor, seed=6)

        def main():
            shared = MonitoredDict(monitor, name="shared")

            def transactional():
                with atomic(monitor):
                    current = shared.get("hot")
                    shared.put("hot", (current,))

            def intruder():
                shared.put("hot", "x")

            scheduler.join_all([scheduler.spawn(transactional),
                                scheduler.spawn(intruder)])

        scheduler.run(main)
        # Both analyzers consumed the same stream without interference.
        assert rd2.detector.stats.actions > 0
        assert online._txns
