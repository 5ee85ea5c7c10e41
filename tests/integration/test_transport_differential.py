"""Differential fleet: the shard transport ≡ sequential, fork and spawn.

The equivalence matrix proves the two-worker leg under whatever start
method CI selected for the whole run; this suite pins the shard transport
under **both** start methods explicitly, in one process, because the two
fail differently: fork inherits the parent's memory, spawn re-imports
everything and unpickles every payload (pickling bugs in stamped clocks,
plans or registrations).  Plus seeded fleets: byte-identical reports,
fault-free supervision, and the IPC observability counters the transport
promises.
"""

import multiprocessing

import pytest

from repro.core.detector import CommutativityRaceDetector
from repro.core.events import NIL
from repro.core.parallel import ShardedDetector
from repro.core.trace import TraceBuilder
from repro.obs import Registry
from repro.specs.dictionary import dictionary_representation

from tests.support import (build_multi_object_trace,
                           random_multi_object_program, race_snapshot,
                           register_bindings)

START_METHODS = [
    pytest.param(method, marks=pytest.mark.skipif(
        method not in multiprocessing.get_all_start_methods(),
        reason=f"{method} start method unavailable"))
    for method in ("fork", "spawn")
]


def reference_snapshots(trace, bindings):
    detector = register_bindings(CommutativityRaceDetector(root=0), bindings)
    detector.run(trace)
    return [race_snapshot(race) for race in detector.races]


def run_sharded(trace, bindings, mp_context, **kw):
    detector = register_bindings(
        ShardedDetector(root=0, workers=2, mp_context=mp_context, **kw),
        bindings)
    detector.run(trace)
    return detector


@pytest.mark.parametrize("mp_context", START_METHODS)
class TestTransportDifferential:
    def test_byte_identical(self, mp_context):
        seeds = range(20) if mp_context == "fork" else (4, 9, 41)
        nonempty = 0
        for seed in seeds:
            program = random_multi_object_program(seed, max_ops=60)
            trace, bindings = build_multi_object_trace(program)
            want = reference_snapshots(trace, bindings)
            det = run_sharded(trace, bindings, mp_context)
            assert [race_snapshot(r) for r in det.races] == want, seed
            assert not det.faults.records()
            nonempty += bool(want)
        assert nonempty >= 2, "corpus never exercised the race paths"


def fanout_trace(width, actions=400):
    """``width`` helper threads join the root, widening every later clock;
    then two threads split ``actions`` puts over objects x and y, each
    stamping all its actions within one synchronization window."""
    builder = TraceBuilder(root=0)
    helpers = range(1, width + 1)
    for tid in helpers:
        builder.fork(0, tid)
    for tid in helpers:
        builder.acquire(tid, tid).release(tid, tid)
    for tid in helpers:
        builder.join(0, tid)
    left, right = width + 1, width + 2
    builder.fork(0, left).fork(0, right)
    for step in range(actions // 2):
        builder.invoke(left, "x", "put", step, step, returns=NIL)
        builder.invoke(right, "y", "put", step, step, returns=NIL)
    return builder.build()


class TestTransportObservability:
    def test_ipc_counters_reflect_the_transport(self):
        program = random_multi_object_program(9, max_ops=60)
        trace, bindings = build_multi_object_trace(program)
        obs = Registry(enabled=True)
        run_sharded(trace, bindings, "fork", obs=obs)
        snap = obs.snapshot()
        # Shard payloads are pickled, and nothing else crosses.
        assert snap["counters"]["ipc_bytes_pickled"] > 0
        assert snap["timers"]["ipc_serialize"]["count"] >= 1
        for kind in ("counters", "gauges", "timers"):
            assert not [name for name in snap[kind]
                        if name.startswith("shm_")], kind

    def test_payload_ships_each_clock_base_once(self):
        """Same action count, 16× wider clocks: the pickled payloads grow
        by a base per window, not by the width on every action."""
        volumes = {}
        for width in (16, 256):
            obs = Registry(enabled=True)
            det = ShardedDetector(root=0, workers=2, obs=obs,
                                  mp_context="fork")
            for obj in ("x", "y"):
                det.register_object(obj, dictionary_representation())
            det.run(fanout_trace(width))
            volumes[width] = obs.snapshot()["counters"]["ipc_bytes_pickled"]
        assert volumes[256] > volumes[16]
        assert volumes[256] < 2 * volumes[16]
