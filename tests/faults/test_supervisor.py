"""Shard supervision semantics, one failure mode at a time.

Each test drives :class:`ShardSupervisor` directly with a trivial worker
and a deterministic fault plan, asserting three things: the results are
the fault-free results, the failed shard was replayed in-process, and the
failure is accounted for in the fault log and obs counters.  Injected
faults fire in every child a faulty shard gets, so a second child would
add a second ``<kind>`` record: exactly one ``<kind>`` and one
``fallback`` record per failed shard shows that no second child started.
"""

import multiprocessing
import time

import pytest

from repro.core.errors import MonitorError
from repro.core.events import NIL
from repro.core.faults import FaultLog
from repro.core.parallel import ShardedDetector
from repro.core.supervise import ShardSupervisor
from repro.core.trace import TraceBuilder
from repro.obs.registry import Registry
from repro.specs.dictionary import dictionary_representation
from repro.specs.set_spec import set_representation
from repro.testing.faults import FaultPlan, FaultSpec

from tests.faults._workers import double, echo
from tests.faults.conftest import FAST_TIMEOUT, HANG_SECONDS, START_METHOD

EXPECT = [("ok", 0, "a"), ("ok", 1, "b")]


def supervisor(worker=echo, timeout=60.0, obs=None, faults=None,
               diagnose=None):
    return ShardSupervisor(worker, mp_context=START_METHOD, timeout=timeout,
                           obs=obs, faults=faults, diagnose=diagnose)


def assert_one_fallback(faults, kind, shard):
    """The shard failed once, as ``kind``, and was replayed in-process."""
    assert [(fault.kind, fault.shard) for fault in faults] == [
        (kind, shard), ("fallback", shard)]


def test_fault_free_run_in_payload_order():
    sup = supervisor()
    assert sup.run(["a", "b"]) == EXPECT
    assert not sup.faults
    assert not multiprocessing.active_children()


def test_worker_exception_falls_back_in_process(inject):
    # The shard fails in its child; only the in-process replay (where
    # injected faults never fire) can complete it.
    inject(FaultPlan.build({1: FaultSpec("raise")}))
    obs = Registry(sample_interval=1)
    sup = supervisor(obs=obs)
    assert sup.run(["a", "b"]) == EXPECT
    assert_one_fallback(sup.faults, "worker-raised", 1)
    snapshot = obs.snapshot()
    assert snapshot["counters"]["shard_worker_errors"] == 1
    assert snapshot["counters"]["shard_fallbacks"] == 1
    assert snapshot["breakdowns"]["faults_by_kind"] == {
        "shard/worker-raised": 1, "shard/fallback": 1}


def test_hung_worker_times_out_and_recovers(inject):
    inject(FaultPlan.build({0: FaultSpec("hang", seconds=HANG_SECONDS)}))
    sup = supervisor(timeout=FAST_TIMEOUT)
    assert sup.run(["a", "b"]) == EXPECT
    assert_one_fallback(sup.faults, "timeout", 0)
    assert not multiprocessing.active_children()  # the hung child is reaped


def test_killed_worker_is_caught_at_once(inject):
    # os._exit takes the worker down without an exception or an answer;
    # its result pipe closes unanswered, which the supervisor sees at
    # once — long before the generous shard deadline.
    inject(FaultPlan.build({0: FaultSpec("exit")}))
    sup = supervisor(timeout=60.0)
    start = time.monotonic()
    assert sup.run(["a", "b"]) == EXPECT
    assert time.monotonic() - start < 10.0
    assert_one_fallback(sup.faults, "worker-raised", 0)


def test_unpicklable_result_degrades_without_retry(inject):
    # A result that cannot cross the pipe: the shard is replayed
    # in-process, where no pipe is involved.
    inject(FaultPlan.build({0: FaultSpec("bad-result")}))
    obs = Registry(sample_interval=1)
    sup = supervisor(obs=obs)
    assert sup.run(["a", "b"]) == EXPECT
    assert_one_fallback(sup.faults, "result-unpicklable", 0)
    assert obs.snapshot()["counters"]["shard_result_errors"] == 1


def test_every_shard_faulting_still_completes(inject):
    inject(FaultPlan(default=FaultSpec("raise")))
    sup = supervisor(worker=double)
    assert sup.run([1, 2, 3]) == [2, 4, 6]
    assert sup.faults.count(kind="worker-raised") == 3
    assert sup.faults.count(kind="fallback") == 3
    assert len(sup.faults) == 6


def test_shared_fault_log_and_private_default(inject):
    log = FaultLog()
    inject(FaultPlan.build({0: FaultSpec("raise")}))
    sup = supervisor(faults=log)
    sup.run(["a", "b"])
    assert sup.faults is log
    assert_one_fallback(log, "worker-raised", 0)
    assert isinstance(supervisor().faults, FaultLog)


def test_raising_worker_is_replayed_without_diagnose(inject):
    # The payload pickled before its child started, so a child's failure
    # is never a pickling failure: nothing to diagnose, just replay.
    inject(FaultPlan.build({0: FaultSpec("raise")}))
    asked = []

    def diagnose(index, exc):
        asked.append(index)
        return MonitorError(f"shard {index}")

    sup = supervisor(diagnose=diagnose)
    assert sup.run(["a", "b"]) == EXPECT
    assert asked == []
    assert_one_fallback(sup.faults, "worker-raised", 0)
    assert not multiprocessing.active_children()


def test_worker_input_error_is_raised_once_without_retry():
    """Shard replay is pure, so an input error would recur in-process:
    it is raised in the parent at once, never replayed."""
    trace = (TraceBuilder(root=0)
             .fork(0, 1)
             .invoke(1, "p", "put", "k", 1, returns=NIL)
             .invoke(0, "o", "enq", 1, returns=NIL)
             .join(0, 1)
             .build())
    detector = ShardedDetector(root=0, workers=2, mp_context=START_METHOD)
    detector.register_object("o", set_representation())
    detector.register_object("p", dictionary_representation())
    with pytest.raises(MonitorError,
                       match=r"event 2 \(0: o\.enq\(1\)/nil\).*"
                             r"set has no method 'enq'"):
        detector.run(trace)
    assert not detector.faults
    assert not multiprocessing.active_children()


def test_keyboard_interrupt_terminates_pool_without_orphans(monkeypatch):
    def interrupt(conn, deadline):
        raise KeyboardInterrupt

    monkeypatch.setattr(ShardSupervisor, "_await", staticmethod(interrupt))
    sup = supervisor()
    with pytest.raises(KeyboardInterrupt):
        sup.run(["a", "b"])
    assert not multiprocessing.active_children()


def test_interrupt_between_child_starts_leaves_no_orphans(monkeypatch,
                                                         inject):
    # Shard 0's child is running when serializing shard 1 is interrupted:
    # the supervisor must still terminate and join the child it started.
    original = ShardSupervisor._serialize

    def interrupt_second(self, payload):
        if payload == "b":
            raise KeyboardInterrupt
        return original(self, payload)

    monkeypatch.setattr(ShardSupervisor, "_serialize", interrupt_second)
    inject(FaultPlan.build({0: FaultSpec("hang", seconds=HANG_SECONDS)}))
    sup = supervisor()
    with pytest.raises(KeyboardInterrupt):
        sup.run(["a", "b"])
    assert not multiprocessing.active_children()


def test_config_validation():
    for timeout in (0, -1.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="shard_timeout"):
            ShardedDetector(workers=2, shard_timeout=timeout)


def test_unpicklable_task_degrades_or_diagnoses():
    # A payload that cannot pickle can never reach a worker process; the
    # supervisor must complete it via the in-process fallback — or raise
    # the caller's diagnosis when one is installed.
    sup = supervisor()
    results = sup.run(["a", lambda: None])          # lambdas cannot pickle
    assert results[0] == ("ok", 0, "a")
    assert results[1][:2] == ("ok", 1) and callable(results[1][2])
    assert_one_fallback(sup.faults, "task-unpicklable", 1)
    diag = supervisor(diagnose=lambda index, exc: MonitorError(f"bad {index}"))
    with pytest.raises(MonitorError, match="bad 1"):
        diag.run(["a", lambda: None])
