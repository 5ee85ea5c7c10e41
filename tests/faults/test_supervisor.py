"""Shard supervision semantics, one failure mode at a time.

Each test drives :class:`ShardSupervisor` directly with a trivial worker
and a deterministic fault plan, asserting three things: the results are
the fault-free results, the recovery path taken is the intended one
(retry vs. in-process fallback), and the failure is accounted for in the
fault log and obs counters.
"""

import multiprocessing
import time

import pytest

from repro.core.errors import MonitorError
from repro.core.faults import FaultLog
from repro.core.supervise import ShardSupervisor, SupervisorConfig
from repro.obs.registry import Registry
from repro.testing.faults import FaultPlan, FaultSpec

from tests.faults._workers import double, echo
from tests.faults.conftest import FAST_TIMEOUT, HANG_SECONDS, START_METHOD

EXPECT = [("ok", 0, "a"), ("ok", 1, "b")]


def supervisor(worker=echo, plan=None, retries=2, timeout=60.0, obs=None,
               faults=None, diagnose=None):
    config = SupervisorConfig(
        shard_timeout=timeout, max_retries=retries, backoff_base=0.0,
        wrap=plan.wrap if plan is not None else None)
    return ShardSupervisor(worker, mp_context=START_METHOD, config=config,
                           obs=obs, faults=faults, diagnose=diagnose)


def test_fault_free_run_in_payload_order():
    sup = supervisor()
    assert sup.run(["a", "b"]) == EXPECT
    assert not sup.faults
    assert not multiprocessing.active_children()


def test_worker_exception_retried_then_succeeds():
    plan = FaultPlan.build({0: FaultSpec("raise", times=1)})
    obs = Registry(sample_interval=1)
    sup = supervisor(plan=plan, retries=2, obs=obs)
    assert sup.run(["a", "b"]) == EXPECT
    assert sup.faults.count(site="shard", kind="worker-raised") == 1
    assert sup.faults.count(kind="fallback") == 0
    snapshot = obs.snapshot()
    assert snapshot["counters"]["shard_worker_errors"] == 1
    assert snapshot["counters"]["shard_retries"] == 1
    assert snapshot["breakdowns"]["faults_by_kind"] == {
        "shard/worker-raised": 1}


def test_exhausted_retries_fall_back_in_process():
    # The shard fails on every pool attempt; only the in-process replay
    # (where injected faults never fire) can complete it.
    plan = FaultPlan.build({1: FaultSpec("raise", times=99)})
    obs = Registry(sample_interval=1)
    sup = supervisor(plan=plan, retries=1, obs=obs)
    assert sup.run(["a", "b"]) == EXPECT
    assert sup.faults.count(kind="worker-raised") == 2  # attempts 0 and 1
    assert sup.faults.count(kind="fallback") == 1
    assert obs.snapshot()["counters"]["shard_fallbacks"] == 1


def test_hung_worker_times_out_and_recovers():
    plan = FaultPlan.build({0: FaultSpec("hang", times=99,
                                         seconds=HANG_SECONDS)})
    sup = supervisor(plan=plan, retries=0, timeout=FAST_TIMEOUT)
    assert sup.run(["a", "b"]) == EXPECT
    assert sup.faults.count(kind="timeout") == 1
    assert sup.faults.count(kind="fallback") == 1
    assert not multiprocessing.active_children()  # the hung child is reaped


def test_killed_worker_is_caught_at_once_then_retries():
    # os._exit takes the worker down without an exception or an answer;
    # its result pipe closes unanswered, which the round sees at once —
    # long before the generous shard deadline.
    plan = FaultPlan.build({0: FaultSpec("exit", times=1)})
    sup = supervisor(plan=plan, retries=1, timeout=60.0)
    start = time.monotonic()
    assert sup.run(["a", "b"]) == EXPECT
    assert time.monotonic() - start < 10.0
    assert sup.faults.count(kind="worker-raised") == 1
    assert sup.faults.count(kind="timeout") == 0
    assert sup.faults.count(kind="fallback") == 0  # retry succeeded


def test_unpicklable_result_degrades_without_retry():
    # A result that cannot cross the pipe fails identically on every
    # pool attempt, so the supervisor must skip straight to the inline
    # fallback instead of burning retries.
    plan = FaultPlan.build({0: FaultSpec("bad-result", times=99)})
    obs = Registry(sample_interval=1)
    sup = supervisor(plan=plan, retries=2, obs=obs)
    assert sup.run(["a", "b"]) == EXPECT
    assert sup.faults.count(kind="result-unpicklable") == 1
    assert sup.faults.count(kind="fallback") == 1
    assert "shard_retries" not in obs.snapshot()["counters"]


def test_every_shard_faulting_still_completes():
    plan = FaultPlan(default=FaultSpec("raise", times=1))
    sup = supervisor(worker=double, plan=plan, retries=1)
    assert sup.run([1, 2, 3]) == [2, 4, 6]
    assert sup.faults.count(kind="worker-raised") == 3


def test_shared_fault_log_and_private_default():
    log = FaultLog()
    plan = FaultPlan.build({0: FaultSpec("raise", times=1)})
    sup = supervisor(plan=plan, faults=log)
    sup.run(["a", "b"])
    assert sup.faults is log and log.count(kind="worker-raised") == 1
    assert isinstance(supervisor().faults, FaultLog)


def test_diagnose_turns_worker_error_into_callers_exception():
    plan = FaultPlan.build({0: FaultSpec("raise", times=99)})
    sup = supervisor(plan=plan,
                     diagnose=lambda index, exc: MonitorError(f"shard {index}"))
    with pytest.raises(MonitorError, match="shard 0"):
        sup.run(["a", "b"])
    assert not multiprocessing.active_children()


def test_keyboard_interrupt_terminates_pool_without_orphans(monkeypatch):
    def interrupt(conn, deadline):
        raise KeyboardInterrupt

    monkeypatch.setattr(ShardSupervisor, "_await", staticmethod(interrupt))
    sup = supervisor()
    with pytest.raises(KeyboardInterrupt):
        sup.run(["a", "b"])
    assert not multiprocessing.active_children()


def test_interrupt_between_child_starts_leaves_no_orphans(monkeypatch):
    # Shard 0's child is running when serializing shard 1 is interrupted:
    # the round must still terminate and join the child it started.
    original = ShardSupervisor.payload_blob

    def interrupt_second(self, index, payload):
        if index == 1:
            raise KeyboardInterrupt
        return original(self, index, payload)

    monkeypatch.setattr(ShardSupervisor, "payload_blob", interrupt_second)
    sup = supervisor(plan=FaultPlan.build({0: FaultSpec(
        "hang", times=99, seconds=HANG_SECONDS)}))
    with pytest.raises(KeyboardInterrupt):
        sup.run(["a", "b"])
    assert not multiprocessing.active_children()


def test_config_validation():
    with pytest.raises(ValueError):
        SupervisorConfig(shard_timeout=0)
    with pytest.raises(ValueError):
        SupervisorConfig(max_retries=-1)
    with pytest.raises(ValueError):
        SupervisorConfig(backoff_factor=0.5)
    assert SupervisorConfig(shard_timeout=None).shard_timeout is None


def test_backoff_schedule_is_exponential():
    config = SupervisorConfig(backoff_base=0.1, backoff_factor=2.0)
    assert [config.backoff(i) for i in range(3)] == [0.1, 0.2, 0.4]


def test_payloads_serialize_once_across_retries():
    # Retried shards must reuse the payload bytes pickled on attempt 0 —
    # the serialize-once contract, visible as the shard_payload_reuse
    # counter and an ipc_bytes_pickled volume that does not grow.
    plan = FaultPlan.build({0: FaultSpec("raise", times=2)})
    obs = Registry(sample_interval=1)
    sup = supervisor(plan=plan, retries=3, obs=obs)
    assert sup.run(["a", "b"]) == EXPECT
    counters = obs.snapshot()["counters"]
    assert counters["shard_retries"] == 2
    assert counters["shard_payload_reuse"] == 2     # one per retry
    assert counters["ipc_bytes_pickled"] > 0
    # A fault-free run pickles each payload exactly once: same volume.
    clean_obs = Registry(sample_interval=1)
    clean = supervisor(obs=clean_obs)
    assert clean.run(["a", "b"]) == EXPECT
    clean_counters = clean_obs.snapshot()["counters"]
    assert "shard_payload_reuse" not in clean_counters
    assert counters["ipc_bytes_pickled"] \
        == clean_counters["ipc_bytes_pickled"]


def test_payload_blob_is_cached_per_index():
    sup = supervisor()
    blob_a = sup.payload_blob(0, "a")
    assert sup.payload_blob(0, "a") is blob_a       # cache hit, same bytes
    assert sup.payload_blob(1, "b") != blob_a
    import pickle
    assert pickle.loads(blob_a) == "a"


def test_unpicklable_task_degrades_or_diagnoses():
    # A payload that cannot pickle can never reach a worker process; the
    # supervisor must complete it via the inline fallback (no retries)
    # — or raise the caller's diagnosis when one is installed.
    sup = supervisor()
    results = sup.run(["a", lambda: None])          # lambdas cannot pickle
    assert results[0] == ("ok", 0, "a")
    assert results[1][:2] == ("ok", 1) and callable(results[1][2])
    assert sup.faults.count(kind="task-unpicklable") == 1
    assert sup.faults.count(kind="fallback") == 1
    diag = supervisor(diagnose=lambda index, exc: MonitorError(f"bad {index}"))
    with pytest.raises(MonitorError, match="bad 1"):
        diag.run(["a", lambda: None])
