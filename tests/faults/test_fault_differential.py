"""The central robustness claim, tested differentially.

For every injected fault the supervisor recovers from, the sharded run's
merged output must be *identical* — report for report, snapshot for
snapshot — to the fault-free sequential detector's on the same trace,
with the fault visible in the fault log (and, through the CLI, in the
``--stats-json`` report).

Seeds are chosen from the shared randomized-program corpus for verdict
variety (the list includes race-dense and race-free traces and 2-6 object
programs); the seeded fault plans stack worker exceptions and unpicklable
results across shards and attempts.  Hang and kill faults can each cost
a timeout window to detect, so they get dedicated single-fault cases
rather than riding the seed sweep.

Every case runs on the default transport — shared-memory rings wherever
the host has them — here, and again on the pickle pool in
``test_fault_differential_pickle``, which pins the ``transport`` fixture.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.detector import CommutativityRaceDetector
from repro.core.parallel import ShardedDetector
from repro.core.supervise import SupervisorConfig
from repro.obs.registry import Registry
from repro.testing.faults import PLAN_ENV, FaultPlan, FaultSpec

from tests.faults.conftest import FAST_TIMEOUT, HANG_SECONDS, START_METHOD
from tests.support import (build_multi_object_trace,
                           race_snapshot, random_multi_object_program,
                           register_bindings)

# Seeds with known verdict variety (0/10/12/16/18 produce 126/52/16/59/232
# races over 4/5/4/3/2 objects; 11 is race-free with 4 objects).
SEEDS = (0, 10, 11, 12, 16, 18)


@pytest.fixture
def transport():
    """The ``backend`` under test: None lets the host pick."""
    return None


def corpus_case(seed):
    program = random_multi_object_program(seed, max_objects=6, max_ops=80)
    trace, bindings = build_multi_object_trace(program)
    sequential = CommutativityRaceDetector(keep_reports=True)
    register_bindings(sequential, bindings)
    for event in trace:
        sequential.process(event)
    return trace, bindings, sequential


def supervised_run(trace, bindings, plan, transport, retries=1,
                   timeout=60.0):
    obs = Registry(sample_interval=1)
    config = SupervisorConfig(shard_timeout=timeout, max_retries=retries,
                              backoff_base=0.0, wrap=plan.wrap)
    detector = ShardedDetector(workers=2, mp_context=START_METHOD,
                               supervisor=config, obs=obs,
                               backend=transport)
    register_bindings(detector, bindings)
    detector.run(trace)
    return detector, obs


def assert_identical(detector, sequential):
    assert ([race_snapshot(race) for race in detector.races]
            == [race_snapshot(race) for race in sequential.races])
    assert detector.stats == sequential.stats


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_fault_plans_preserve_output(seed, transport):
    trace, bindings, sequential = corpus_case(seed)
    plan = FaultPlan.seeded(seed, shards=2, retries=1)
    detector, obs = supervised_run(trace, bindings, plan, transport,
                                   retries=1)
    assert_identical(detector, sequential)
    if plan.has_faults() and len(bindings) > 1:
        # >=2 objects means >=2 shards, so at least one planned fault
        # actually fired — and must therefore be on the record.
        assert detector.faults
        assert obs.snapshot()["counters"]["shard_faults"] == \
            len(detector.faults)


def test_hang_past_timeout_preserves_output(transport):
    trace, bindings, sequential = corpus_case(0)
    plan = FaultPlan.build({0: FaultSpec("hang", times=99,
                                         seconds=HANG_SECONDS)})
    detector, _ = supervised_run(trace, bindings, plan, transport,
                                 retries=0, timeout=FAST_TIMEOUT)
    assert_identical(detector, sequential)
    assert detector.faults.count(kind="timeout") == 1
    assert detector.faults.count(kind="fallback") == 1


def test_killed_worker_preserves_output(transport):
    trace, bindings, sequential = corpus_case(16)
    plan = FaultPlan.build({1: FaultSpec("exit", times=1)})
    detector, _ = supervised_run(trace, bindings, plan, transport,
                                 retries=1, timeout=FAST_TIMEOUT)
    assert_identical(detector, sequential)
    # A dead shm child closes its result pipe, so it is caught at once; a
    # pool only notices that the job's result never arrives.
    kind = ("timeout" if detector.backend.selected == "pickle"
            else "worker-raised")
    assert detector.faults.count(kind=kind) == 1
    assert len(detector.faults) == 1


def test_unpicklable_results_on_every_shard_preserve_output(transport):
    trace, bindings, sequential = corpus_case(18)
    plan = FaultPlan(default=FaultSpec("bad-result", times=99))
    detector, _ = supervised_run(trace, bindings, plan, transport)
    assert_identical(detector, sequential)
    assert detector.faults.count(kind="result-unpicklable") >= 1
    assert detector.faults.count(kind="fallback") >= 1


# The CLI takes no transport flag: pinning the pickle pool means running
# it as a host without shared memory would.
NO_SHM_CLI = ("import sys, repro.core.backend as b; b._SHM_PROBE = False; "
              "from repro.cli import main; sys.exit(main(sys.argv[1:]))")


def run_cli(*argv, transport=None, env_extra=None):
    env = dict(os.environ, PYTHONPATH="src")
    if START_METHOD:
        env["REPRO_TEST_START_METHOD"] = START_METHOD
    env.update(env_extra or {})
    entry = (["-c", NO_SHM_CLI] if transport == "pickle"
             else ["-m", "repro.cli"])
    return subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True, env=env,
                          cwd=os.path.dirname(os.path.dirname(
                              os.path.dirname(os.path.abspath(__file__)))))


TRACE = "tests/data/multi_object_mixed.jsonl"
OBJECTS = ("--object", "a=accumulator", "--object", "d=dictionary",
           "--object", "r=register")


def test_cli_fault_plan_differential_with_stats_json(tmp_path, transport):
    """End to end through the real CLI: inject via REPRO_FAULT_PLAN,
    assert identical stdout and faults visible in --stats-json."""
    stats = tmp_path / "stats.json"
    plan = FaultPlan(default=FaultSpec("raise", times=1))
    clean = run_cli(TRACE, *OBJECTS)
    faulty = run_cli(TRACE, *OBJECTS, "--workers", "2",
                     "--shard-retries", "1", "--stats-json", str(stats),
                     transport=transport,
                     env_extra={PLAN_ENV: plan.to_env()})
    assert clean.returncode == faulty.returncode == 1  # races reported
    assert (faulty.stdout.replace("rd2 [2 workers]:", "rd2:")
            == clean.stdout)
    assert "tolerated" in faulty.stderr
    report = json.loads(stats.read_text())
    counts = report["faults"]["counts"]
    assert counts.get("shard/worker-raised", 0) >= 1
    assert report["stats"]["counters"]["shard_faults"] == sum(
        counts.values())


def test_cli_fault_free_run_reports_no_faults(tmp_path, transport):
    stats = tmp_path / "stats.json"
    result = run_cli(TRACE, *OBJECTS, "--workers", "2",
                     "--stats-json", str(stats), transport=transport)
    assert result.returncode == 1
    assert "tolerated" not in result.stderr
    report = json.loads(stats.read_text())
    assert "faults" not in report
    if transport == "pickle":
        assert "shm_bytes_written" not in report["stats"]["counters"]
