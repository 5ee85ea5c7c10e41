"""The central robustness claim, tested differentially.

For every injected fault the supervisor recovers from, the sharded run's
merged output must be *identical* — report for report, snapshot for
snapshot — to the fault-free sequential detector's on the same trace,
with the fault visible in the fault log (and, through the CLI, in the
``--stats-json`` report).

Seeds are chosen from the shared randomized-program corpus for verdict
variety (the list includes race-dense and race-free traces and 2-6 object
programs); the seeded fault plans spread worker exceptions and
unpicklable results across shards.  A hang costs a timeout window to
detect, so hang and kill faults get dedicated single-fault cases rather
than riding the seed sweep.  A killed worker closes its result pipe
unanswered, so it is caught at once, as ``worker-raised``.  Every failed
shard is replayed in-process at once: its fault log holds exactly one
``<kind>`` record and one ``fallback`` record.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.detector import CommutativityRaceDetector
from repro.core.parallel import ShardedDetector
from repro.obs.registry import Registry
from repro.testing.faults import PLAN_ENV, FaultPlan, FaultSpec

from tests.faults.conftest import FAST_TIMEOUT, HANG_SECONDS, START_METHOD
from tests.support import (build_multi_object_trace,
                           race_snapshot, random_multi_object_program,
                           register_bindings)

# Seeds with known verdict variety (0/10/12/16/18 produce 126/52/16/59/232
# races over 4/5/4/3/2 objects; 11 is race-free with 4 objects).
SEEDS = (0, 10, 11, 12, 16, 18)


def corpus_case(seed):
    program = random_multi_object_program(seed, max_objects=6, max_ops=80)
    trace, bindings = build_multi_object_trace(program)
    sequential = CommutativityRaceDetector(keep_reports=True)
    register_bindings(sequential, bindings)
    for event in trace:
        sequential.process(event)
    return trace, bindings, sequential


# The fault-log kind each injected fault surfaces as.
RECORDED_AS = {"raise": "worker-raised", "exit": "worker-raised",
               "hang": "timeout", "bad-result": "result-unpicklable"}


def supervised_run(trace, bindings, timeout=60.0):
    obs = Registry(sample_interval=1)
    detector = ShardedDetector(workers=2, mp_context=START_METHOD,
                               shard_timeout=timeout, obs=obs)
    register_bindings(detector, bindings)
    detector.run(trace)
    return detector, obs


def assert_identical(detector, sequential):
    assert ([race_snapshot(race) for race in detector.races]
            == [race_snapshot(race) for race in sequential.races])
    assert detector.stats == sequential.stats


def assert_one_fallback_each(detector, failed):
    """Each failed shard has one ``<kind>`` and one ``fallback`` record:
    ``failed`` maps shard index to the injected fault kind."""
    records = sorted((fault.shard, fault.kind) for fault in detector.faults)
    assert records == sorted(
        [(shard, RECORDED_AS[kind]) for shard, kind in failed.items()]
        + [(shard, "fallback") for shard in failed])


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_fault_plans_preserve_output(seed, inject):
    trace, bindings, sequential = corpus_case(seed)
    plan = FaultPlan.seeded(seed, shards=2)
    inject(plan)
    detector, obs = supervised_run(trace, bindings)
    assert_identical(detector, sequential)
    if plan.has_faults() and len(bindings) > 1:
        # >=2 objects means 2 shards, so every planned fault fired — and
        # must therefore be on the record, once.
        assert_one_fallback_each(
            detector, {shard: spec.kind for shard, spec in plan.shards})
        assert obs.snapshot()["counters"]["shard_faults"] == \
            len(detector.faults)


def test_hang_past_timeout_preserves_output(inject):
    trace, bindings, sequential = corpus_case(0)
    inject(FaultPlan.build({0: FaultSpec("hang", seconds=HANG_SECONDS)}))
    detector, _ = supervised_run(trace, bindings, timeout=FAST_TIMEOUT)
    assert_identical(detector, sequential)
    assert_one_fallback_each(detector, {0: "hang"})


def test_killed_worker_preserves_output(inject):
    trace, bindings, sequential = corpus_case(16)
    inject(FaultPlan.build({1: FaultSpec("exit")}))
    detector, _ = supervised_run(trace, bindings, timeout=FAST_TIMEOUT)
    assert_identical(detector, sequential)
    assert_one_fallback_each(detector, {1: "exit"})


def test_unpicklable_results_on_every_shard_preserve_output(inject):
    trace, bindings, sequential = corpus_case(18)
    inject(FaultPlan(default=FaultSpec("bad-result")))
    detector, _ = supervised_run(trace, bindings)
    assert_identical(detector, sequential)
    assert_one_fallback_each(detector, {0: "bad-result", 1: "bad-result"})


def run_cli(*argv, env_extra=None):
    env = dict(os.environ, PYTHONPATH="src")
    if START_METHOD:
        env["REPRO_TEST_START_METHOD"] = START_METHOD
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          capture_output=True, text=True, env=env,
                          cwd=os.path.dirname(os.path.dirname(
                              os.path.dirname(os.path.abspath(__file__)))))


TRACE = "tests/data/multi_object_mixed.jsonl"
OBJECTS = ("--object", "a=accumulator", "--object", "d=dictionary",
           "--object", "r=register")


def test_cli_fault_plan_differential_with_stats_json(tmp_path):
    """End to end through the real CLI: inject via REPRO_FAULT_PLAN,
    assert identical stdout and faults visible in --stats-json."""
    stats = tmp_path / "stats.json"
    plan = FaultPlan(default=FaultSpec("raise"))
    clean = run_cli(TRACE, *OBJECTS)
    faulty = run_cli(TRACE, *OBJECTS, "--workers", "2",
                     "--stats-json", str(stats),
                     env_extra={PLAN_ENV: plan.to_env()})
    assert clean.returncode == faulty.returncode == 1  # races reported
    assert (faulty.stdout.replace("rd2 [2 workers]:", "rd2:")
            == clean.stdout)
    assert "tolerated" in faulty.stderr
    report = json.loads(stats.read_text())
    counts = report["faults"]["counts"]
    assert counts == {"shard/worker-raised": 2, "shard/fallback": 2}
    assert report["stats"]["counters"]["shard_faults"] == sum(
        counts.values())


def test_cli_fault_free_run_reports_no_faults(tmp_path):
    stats = tmp_path / "stats.json"
    result = run_cli(TRACE, *OBJECTS, "--workers", "2",
                     "--stats-json", str(stats))
    assert result.returncode == 1
    assert "tolerated" not in result.stderr
    report = json.loads(stats.read_text())
    assert "faults" not in report
