"""Benchmark: per-event analysis overhead of each detector.

Micro-level counterpart of Table 2's performance columns: the same recorded
trace is replayed through every analyzer, isolating pure analysis cost from
workload and scheduling cost.  The ``_obs`` variants replay with the
sampled metrics registry enabled, and ``test_obs_overhead_within_budget``
gates the enabled/disabled ratio at 5% on two traces: the interface
workload and a 20k-event churn over eight dictionaries.  The other CI
gates live in ``test_gates.py``.
"""

import time

import pytest

from repro.baselines.eraser import Eraser
from repro.baselines.fasttrack import FastTrack
from repro.core.detector import CommutativityRaceDetector, Strategy
from repro.core.hb import HappensBeforeTracker
from repro.core.trace import TraceBuilder
from repro.obs import Registry
from repro.sched.workload import WorkloadConfig, generate_trace
from repro.specs.dictionary import dictionary_representation


def interface_trace():
    workload = generate_trace(WorkloadConfig(
        threads=4, ops_per_thread=150, seed=1,
        objects=(("dictionary", 2),)))
    return workload


def memory_trace():
    builder = TraceBuilder(root=0)
    for worker in range(1, 5):
        builder.fork(0, worker)
    import random
    rng = random.Random(0)
    for index in range(600):
        tid = rng.randrange(1, 5)
        location = f"x{rng.randrange(32)}"
        if rng.random() < 0.3:
            builder.write(tid, location)
        else:
            builder.read(tid, location)
    return builder.build(stamp=False)


def test_overhead_hb_tracking_only(benchmark):
    workload = interface_trace()

    def run():
        tracker = HappensBeforeTracker(root=0)
        for event in workload.trace:
            tracker.observe(event)

    benchmark(run)


def test_overhead_rd2(benchmark):
    workload = interface_trace()

    def run():
        detector = CommutativityRaceDetector(
            root=0, strategy=Strategy.ENUMERATE, keep_reports=False)
        for obj_id in workload.objects:
            detector.register_object(obj_id, dictionary_representation())
        for event in workload.trace:
            detector.process(event)
        return detector

    detector = benchmark(run)
    benchmark.extra_info["races"] = detector.stats.races
    benchmark.extra_info["events"] = detector.stats.events


def test_overhead_fasttrack(benchmark):
    trace = memory_trace()

    def run():
        detector = FastTrack(root=0, keep_reports=False)
        for event in trace:
            detector.process(event)
        return detector

    detector = benchmark(run)
    benchmark.extra_info["races"] = detector.race_count


def test_overhead_djit(benchmark):
    """The epochs-vs-vector-clocks comparison of the FastTrack paper."""
    from repro.baselines.djit import Djit
    trace = memory_trace()

    def run():
        detector = Djit(root=0, keep_reports=False)
        for event in trace:
            detector.process(event)
        return detector

    detector = benchmark(run)
    benchmark.extra_info["races"] = detector.race_count


def test_overhead_rd2_with_pruning(benchmark):
    workload = interface_trace()

    def run():
        detector = CommutativityRaceDetector(
            root=0, strategy=Strategy.ENUMERATE, keep_reports=False,
            prune_interval=32)
        for obj_id in workload.objects:
            detector.register_object(obj_id, dictionary_representation())
        for event in workload.trace:
            detector.process(event)
        return detector

    detector = benchmark(run)
    benchmark.extra_info["active_points"] = detector.active_point_count()


def test_overhead_eraser(benchmark):
    trace = memory_trace()

    def run():
        detector = Eraser(root=0, keep_reports=False)
        for event in trace:
            detector.process(event)
        return detector

    detector = benchmark(run)
    benchmark.extra_info["warnings"] = detector.warning_count


# -- observability overhead ---------------------------------------------------


def _rd2_replay(trace, objects, obs):
    detector = CommutativityRaceDetector(
        root=0, strategy=Strategy.ENUMERATE, keep_reports=False, obs=obs)
    for obj_id in objects:
        detector.register_object(obj_id, dictionary_representation())
    for event in trace:
        detector.process(event)
    return detector


def test_overhead_rd2_obs_sampled(benchmark):
    """rd2 with the sampled registry — compare against test_overhead_rd2."""
    workload = interface_trace()
    detector = benchmark(
        lambda: _rd2_replay(workload.trace, workload.objects, Registry()))
    benchmark.extra_info["races"] = detector.stats.races
    benchmark.extra_info["sample_interval"] = Registry().sample_interval


def test_overhead_rd2_obs_exact(benchmark):
    """rd2 with exact (interval 1) attribution — the offline CLI mode."""
    workload = interface_trace()
    detector = benchmark(
        lambda: _rd2_replay(workload.trace, workload.objects,
                            Registry(sample_interval=1)))
    benchmark.extra_info["races"] = detector.stats.races


def test_overhead_fasttrack_obs(benchmark):
    trace = memory_trace()

    def run():
        detector = FastTrack(root=0, keep_reports=False, obs=Registry())
        detector.run(trace)
        return detector

    detector = benchmark(run)
    benchmark.extra_info["races"] = detector.race_count


@pytest.mark.parametrize("workload, rounds",
                         [("interface", 10), ("churn20k", 12)])
def test_obs_overhead_within_budget(workload, rounds, synthetic_trace,
                                    interleaved_best):
    """Enabled sampled obs must stay within 5% of disabled, best-of-N.

    A deterministic gate rather than a pytest-benchmark comparison so it
    can fail the suite: one warmup pair, then alternating runs, comparing
    minima (robust to scheduler noise), with one confirming re-measure
    before declaring a breach.
    """
    if workload == "interface":
        generated = generate_trace(WorkloadConfig(
            threads=4, ops_per_thread=400, seed=2,
            objects=(("dictionary", 2),)))
        trace, objects = generated.trace, generated.objects
    else:
        trace = synthetic_trace(20_000, objects=8, threads=4, seed=0)
        objects = [f"d{index}" for index in range(8)]

    def run_once(obs):
        start = time.perf_counter()
        _rd2_replay(trace, objects, obs)
        return time.perf_counter() - start

    def measure(rounds):
        off, on = interleaved_best(lambda: run_once(None),
                                   lambda: run_once(Registry()), rounds)
        return on / off - 1.0

    overhead = measure(rounds)
    if overhead > 0.05:
        overhead = measure(2 * rounds)
    assert overhead <= 0.05, (
        f"sampled observability costs {overhead:+.1%}, budget is 5%")
