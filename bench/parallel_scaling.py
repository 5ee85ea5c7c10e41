#!/usr/bin/env python
"""Parallel scaling: throughput of the two-phase sharded analyzer.

Generates a synthetic multi-object trace (default 100k events: dictionary
shards under put/get/size churn from several unordered threads), runs the
sequential :class:`CommutativityRaceDetector` as the baseline, then the
:class:`ShardedDetector` at increasing worker counts, and reports
events/second plus speedup over the sequential pass.  The differential
guarantee is asserted on the way: every configuration must report the
same number of races and conflict checks.

The pipeline's phase A (the happens-before pass) is inherently
sequential, so Amdahl bounds the speedup by the phase-B share of the
sequential runtime — the report prints that share so the measured
scaling can be judged against the ceiling.  On a single-CPU container the
pool configurations show overhead, not speedup; run on >=4 cores to see
the paper-style scaling (>=1.8x at 4 workers is typical, since phase B
dominates at realistic object counts).

``--smoke`` runs a scaled-down sweep plus the CI smoke job's gates (each
fails the run with exit 1 on a breach): the *observability overhead
gate* (detector timed with metrics disabled vs. the sampled registry
enabled, 5% budget), the *hot-path gate* (copy-on-write stamping must be
>=1.5x the copying freeze on the Phase-A microbench) and the backend
fan-out gate below.  End-to-end detector speed is measured by the
layered benchmark (``perfbench/``, declared in ``BENCHMARK.json``).

``--hotpath`` runs the stamping leg on its own and writes the
machine-readable results to ``BENCH_PR4.json`` (see ``--hotpath-json``).
It then runs the *backend fan-out leg*: the shm transport vs. the pickle
pool, end to end at 8 workers on a wide-clock butterfly workload, gated
at >=2.0x and recorded in ``BENCH_PR9.json`` (see
``--backend-json``) — the measurement behind shm being the transport
wherever the host has shared memory.  ``--ipc`` prints the same
workload's transport story — bytes on the wire and serialization seconds
per transport.

Run:  PYTHONPATH=src python bench/parallel_scaling.py [--events N]
          [--objects K] [--threads T] [--workers 1,2,4]
      PYTHONPATH=src python bench/parallel_scaling.py --smoke
      PYTHONPATH=src python bench/parallel_scaling.py --hotpath
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import random
import time

from repro.core.detector import CommutativityRaceDetector
from repro.core.hb import HappensBeforeTracker
from repro.core.parallel import ShardedDetector
from repro.core.serialize import load_trace
from repro.core.trace import TraceBuilder
from repro.core.vector_clock import MutableVectorClock, VectorClock
from repro.obs import Registry, build_report, write_report
from repro.specs import bundled_objects
from repro.specs.dictionary import dictionary_representation

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"


def synthetic_trace(events: int, objects: int, threads: int, seed: int = 0,
                    keys: int = 64, lock_rate: float = 0.05):
    """A put/get/size workload spread over ``objects`` dictionaries.

    Returns come from a per-object shadow dict, so the trace is a
    consistent execution.  ``keys`` sizes each object's key space and
    ``lock_rate`` the fraction of operations done under a shared lock —
    together they set the race density (smaller key space, less locking:
    more races).
    """
    rng = random.Random(seed)
    builder = TraceBuilder(root=0)
    worker_tids = list(range(1, threads + 1))
    for tid in worker_tids:
        builder.fork(0, tid)
    shadow = [dict() for _ in range(objects)]
    from repro.core.events import NIL
    budget = events - threads  # forks already emitted
    for _ in range(budget):
        tid = rng.choice(worker_tids)
        index = rng.randrange(objects)
        obj = f"d{index}"
        locked = rng.random() < lock_rate
        if locked:
            builder.acquire(tid, "L")
        roll = rng.random()
        if roll < 0.6:
            key = f"k{rng.randrange(keys)}"
            value = rng.randrange(8)
            prev = shadow[index].get(key, NIL)
            shadow[index][key] = value
            builder.invoke(tid, obj, "put", key, value, returns=prev)
        elif roll < 0.9:
            key = f"k{rng.randrange(keys)}"
            builder.invoke(tid, obj, "get", key,
                           returns=shadow[index].get(key, NIL))
        else:
            size = sum(1 for v in shadow[index].values() if v is not NIL)
            builder.invoke(tid, obj, "size", returns=size)
        if locked:
            builder.release(tid, "L")
    return builder.build(stamp=False)


def register_all(detector, objects: int):
    for index in range(objects):
        detector.register_object(f"d{index}", dictionary_representation())
    return detector


def timed_run(detector, trace):
    start = time.perf_counter()
    detector.run(trace)
    return time.perf_counter() - start


def overhead_gate(trace, objects: int, repeats: int = 12,
                  threshold: float = 0.05) -> bool:
    """Time the detector with obs off vs. sampled obs on; gate at 5%.

    One warmup run of each mode first (the first runs after startup pay
    allocator growth and code warmup that would otherwise be charged to
    whichever mode goes first), then the modes alternate and the
    best-of-``repeats`` wall times are compared, so slow outliers and
    machine drift don't decide the verdict.
    """
    def run_once(obs):
        detector = register_all(
            CommutativityRaceDetector(root=0, keep_reports=False, obs=obs),
            objects)
        return timed_run(detector, trace)

    def measure(rounds):
        run_once(None), run_once(Registry())        # warmup, discarded
        off, on = [], []
        for _ in range(rounds):
            off.append(run_once(None))
            on.append(run_once(Registry()))
        return min(on) / min(off) - 1.0, min(off), min(on)

    overhead, best_off, best_on = measure(repeats)
    if overhead > threshold:
        # One noise spike shouldn't fail CI: confirm with a longer rerun.
        print(f"\nobservability overhead gate: {overhead:+.1%} over a "
              f"{threshold:.0%} budget on the first attempt; re-measuring")
        overhead, best_off, best_on = measure(2 * repeats)
    verdict = "PASS" if overhead <= threshold else "FAIL"
    print(f"\nobservability overhead gate: disabled {best_off:.3f}s, "
          f"enabled {best_on:.3f}s -> {overhead:+.1%} "
          f"(budget {threshold:.0%}) [{verdict}]")
    return overhead <= threshold


# -- streaming memory gate (PR 5) -------------------------------------------


def phased_trace(events: int, objects: int = 8, threads: int = 8,
                 phases: int = 20, seed: int = 0, keys: int = 16):
    """A joinall-heavy workload: fork/churn/join-all phases, fresh every time.

    Each phase forks ``threads`` *new* tids, churns put/get/size over the
    shared objects with *phase-scoped* keys, then joins everything back
    into the root.  Once a phase's threads are joined, all of its access
    points are ordered before every live thread — so a pruning analyzer's
    footprint is one phase, while an unpruned one accumulates all of
    them: dead points, dead threads' clocks, and (the PR 4 leak) one
    interned ``(schema, value)`` entry per phase-scoped key it ever saw.
    """
    rng = random.Random(seed)
    builder = TraceBuilder(root=0)
    from repro.core.events import NIL
    churn = max(1, events // phases - 2 * threads)
    next_tid = 1
    emitted = 0
    phase = 0
    while emitted < events:
        tids = list(range(next_tid, next_tid + threads))
        next_tid += threads
        for tid in tids:
            builder.fork(0, tid)
        shadow = [dict() for _ in range(objects)]
        for _ in range(min(churn, max(1, events - emitted - 2 * threads))):
            tid = rng.choice(tids)
            index = rng.randrange(objects)
            obj = f"d{index}"
            key = f"p{phase}k{rng.randrange(keys)}"
            roll = rng.random()
            if roll < 0.6:
                value = rng.randrange(8)
                prev = shadow[index].get(key, NIL)
                shadow[index][key] = value
                builder.invoke(tid, obj, "put", key, value, returns=prev)
            elif roll < 0.9:
                builder.invoke(tid, obj, "get", key,
                               returns=shadow[index].get(key, NIL))
            else:
                size = sum(1 for v in shadow[index].values() if v is not NIL)
                builder.invoke(tid, obj, "size", returns=size)
        for tid in tids:
            builder.join(0, tid)
        emitted += 2 * threads + churn
        phase += 1
    return builder.build(stamp=False)


def streaming_memory_gate(events: int = 200_000, objects: int = 8,
                          threads: int = 8, phases: int = 20, seed: int = 0,
                          prune_interval: int = 256, window: int = 512,
                          max_ratio: float = 0.10) -> bool:
    """Bounded-memory gate: streaming peak footprint vs. unpruned total.

    Runs the phased joinall workload twice — batch with pruning off, then
    :class:`~repro.core.stream.StreamAnalyzer` with pruning/eviction on —
    and requires the streaming peak (active + interned points, sampled at
    every maintenance window) to stay under ``max_ratio`` of the unpruned
    final count.  Race verdicts are asserted identical first, so the gate
    cannot pass by dropping work.
    """
    from repro.core.stream import StreamAnalyzer

    print(f"\nstreaming memory gate: {events} events, {phases} fork/join "
          f"phases over {objects} objects ...")
    trace = phased_trace(events, objects=objects, threads=threads,
                         phases=phases, seed=seed)
    baseline = register_all(
        CommutativityRaceDetector(root=0, keep_reports=False), objects)
    baseline.run(trace)
    unpruned = (baseline.active_point_count()
                + baseline.interned_point_count())

    analyzer = register_all(
        StreamAnalyzer(root=0, keep_reports=False,
                       prune_interval=prune_interval, window=window),
        objects)
    analyzer.run(trace)
    assert analyzer.stats.races == baseline.stats.races, (
        f"verdict drift under streaming: {analyzer.stats.races} != "
        f"{baseline.stats.races}")

    peak = analyzer.peak_active + analyzer.peak_interned
    ratio = peak / unpruned if unpruned else 0.0
    verdict = "PASS" if ratio < max_ratio else "FAIL"
    print(f"  unpruned final footprint: "
          f"{baseline.active_point_count()} active + "
          f"{baseline.interned_point_count()} interned = {unpruned} points")
    print(f"  streaming peak footprint: {analyzer.peak_active} active + "
          f"{analyzer.peak_interned} interned = {peak} points "
          f"({analyzer.stats.points_pruned} pruned, "
          f"{analyzer.stats.interned_points_evicted} evicted, "
          f"{analyzer.threads_retired} threads retired)")
    print(f"streaming memory gate: {ratio:.1%} of unpruned "
          f"(budget {max_ratio:.0%}) [{verdict}]")
    return ratio < max_ratio


# -- hot-path microbench (PR 4) ---------------------------------------------


def _seed_stamp_next(self, tid):
    """The pre-CoW per-event stamp: advance, then copy the whole dict.

    Monkeypatched over ``MutableVectorClock.stamp_next`` for the seed
    baselines of the hot-path benchmarks.  The guarded invalidation keeps
    the CoW bookkeeping of the *other* operations (fork/join/acq/rel still
    run the real handlers) consistent, so verdicts are unchanged.
    """
    entries = self._entries
    entries[tid] = entries.get(tid, 0) + 1
    if self._base is not None:
        self._invalidate()
    return VectorClock._trusted(dict(entries))


@contextlib.contextmanager
def _seed_stamping():
    """Run the enclosed block under the seed's always-copy stamping."""
    saved = MutableVectorClock.stamp_next
    MutableVectorClock.stamp_next = _seed_stamp_next
    try:
        yield
    finally:
        MutableVectorClock.stamp_next = saved


def _interleaved_best(run_fast, run_seed, repeats: int):
    """Warm both modes up once, then alternate and keep best-of-N times.

    The same discipline as the overhead gates: interleaving means machine
    drift hits both modes alike, and the minimum discards GC/scheduler
    outliers.
    """
    run_fast(), run_seed()                          # warmup, discarded
    fast, seed = [], []
    for _ in range(repeats):
        fast.append(run_fast())
        seed.append(run_seed())
    return min(fast), min(seed)


def stamping_bench(events: int, threads: int, seed: int = 0,
                   repeats: int = 5) -> dict:
    """Phase-A stamping alone: copy-on-write freeze vs. per-event copy.

    Runs just the happens-before tracker over a synthetic trace — the
    sequential Phase A of the sharded pipeline is exactly this loop — and
    compares the fused CoW ``stamp_next`` against the seed's
    advance-then-copy-the-dict stamp.
    """
    trace = synthetic_trace(events, objects=4, threads=threads, seed=seed)

    def observe_all():
        tracker = HappensBeforeTracker(root=trace.root)
        start = time.perf_counter()
        for event in trace:
            tracker.observe(event)
        return time.perf_counter() - start

    def run_seed():
        with _seed_stamping():
            return observe_all()

    best_cow, best_seed = _interleaved_best(observe_all, run_seed, repeats)
    return {
        "events": len(trace),
        "threads": threads,
        "cow_seconds": best_cow,
        "seed_seconds": best_seed,
        "cow_events_per_s": len(trace) / best_cow,
        "seed_events_per_s": len(trace) / best_seed,
        "speedup": best_seed / best_cow,
    }


def hotpath_gate(events: int, threads: int, seed: int = 0,
                 repeats: int = 5, json_path: str | None = None,
                 stamping_min: float = 1.5) -> bool:
    """Run the stamping leg, print it, gate on its floor, write the JSON.

    Copy-on-write stamping must be >=1.5x the seed's always-copy stamp on
    the Phase-A microbench (100k events at least, so startup noise cannot
    decide it).  As with the overhead gates, a first-attempt breach
    triggers one longer re-measurement before the verdict sticks.
    """
    def suite(rounds):
        return {
            "benchmark": "hotpath",
            "config": {"events": events, "threads": threads, "seed": seed,
                       "repeats": rounds},
            "stamping": stamping_bench(max(events, 100_000),
                                       threads=max(threads, 16),
                                       seed=seed, repeats=rounds),
        }

    results = suite(repeats)
    if results["stamping"]["speedup"] < stamping_min:
        print(f"\nhot-path gate: stamping "
              f"{results['stamping']['speedup']:.2f}x below the "
              f"{stamping_min:.1f}x floor on the first attempt; re-measuring")
        results = suite(2 * repeats)
    stamping = results["stamping"]
    ok = stamping["speedup"] >= stamping_min
    results["gates"] = {"stamping_min": stamping_min, "pass": ok}
    print("\nhot-path microbench (interleaved, best of "
          f"{results['config']['repeats']})")
    print(f"  stamping   ({stamping['threads']} threads): "
          f"CoW {stamping['cow_events_per_s']:>9.0f} ev/s, "
          f"seed {stamping['seed_events_per_s']:>9.0f} ev/s -> "
          f"{stamping['speedup']:.2f}x (floor {stamping_min:.1f}x)")
    print(f"hot-path gate: [{'PASS' if ok else 'FAIL'}]")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as out:
            json.dump(results, out, indent=2, sort_keys=True)
            out.write("\n")
        print(f"hot-path results written to {json_path}")
    return ok


# -- predictive overhead leg (PR 10) -----------------------------------------


def predict_overhead_gate(repeats: int = 5, passes: int = 10,
                          predict_window: int = 64,
                          max_ratio: float = 2.0,
                          json_path: str | None = None) -> bool:
    """Predictive overhead on the golden corpus, gated at < ``max_ratio``.

    Replays the frozen golden traces witnessed-only and with
    ``predict_window`` set, interleaved best-of-N; the predictive run
    (candidate closures + witness scheduling + validation replays) must
    stay under ``max_ratio`` times the witnessed-only wall time.
    Witnessed verdicts are asserted identical between the modes first —
    the contract says prediction only *adds* — so the gate cannot pass
    by dropping work.  A first-attempt breach triggers one longer
    re-measurement before the verdict sticks.
    """
    registry = bundled_objects()
    cases = []
    for path in sorted(GOLDEN_DIR.glob("*.jsonl")):
        expected_path = GOLDEN_DIR / "expected" / f"{path.stem}.json"
        with open(expected_path, encoding="utf-8") as stream:
            bindings = json.load(stream)["bindings"]
        with open(path, encoding="utf-8") as stream:
            trace = load_trace(stream)
        cases.append((path.stem, trace, bindings))
    if not cases:
        raise SystemExit(f"no golden traces found under {GOLDEN_DIR}")
    events_per_pass = sum(len(trace) for _, trace, _ in cases)

    def replay_all(window):
        verdicts = []
        predictions = 0
        total = 0.0
        for _ in range(passes):
            verdicts.clear()
            predictions = 0
            for _, trace, bindings in cases:
                detector = CommutativityRaceDetector(
                    root=trace.root, predict_window=window)
                for obj, kind in bindings.items():
                    detector.register_object(
                        obj, registry[kind].representation())
                start = time.perf_counter()
                detector.run(trace)
                total += time.perf_counter() - start
                verdicts.append((detector.stats.races,
                                 detector.stats.conflict_checks))
                predictions += len(detector.predicted)
        return total, verdicts, predictions

    print(f"\npredictive overhead gate: {len(cases)} golden traces, "
          f"{events_per_pass} events/pass x {passes} passes, "
          f"window {predict_window} ...")
    _, plain_verdicts, _ = replay_all(0)
    _, predict_verdicts, predicted = replay_all(predict_window)
    assert predict_verdicts == plain_verdicts, (
        "witnessed verdict drift under prediction: "
        f"{predict_verdicts} != {plain_verdicts}")

    def measure(rounds):
        best_plain, best_predict = _interleaved_best(
            lambda: replay_all(0)[0],
            lambda: replay_all(predict_window)[0], rounds)
        return best_plain, best_predict, best_predict / best_plain

    best_plain, best_predict, ratio = measure(repeats)
    if ratio >= max_ratio:
        print(f"  predictive overhead {ratio:.2f}x over the "
              f"{max_ratio:.1f}x budget on the first attempt; re-measuring")
        best_plain, best_predict, ratio = measure(2 * repeats)
    ok = ratio < max_ratio

    print(f"  witnessed-only: {best_plain:.3f}s "
          f"({events_per_pass * passes / best_plain:,.0f} ev/s)")
    print(f"  predictive:     {best_predict:.3f}s "
          f"({events_per_pass * passes / best_predict:,.0f} ev/s, "
          f"{predicted} predicted race(s)/pass)")
    print(f"predictive overhead gate: {ratio:.2f}x of witnessed-only "
          f"(budget {max_ratio:.1f}x) [{'PASS' if ok else 'FAIL'}]")

    if json_path:
        record = {
            "benchmark": "predict_overhead",
            "config": {"traces": [name for name, _, _ in cases],
                       "events_per_pass": events_per_pass,
                       "passes": passes,
                       "predict_window": predict_window,
                       "repeats": repeats},
            "witnessed_seconds": best_plain,
            "predict_seconds": best_predict,
            "predicted_per_pass": predicted,
            "ratio": ratio,
            "gates": {"max_ratio": max_ratio, "pass": ok},
        }
        with open(json_path, "w", encoding="utf-8") as out:
            json.dump(record, out, indent=2, sort_keys=True)
            out.write("\n")
        print(f"predictive results written to {json_path}")
    return ok


# -- shared-memory backend fan-out leg (PR 9) --------------------------------


def fanout_trace(events: int, objects: int = 8, threads: int = 768,
                 put_share: float = 0.9, seed: int = 0):
    """Wide-clock fan-out workload: butterfly mixing, then lock-free churn.

    A hypercube gossip prologue (``log2(threads)`` rounds of pairwise
    lock handoffs — concurrent pairs, never a total order, so the
    epoch-adaptive stamping cannot collapse the clocks) leaves every
    thread with a full-width vector clock.  The churn phase then runs
    sync-free put/get rounds on thread-private keys: each stamped action
    carries an O(threads) clock but opens no new synchronization window.
    This is the shape that separates the execution backends — the pickle
    backend re-serializes the wide clock mapping on every single action,
    while the shm rings ship each clock base once per shard and stream
    8-byte stamps after that.
    """
    builder = TraceBuilder(root=0)
    tids = list(range(1, threads + 1))
    for tid in tids:
        builder.fork(0, tid)
    rounds = max(1, (threads - 1).bit_length())
    for r in range(rounds):
        step = 1 << r
        for i in range(threads):
            j = i ^ step
            if j >= threads or i > j:
                continue
            lock = f"m{r}.{i}"
            a, b = tids[i], tids[j]
            builder.acquire(a, lock)
            builder.release(a, lock)
            builder.acquire(b, lock)      # b inherits a's clock
            builder.release(b, lock)
            builder.acquire(a, lock)      # a inherits b's in return
            builder.release(a, lock)
    from repro.core.events import NIL
    rng = random.Random(seed)
    shadow: dict = {}
    for n in range(events):
        tid = tids[n % threads]
        obj = f"d{n % objects}"
        key = f"t{tid}"
        if rng.random() < put_share:
            builder.invoke(tid, obj, "put", key, n, returns=NIL)
            shadow[(obj, key)] = n
        else:
            builder.invoke(tid, obj, "get", key,
                           returns=shadow.get((obj, key), NIL))
    return builder.build(stamp=False)


def backend_fanout_bench(events: int = 60_000, objects: int = 8,
                         threads: int = 768, workers: int = 8,
                         repeats: int = 2, seed: int = 0) -> dict:
    """End-to-end pickle vs. shm on the 8-worker fan-out workload.

    Each backend's warmup run carries an exact-sampling obs registry, so
    the IPC story (bytes on the wire, serialization seconds) comes out of
    the same suite without ever instrumenting a timed run.  Verdicts are
    asserted identical between the backends before any time is believed.
    """
    trace = fanout_trace(events, objects=objects, threads=threads, seed=seed)

    def run_once(backend, obs=None):
        detector = register_all(
            ShardedDetector(root=0, workers=workers, backend=backend,
                            keep_reports=False, obs=obs), objects)
        return timed_run(detector, trace), detector

    ipc: dict = {}
    verdicts = {}
    selected = {}

    def instrumented(backend):
        obs = Registry(sample_interval=1)
        seconds, detector = run_once(backend, obs=obs)
        snap = obs.snapshot()
        counters, timers = snap["counters"], snap["timers"]
        ipc[backend] = {
            "ipc_bytes_pickled": counters.get("ipc_bytes_pickled", 0),
            "shm_bytes_written": counters.get("shm_bytes_written", 0),
            "serialize_seconds": round(
                timers.get("ipc_serialize", {}).get("total_ns", 0) / 1e9, 4),
            "shm_encode_seconds": round(
                timers.get("shm_encode", {}).get("total_ns", 0) / 1e9, 4),
            "shm_ring_hwm": snap["gauges"].get("shm_ring_hwm", 0),
        }
        verdicts[backend] = (detector.stats.races,
                             detector.stats.conflict_checks)
        selected[backend] = detector.backend.selected
        return seconds

    # Warmup (discarded, doubles as the IPC measurement), then alternate.
    instrumented("pickle"), instrumented("shm")
    assert verdicts["pickle"] == verdicts["shm"], (
        f"verdict drift between backends: {verdicts}")
    times: dict = {"pickle": [], "shm": []}
    for _ in range(repeats):
        for backend in ("pickle", "shm"):
            times[backend].append(run_once(backend)[0])
    best = {backend: min(samples) for backend, samples in times.items()}
    return {
        "events": len(trace),
        "churn_events": events,
        "objects": objects,
        "threads": threads,
        "workers": workers,
        "repeats": repeats,
        "selected": selected,
        "races": verdicts["pickle"][0],
        "pickle_seconds": best["pickle"],
        "shm_seconds": best["shm"],
        "pickle_events_per_s": len(trace) / best["pickle"],
        "shm_events_per_s": len(trace) / best["shm"],
        "ipc": ipc,
        "speedup": best["pickle"] / best["shm"],
    }


def backend_gate(events: int = 60_000, objects: int = 8, threads: int = 768,
                 workers: int = 8, repeats: int = 2, seed: int = 0,
                 fanout_min: float = 2.0,
                 json_path: str | None = "BENCH_PR9.json") -> bool:
    """The PR 9 acceptance gate: shm >=2x pickle, end to end, 8 workers.

    Skips (passing, recorded as skipped) when the host cannot select the
    shm backend at all — the fallback chain would silently time pickle
    against itself.  A first-attempt breach triggers one longer
    re-measurement before the verdict sticks, mirroring the other gates.
    """
    from repro.core.backend import shm_available
    if not shm_available():
        print("backend fan-out gate: [SKIP] no shared memory on this host")
        if json_path:
            record = {"benchmark": "backend_fanout",
                      "skipped": "no shared memory on this host"}
            with open(json_path, "w", encoding="utf-8") as out:
                json.dump(record, out, indent=2, sort_keys=True)
                out.write("\n")
        return True

    results = backend_fanout_bench(events, objects, threads, workers,
                                   repeats=repeats, seed=seed)
    if results["speedup"] < fanout_min:
        print(f"\nbackend fan-out gate: {results['speedup']:.2f}x below the "
              f"{fanout_min:.1f}x floor on the first attempt; re-measuring")
        results = backend_fanout_bench(events, objects, threads, workers,
                                       repeats=2 * repeats, seed=seed)
    ok = results["speedup"] >= fanout_min
    results["gates"] = {"fanout_min": fanout_min, "pass": ok}
    record = {"benchmark": "backend_fanout", "fanout": results,
              "gates": results.pop("gates")}

    ipc = results["ipc"]
    print(f"\nbackend fan-out ({results['threads']} threads, "
          f"{results['workers']} workers, {results['events']} events, "
          f"best of {results['repeats']})")
    print(f"  pickle: {results['pickle_seconds']:>7.3f}s "
          f"{results['pickle_events_per_s']:>9.0f} ev/s  "
          f"({ipc['pickle']['ipc_bytes_pickled']:>11,} B pickled, "
          f"{ipc['pickle']['serialize_seconds']:.3f}s serialize)")
    print(f"  shm:    {results['shm_seconds']:>7.3f}s "
          f"{results['shm_events_per_s']:>9.0f} ev/s  "
          f"({ipc['shm']['shm_bytes_written']:>11,} B rings, "
          f"{ipc['shm']['ipc_bytes_pickled']:,} B init pickles)")
    print(f"  speedup: {results['speedup']:.2f}x (floor {fanout_min:.1f}x)")
    print(f"backend fan-out gate: [{'PASS' if ok else 'FAIL'}]")

    if json_path:
        with open(json_path, "w", encoding="utf-8") as out:
            json.dump(record, out, indent=2, sort_keys=True)
            out.write("\n")
        print(f"backend fan-out results written to {json_path}")
    return ok


def ipc_report(events: int = 60_000, objects: int = 8, threads: int = 768,
               workers: int = 8, seed: int = 0) -> None:
    """The ``--ipc`` leg: bytes on the wire and serialization seconds.

    One instrumented run per backend over the fan-out workload, printed
    as a per-backend transport table — the IPC contract (init pickles
    stay constant, ring bytes carry the stream) stated in numbers.
    """
    results = backend_fanout_bench(events, objects, threads, workers,
                                   repeats=1, seed=seed)
    ipc = results["ipc"]
    header = (f"{'backend':>8} {'wall s':>8} {'pickled B':>12} "
              f"{'ring B':>12} {'serialize s':>12} {'encode s':>9}")
    print(f"\nIPC transport report ({results['events']} events, "
          f"{threads} threads, {workers} workers)")
    print(header)
    print("-" * len(header))
    for backend in ("pickle", "shm"):
        stats = ipc[backend]
        wall = results[f"{backend}_seconds"]
        print(f"{backend:>8} {wall:>8.3f} "
              f"{stats['ipc_bytes_pickled']:>12,} "
              f"{stats['shm_bytes_written']:>12,} "
              f"{stats['serialize_seconds']:>12.3f} "
              f"{stats['shm_encode_seconds']:>9.3f}")
    print(f"speedup: {results['speedup']:.2f}x "
          f"(shm ring high-water mark {ipc['shm']['shm_ring_hwm']:,} B)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--objects", type=int, default=32)
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--workers", default="1,2,4",
                        help="comma-separated worker counts to sweep")
    parser.add_argument("--keys", type=int, default=64,
                        help="key space per object (smaller = racier)")
    parser.add_argument("--lock-rate", type=float, default=0.05,
                        help="fraction of ops under a shared lock")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: scaled-down sweep plus the overhead "
                             "and hot-path gates (exit 1 on any breach)")
    parser.add_argument("--hotpath", action="store_true",
                        help="run only the hot-path microbenches (Phase-A "
                             "stamping, then the backend fan-out leg), "
                             "write the results JSON, and gate on the "
                             "speedup floors (exit 1 on a breach)")
    parser.add_argument("--stream", action="store_true",
                        help="run only the streaming memory gate: peak "
                             "active+interned points of a pruning "
                             "StreamAnalyzer over a joinall-heavy phased "
                             "trace must stay under 10%% of the unpruned "
                             "footprint (exit 1 on a breach)")
    parser.add_argument("--predict", action="store_true",
                        help="run only the predictive overhead gate: the "
                             "golden corpus with --predict-style analysis "
                             "must stay under 2x the witnessed-only wall "
                             "time (exit 1 on a breach)")
    parser.add_argument("--predict-json", metavar="PATH",
                        default="BENCH_PR10.json",
                        help="where --predict writes the predictive leg's "
                             "record (default: %(default)s)")
    parser.add_argument("--ipc", action="store_true",
                        help="run only the IPC transport report: one "
                             "instrumented fan-out run per execution "
                             "backend, printing bytes on the wire and "
                             "serialization seconds for each")
    parser.add_argument("--hotpath-json", metavar="PATH",
                        default="BENCH_PR4.json",
                        help="where --hotpath/--smoke write the hot-path "
                             "results (default: %(default)s)")
    parser.add_argument("--backend-json", metavar="PATH",
                        default="BENCH_PR9.json",
                        help="where --hotpath/--smoke write the backend "
                             "fan-out leg's record "
                             "(default: %(default)s)")
    parser.add_argument("--stats-json", metavar="PATH",
                        help="write the sequential run's observability "
                             "report (exact sampling) to PATH")
    args = parser.parse_args(argv)
    if args.smoke:
        args.events = min(args.events, 20_000)
        args.objects = min(args.objects, 8)
        args.threads = min(args.threads, 4)
        args.workers = "2"
    worker_counts = [int(w) for w in args.workers.split(",")]

    if args.stream:
        # The gate's default workload is 200k events (the acceptance
        # criterion's size); an explicit --events overrides it.
        import sys
        given = argv if argv is not None else sys.argv[1:]
        events = args.events if "--events" in given else 200_000
        ok = streaming_memory_gate(events=events, seed=args.seed)
        return 0 if ok else 1

    if args.predict:
        ok = predict_overhead_gate(repeats=3 if args.smoke else 5,
                                   passes=5 if args.smoke else 10,
                                   json_path=args.predict_json)
        return 0 if ok else 1

    if args.ipc:
        ipc_report(seed=args.seed)
        return 0

    if args.hotpath:
        ok = hotpath_gate(args.events, args.threads, seed=args.seed,
                          repeats=3 if args.smoke else 5,
                          json_path=args.hotpath_json)
        ok = backend_gate(seed=args.seed,
                          repeats=1 if args.smoke else 2,
                          json_path=args.backend_json) and ok
        return 0 if ok else 1

    print(f"generating {args.events} events over {args.objects} objects, "
          f"{args.threads} threads ...")
    trace = synthetic_trace(args.events, args.objects, args.threads,
                            args.seed, keys=args.keys,
                            lock_rate=args.lock_rate)

    # Throughput mode: count races, don't materialize reports (the same
    # keep_reports=False knob the long sequential benchmarks use).
    sequential = register_all(
        CommutativityRaceDetector(root=0, keep_reports=False), args.objects)
    seq_seconds = timed_run(sequential, trace)
    baseline = (len(trace) / seq_seconds, seq_seconds)
    reference = (sequential.stats.races, sequential.stats.conflict_checks)

    # Phase-A share of the sequential cost bounds the parallel speedup.
    probe = ShardedDetector(root=0, workers=0)
    start = time.perf_counter()
    probe._stamp_and_partition(trace)
    phase_a_seconds = time.perf_counter() - start
    serial_share = min(1.0, phase_a_seconds / seq_seconds)
    amdahl = 1.0 / (serial_share + (1 - serial_share) / max(worker_counts))

    header = f"{'config':>12} {'seconds':>9} {'events/s':>10} {'speedup':>8}"
    print(f"\n{header}\n{'-' * len(header)}")
    print(f"{'sequential':>12} {seq_seconds:>9.3f} "
          f"{baseline[0]:>10.0f} {'1.00x':>8}")
    for workers in worker_counts:
        detector = register_all(
            ShardedDetector(root=0, workers=workers, keep_reports=False),
            args.objects)
        seconds = timed_run(detector, trace)
        got = (detector.stats.races, detector.stats.conflict_checks)
        assert got == reference, (
            f"verdict drift at workers={workers}: {got} != {reference}")
        speedup = seq_seconds / seconds
        print(f"{f'{workers} workers':>12} {seconds:>9.3f} "
              f"{len(trace) / seconds:>10.0f} {speedup:>7.2f}x")
    print(f"\nphase A (sequential HB pass): {phase_a_seconds:.3f}s "
          f"({serial_share:.0%} of sequential run)")
    print(f"Amdahl ceiling at {max(worker_counts)} workers: "
          f"{amdahl:.2f}x; races found: {reference[0]}")

    if args.stats_json:
        obs = Registry(sample_interval=1)
        instrumented = register_all(
            CommutativityRaceDetector(root=0, keep_reports=False, obs=obs),
            args.objects)
        instrumented.run(trace)
        from repro.obs import publish_detector_stats
        publish_detector_stats(obs, instrumented.stats)
        report = build_report(obs, meta={
            "detector": "rd2", "workers": 1, "events": len(trace),
            "trace": "synthetic", "seed": args.seed,
        })
        with open(args.stats_json, "w", encoding="utf-8") as out:
            write_report(report, out)
        print(f"observability report written to {args.stats_json}")

    if args.smoke:
        # The observability gate times the default detector, so its
        # ENUMERATE loop is held to the 5% obs budget.
        ok = overhead_gate(trace, args.objects)
        ok = hotpath_gate(args.events, args.threads, seed=args.seed,
                          repeats=3, json_path=args.hotpath_json) and ok
        ok = backend_gate(seed=args.seed, repeats=1,
                          json_path=args.backend_json) and ok
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
