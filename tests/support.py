"""Shared helpers and hypothesis strategies for the test-suite.

The recurring need is *consistent* random traces: fork/join/lock structure
plus actions whose return values are realizable at their linearization
points.  ``trace_strategy`` builds them via the executable semantics, for
any bundled object kind.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Tuple

from hypothesis import strategies as st

from repro.core.direct import DirectDetector
from repro.core.events import Action, EventKind
from repro.core.plan import _as_clock
from repro.core.trace import Trace, TraceBuilder
from repro.specs import BundledObject, bundled_objects


# -- consistent random traces ------------------------------------------------------
#
# A trace is driven by a compact "program": a seed, a thread count, an op
# count and a lock-usage rate.  Hypothesis shrinks over these integers, and
# the builder below deterministically expands them into a consistent trace.

@st.composite
def trace_programs(draw,
                   kinds: Tuple[str, ...] = ("dictionary", "set", "counter",
                                             "register", "msetlog",
                                             "accumulator", "queue")):
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    threads = draw(st.integers(min_value=1, max_value=4))
    ops = draw(st.integers(min_value=0, max_value=30))
    lock_rate = draw(st.sampled_from((0.0, 0.3, 1.0)))
    join_all = draw(st.booleans())
    return (kind, seed, threads, ops, lock_rate, join_all)


def build_trace(program, registry=None) -> Tuple[Trace, BundledObject]:
    """Expand a trace program into a consistent stamped trace."""
    kind, seed, threads, ops, lock_rate, join_all = program
    registry = registry or bundled_objects()
    bundled = registry[kind]
    semantics = bundled.semantics()
    state = semantics.initial_state()
    rng = random.Random(seed)
    builder = TraceBuilder(root=0)
    worker_tids = list(range(1, threads + 1))
    for tid in worker_tids:
        builder.fork(0, tid)
    remaining = {tid: ops for tid in worker_tids}
    held: Dict[int, bool] = {tid: False for tid in worker_tids}
    while any(remaining.values()):
        tid = rng.choice([t for t, n in remaining.items() if n])
        use_lock = rng.random() < lock_rate
        if use_lock:
            builder.acquire(tid, "L")
        method, args = semantics.sample_invocation(rng)
        state, returns = semantics.apply(state, method, args)
        builder.action(tid, Action("obj", method, args, returns))
        if use_lock:
            builder.release(tid, "L")
        remaining[tid] -= 1
    if join_all:
        builder.join_all(0, worker_tids)
        method, args = semantics.sample_invocation(rng)
        state, returns = semantics.apply(state, method, args)
        builder.action(0, Action("obj", method, args, returns))
    return builder.build(), bundled


# -- multi-object traces (the sharded analyzer's natural workload) -----------------
#
# Same program-expansion idea, but the trace touches several shared objects
# of (possibly) different kinds, so object sharding has something to chew
# on.  ``random_multi_object_program`` is the plain-random twin used by the
# seeded differential loops (>=100 seeds without hypothesis machinery).

DEFAULT_KINDS: Tuple[str, ...] = ("dictionary", "set", "counter", "register",
                                  "msetlog", "accumulator", "queue")


@st.composite
def multi_object_programs(draw, kinds: Tuple[str, ...] = DEFAULT_KINDS,
                          max_objects: int = 4):
    count = draw(st.integers(min_value=1, max_value=max_objects))
    object_kinds = tuple(draw(st.sampled_from(kinds)) for _ in range(count))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    threads = draw(st.integers(min_value=1, max_value=4))
    ops = draw(st.integers(min_value=0, max_value=40))
    lock_rate = draw(st.sampled_from((0.0, 0.3, 1.0)))
    join_all = draw(st.booleans())
    return (object_kinds, seed, threads, ops, lock_rate, join_all)


def random_multi_object_program(seed: int,
                                kinds: Tuple[str, ...] = DEFAULT_KINDS,
                                max_objects: int = 5,
                                max_threads: int = 4,
                                max_ops: int = 50):
    """A deterministic pseudo-random program for plain seed loops."""
    rng = random.Random(seed)
    count = rng.randint(1, max_objects)
    object_kinds = tuple(rng.choice(kinds) for _ in range(count))
    threads = rng.randint(1, max_threads)
    ops = rng.randint(0, max_ops)
    lock_rate = rng.choice((0.0, 0.3, 1.0))
    join_all = rng.random() < 0.5
    return (object_kinds, seed, threads, ops, lock_rate, join_all)


def build_multi_object_trace(program, registry=None):
    """Expand a multi-object program into (stamped trace, bindings).

    ``bindings`` maps object name (``"o0"``, ``"o1"``...) to its bundled
    kind — the shape detector registration and the CLI's ``--object``
    flags both want.  Each object evolves its own semantics state, so all
    recorded return values are realizable at their linearization points.
    """
    object_kinds, seed, threads, ops, lock_rate, join_all = program
    registry = registry or bundled_objects()
    bindings = {f"o{i}": kind for i, kind in enumerate(object_kinds)}
    semantics = {name: registry[kind].semantics()
                 for name, kind in bindings.items()}
    states = {name: sem.initial_state() for name, sem in semantics.items()}
    names = list(bindings)
    rng = random.Random(seed)
    builder = TraceBuilder(root=0)
    worker_tids = list(range(1, threads + 1))
    for tid in worker_tids:
        builder.fork(0, tid)
    remaining = {tid: ops for tid in worker_tids}
    while any(remaining.values()):
        tid = rng.choice([t for t, n in remaining.items() if n])
        name = rng.choice(names)
        use_lock = rng.random() < lock_rate
        if use_lock:
            builder.acquire(tid, "L")
        method, args = semantics[name].sample_invocation(rng)
        states[name], returns = semantics[name].apply(states[name],
                                                      method, args)
        builder.action(tid, Action(name, method, args, returns))
        if use_lock:
            builder.release(tid, "L")
        remaining[tid] -= 1
    if join_all:
        builder.join_all(0, worker_tids)
        name = rng.choice(names)
        method, args = semantics[name].sample_invocation(rng)
        states[name], returns = semantics[name].apply(states[name],
                                                      method, args)
        builder.action(0, Action(name, method, args, returns))
    return builder.build(), bindings


# -- contention-adversarial traces (the epoch machinery's worst case) --------------
#
# The epoch representation is cheapest when points stay thread-local; these
# programs are built to deny it that: operations re-target recently touched
# arguments from *other* threads (non-commutative method pairs on the same
# access point → promotions and races), and workers are continuously joined
# and replaced by fresh tids (dead components inside carried epoch clocks →
# deflation, compaction and pruning all get real work).


def contention_program(seed: int, kinds: Tuple[str, ...] = DEFAULT_KINDS,
                       max_objects: int = 3, max_threads: int = 6,
                       max_ops: int = 60):
    """A deterministic adversarial program for plain seed loops."""
    rng = random.Random(seed ^ 0xC0117E57)
    count = rng.randint(1, max_objects)
    object_kinds = tuple(rng.choice(kinds) for _ in range(count))
    threads = rng.randint(2, max_threads)
    ops = rng.randint(10, max_ops)
    lock_rate = rng.choice((0.0, 0.1, 0.3))
    churn_rate = rng.choice((0.0, 0.1, 0.25))
    return (object_kinds, seed, threads, ops, lock_rate, churn_rate)


def build_contention_trace(program, registry=None, repeat_bias: float = 0.75,
                           lookback: int = 8):
    """Expand a contention program into (stamped trace, bindings).

    Like :func:`build_multi_object_trace` (every recorded return value is
    realizable at its linearization point), with two adversarial twists:

    * **argument re-targeting** — with probability ``repeat_bias`` an
      operation redraws its invocation a few times, preferring one whose
      arguments match something another thread touched within the last
      ``lookback`` actions on the same object.  Conflicting-schema pairs
      on the *same point value* (put/put, put/get on one key...) are
      exactly the non-commutative pairs Algorithm 1 must catch, and the
      cross-thread re-touch is what forces epoch promotions.
    * **tid churn** — with probability ``churn_rate`` per step, a live
      worker is joined into the root and replaced by a brand-new tid that
      inherits its remaining budget.  The tid space keeps growing, old
      components go dead inside carried epoch clocks, and every
      maintenance pass (deflation, compaction, pruning) sees the state it
      exists for.
    """
    object_kinds, seed, threads, ops, lock_rate, churn_rate = program
    registry = registry or bundled_objects()
    bindings = {f"o{i}": kind for i, kind in enumerate(object_kinds)}
    semantics = {name: registry[kind].semantics()
                 for name, kind in bindings.items()}
    states = {name: sem.initial_state() for name, sem in semantics.items()}
    names = list(bindings)
    rng = random.Random(seed)
    builder = TraceBuilder(root=0)
    workers = list(range(1, threads + 1))
    next_tid = threads + 1
    for tid in workers:
        builder.fork(0, tid)
    remaining = {tid: ops for tid in workers}
    recent: Dict[str, List[Tuple[int, str, tuple]]] = {n: [] for n in names}
    while any(remaining.values()):
        live = [t for t, n in remaining.items() if n]
        tid = rng.choice(live)
        if rng.random() < churn_rate:
            # Retire this worker and hand its budget to a fresh tid: the
            # replacement is ordered after everything the old tid did
            # (join into root, fork from root), so the old component goes
            # dead while its stamps live on inside point clocks.
            builder.join(0, tid)
            budget = remaining.pop(tid)
            builder.fork(0, next_tid)
            remaining[next_tid] = budget
            tid = next_tid
            next_tid += 1
        name = rng.choice(names)
        use_lock = rng.random() < lock_rate
        if use_lock:
            builder.acquire(tid, "L")
        method, args = semantics[name].sample_invocation(rng)
        if rng.random() < repeat_bias:
            history = recent[name]
            for _ in range(4):
                if any(h_args == args and h_tid != tid
                       for h_tid, _, h_args in history):
                    break  # cross-thread re-touch found: keep it
                method, args = semantics[name].sample_invocation(rng)
        states[name], returns = semantics[name].apply(states[name],
                                                      method, args)
        builder.action(tid, Action(name, method, args, returns))
        history = recent[name]
        history.append((tid, method, args))
        del history[:-lookback]
        if use_lock:
            builder.release(tid, "L")
        remaining[tid] -= 1
    return builder.build(), bindings


def register_bindings(detector, bindings, registry=None, **register_kw):
    """Register every bound object's bundled representation on a detector."""
    registry = registry or bundled_objects()
    for name, kind in bindings.items():
        detector.register_object(name, registry[kind].representation(),
                                 **register_kw)
    return detector


# -- references: the literal detector and full vector clocks -----------------------


def flagged_events(races, events) -> List[int]:
    """Trace positions of the actions that ``races`` flag, sorted.

    A race names its action by ``(current_tid, current_clock[current_tid])``:
    every action advances its thread's own component, so the pair is
    unique per action of a stamped trace.
    """
    index_of = {}
    for position, event in enumerate(events):
        if event.kind is EventKind.ACTION:
            index_of[(event.tid, event.clock[event.tid])] = position
    return sorted({index_of[(race.current_tid,
                             race.current_clock[race.current_tid])]
                   for race in races})


def direct_flagged(trace, bindings, registry=None) -> List[int]:
    """Positions of the actions the literal DirectDetector (Section 5.1)
    flags on ``trace`` — the reference every engine is anchored to."""
    registry = registry or bundled_objects()
    detector = DirectDetector(root=trace.root)
    for name, kind in bindings.items():
        detector.register_object(name, registry[kind].spec().commutes)
    detector.run(trace)
    return flagged_events(detector.races, list(trace))


def inflate_point_clocks(detector) -> None:
    """Replace every epoch point clock with the bare vector clock it carries.

    A detector inflated after every event stores exactly what a
    full-vector-clock detector stores (the join ``pt.vc ⊔ vc(e)``) and
    decides every phase-1 test with a full ``⊑``, so its reports are the
    reference the epoch representation must reproduce byte for byte.
    """
    for state in detector._objects.values():
        point_clock = state.point_clock
        for pt, prior in point_clock.items():
            point_clock[pt] = _as_clock(prior)


def run_with_plain_clocks(detector, events):
    """Run ``events`` through ``detector``, inflating after each event."""
    for event in events:
        detector.process(event)
        inflate_point_clocks(detector)
    return detector


def race_snapshot(race) -> dict:
    """A stable, JSON-able rendering of a CommutativityRace report.

    Used both by the golden-trace corpus (snapshots on disk) and by
    equivalence tests that compare reports across engines.
    """
    def clock_items(clock):
        return [[str(tid), stamp] for tid, stamp in
                sorted(clock.items(), key=lambda kv: str(kv[0]))]

    return {
        "obj": str(race.obj),
        "tid": str(race.current_tid),
        "current": str(race.current),
        "point": str(race.point),
        "prior_point": str(race.prior_point),
        "current_clock": clock_items(race.current_clock),
        "prior_clock": clock_items(race.prior_clock),
    }


def verdict_keys(races) -> List[Tuple]:
    """Order- and clock-insensitive race identity (sorted).

    Clock compaction narrows reported clocks and the SCAN strategy
    reorders reports within an event, so equivalence across those is
    stated on (object, action, point pair) identity.
    """
    return sorted((str(r.obj), str(r.current), str(r.point),
                   str(r.prior_point)) for r in races)


def sample_actions(kind: str, count: int = 60, seed: int = 13,
                   obj: str = "o") -> List[Action]:
    """Realizable actions of a bundled kind, reached by random executions."""
    bundled = bundled_objects()[kind]
    semantics = bundled.semantics()
    rng = random.Random(seed)
    actions: List[Action] = []
    state = semantics.initial_state()
    for index in range(count):
        if index % 9 == 0:
            state = semantics.initial_state()
        method, args = semantics.sample_invocation(rng)
        state, returns = semantics.apply(state, method, args)
        actions.append(Action(obj, method, args, returns))
    return actions


def shm_entries() -> set:
    """Names of the shared-memory segments alive on this host (empty where
    there is no ``/dev/shm``), to assert a run leaked none."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()
