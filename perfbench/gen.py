"""Seeded input generators for the layered benchmark.

Every generator is a pure function of its arguments: the same seed and
sizes give byte-identical JSONL.  The dictionary-only shapes
(:func:`contended_text`, :func:`butterfly_text`) write the trace format
directly and need nothing from the program.  The mixed-kind shape
(:func:`mixed_text`) draws invocations and return values from the
executable semantics in ``repro.specs``, so its bytes can drift when a
semantics changes; ``pins.json`` holds the SHA-256 of every default-seed
input so such a drift fails the run instead of silently changing the
workload.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

NIL = {"$nil": True}

#: The seven tenant object kinds of the mixed shape, one object each.
MIXED_KINDS: Tuple[str, ...] = ("dictionary", "set", "counter", "register",
                                "msetlog", "accumulator", "queue")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _trace_text(lines: List[str]) -> str:
    header = json.dumps({"repro-trace": 1, "root": 0, "events": len(lines)})
    return "\n".join([header] + lines) + "\n"


def _event(kind: str, tid: int, key: str, value) -> str:
    return json.dumps({"kind": kind, "tid": tid, key: value})


def _dict_op(tid: int, obj: str, shadow: dict, key: str, value,
             put: bool) -> str:
    """One put/get with the return value a real dictionary would give."""
    prior = shadow.get(key, NIL)
    if put:
        shadow[key] = value
        record = {"kind": "action", "tid": tid, "obj": obj,
                  "method": "put", "args": [key, value], "returns": [prior]}
    else:
        record = {"kind": "action", "tid": tid, "obj": obj,
                  "method": "get", "args": [key], "returns": [prior]}
    return json.dumps(record)


def contended_text(seed: int, ops: int,
                   threads: int = 64) -> Tuple[str, Dict[str, str]]:
    """Wide clocks over mostly thread-private keys of 8 dictionaries.

    A shared lock on 5 % of the operations mixes every thread's component
    into every clock; 2 % of the operations use a two-key pool common to
    all threads, unlocked, so real races exist.  Only those shared-pool
    actions can race: every other key is touched by one thread alone.
    90 % of the operations are puts.
    """
    objects, keys, lock_rate, shared_share, put_share = 8, 2, 0.05, 0.02, 0.9
    rng = random.Random(seed)
    lines = [_event("fork", 0, "peer", tid) for tid in range(1, threads + 1)]
    shadows = [dict() for _ in range(objects)]
    for _ in range(ops):
        tid = rng.randrange(1, threads + 1)
        index = rng.randrange(objects)
        locked = rng.random() < lock_rate
        if rng.random() < shared_share:
            key = f"s{rng.randrange(keys)}"
        else:
            key = f"t{tid}k{rng.randrange(keys)}"
        put = rng.random() < put_share
        value = rng.randrange(8)
        if locked:
            lines.append(_event("acq", tid, "lock", "L"))
        lines.append(_dict_op(tid, f"d{index}", shadows[index], key, value,
                              put))
        if locked:
            lines.append(_event("rel", tid, "lock", "L"))
    bindings = {f"d{index}": "dictionary" for index in range(objects)}
    return _trace_text(lines), bindings


def may_race(shape: str, args) -> bool:
    """Whether an action of ``shape`` with these arguments can race at all.

    In the contended shape only shared-pool keys (``s<n>``) are touched by
    more than one thread; the butterfly's keys are all thread-private; in
    the mixed shape any action can race.
    """
    if shape == "contended":
        return str(args[0]).startswith("s")
    return shape != "butterfly"


def butterfly_text(seed: int, ops: int,
                   threads: int = 768) -> Tuple[str, Dict[str, str]]:
    """A hypercube lock prologue, then sync-free thread-private churn.

    ``log2(threads)`` rounds of pairwise lock hand-offs give every thread
    a full-width clock without ordering all threads totally, so epochs
    cannot collapse the clocks.  The churn (90 % puts over 8 dictionaries)
    touches only keys private to their thread, so the known answer is zero
    races.
    """
    objects, put_share = 8, 0.9
    rng = random.Random(seed)
    tids = list(range(1, threads + 1))
    lines = [_event("fork", 0, "peer", tid) for tid in tids]
    for rnd in range(max(1, (threads - 1).bit_length())):
        step = 1 << rnd
        for i in range(threads):
            j = i ^ step
            if j >= threads or i > j:
                continue
            lock = f"m{rnd}.{i}"
            for tid in (tids[i], tids[j], tids[i]):
                lines.append(_event("acq", tid, "lock", lock))
                lines.append(_event("rel", tid, "lock", lock))
    shadows: Dict[str, dict] = {}
    for n in range(ops):
        tid = tids[rng.randrange(threads)]
        obj = f"d{rng.randrange(objects)}"
        shadow = shadows.setdefault(obj, {})
        lines.append(_dict_op(tid, obj, shadow, f"t{tid}", n,
                              rng.random() < put_share))
    bindings = {f"d{index}": "dictionary" for index in range(objects)}
    return _trace_text(lines), bindings


def mixed_text(seed: int, ops: int,
               threads: int = 8) -> Tuple[str, Dict[str, str]]:
    """One object of each kind, ``threads`` workers, one shared lock.

    Return values come from each kind's executable semantics, applied in
    trace order, so every recorded history is realizable.  A tenth of the
    operations hold the lock, which leaves conflicting pairs that only the
    lock orders: the candidates the predictive pass reorders.
    """
    lock_rate = 0.1
    from repro.core.events import Action
    from repro.core.serialize import dumps_trace
    from repro.core.trace import TraceBuilder
    from repro.specs import bundled_objects

    registry = bundled_objects()
    bindings = {f"o{index}": kind for index, kind in enumerate(MIXED_KINDS)}
    semantics = {name: registry[kind].semantics()
                 for name, kind in bindings.items()}
    states = {name: sem.initial_state() for name, sem in semantics.items()}
    names = list(bindings)
    rng = random.Random(seed)
    builder = TraceBuilder(root=0)
    tids = list(range(1, threads + 1))
    for tid in tids:
        builder.fork(0, tid)
    for _ in range(ops):
        tid = rng.choice(tids)
        name = rng.choice(names)
        locked = rng.random() < lock_rate
        if locked:
            builder.acquire(tid, "L")
        method, args = semantics[name].sample_invocation(rng)
        states[name], returns = semantics[name].apply(states[name], method,
                                                      args)
        builder.action(tid, Action(name, method, args, returns))
        if locked:
            builder.release(tid, "L")
    builder.join_all(0, tids)
    return dumps_trace(builder.build(stamp=False)), bindings
