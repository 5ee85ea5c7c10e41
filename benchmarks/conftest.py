"""Shared configuration for the pytest-benchmark drivers.

Each benchmark regenerates one evaluation artifact (Table 2 cells, the
Fig. 4 check counts, the Section 5.4 scaling series, the ablations).  The
workload scales are kept small so the whole directory runs in well under a
minute; pass ``--scale`` to grow them toward the paper's durations.

The CI gates (``test_gates.py`` and the observability budget in
``test_overhead.py``) share two fixtures from here: the dictionary churn
trace and the interleaved best-of timing.
"""

import random

import pytest

from repro.core.events import NIL
from repro.core.trace import TraceBuilder


def pytest_addoption(parser):
    parser.addoption("--scale", action="store", type=float, default=0.25,
                     help="workload scale factor for benchmark drivers")


@pytest.fixture(scope="session")
def scale(request):
    return request.config.getoption("--scale")


def _synthetic_trace(events: int, objects: int, threads: int, seed: int = 0,
                     keys: int = 64, lock_rate: float = 0.05):
    """A put/get/size workload spread over ``objects`` dictionaries.

    Objects are named ``d0 .. d{objects-1}``.  Returns come from a
    per-object shadow dict, so the trace is a consistent execution.
    ``keys`` sizes each object's key space and ``lock_rate`` the fraction
    of operations done under a shared lock — together they set the race
    density (smaller key space, less locking: more races).
    """
    rng = random.Random(seed)
    builder = TraceBuilder(root=0)
    worker_tids = list(range(1, threads + 1))
    for tid in worker_tids:
        builder.fork(0, tid)
    shadow = [dict() for _ in range(objects)]
    for _ in range(events - threads):  # the forks are events too
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


@pytest.fixture(scope="session")
def synthetic_trace():
    """Factory for the dictionary churn trace the gates time."""
    return _synthetic_trace


def _interleaved_best(run_a, run_b, rounds: int):
    """Best-of-``rounds`` times of two timed callables, run alternately.

    One warm-up call of each goes first and is discarded (the first runs
    after start-up pay allocator growth and code warm-up that would
    otherwise be charged to whichever side goes first).  Alternating
    means machine drift hits both sides alike, and the minimum discards
    GC and scheduler outliers.  Each callable returns its own measured
    seconds.
    """
    run_a(), run_b()
    a, b = [], []
    for _ in range(rounds):
        a.append(run_a())
        b.append(run_b())
    return min(a), min(b)


@pytest.fixture(scope="session")
def interleaved_best():
    """The timing discipline every gate uses (see _interleaved_best)."""
    return _interleaved_best
