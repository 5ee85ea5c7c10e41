#!/usr/bin/env python
"""(Re)generate the golden-trace regression corpus.

Each scenario below builds a small, fully deterministic trace whose action
return values are realized through the bundled executable semantics (so
the traces are consistent executions, not just syntax).  The script dumps
the trace as JSONL next to an expected-report snapshot produced by the
*sequential* detector — the reference implementation of Algorithm 1.

Run from the repository root after an intentional verdict-affecting
change, then review the diff of ``tests/data/expected/`` like any other
code change::

    PYTHONPATH=src:. python tests/data/generate_golden.py

``tests/core/test_golden_traces.py`` replays the corpus through the
sequential and sharded detectors and fails on any verdict drift.

Alongside each race snapshot the script freezes the ``--stats-json``
observability report (``expected/<name>.stats.json``) by invoking the
real CLI and scrubbing the non-deterministic timing fields — counters,
breakdown attribution, and the report's key structure are deterministic
because the CLI analyzes offline traces at ``sample_interval=1``.
``multi_object_mixed`` is frozen once more under each other engine
(``expected/multi_object_mixed.<engine>.stats.json``, see
``ENGINE_STATS``), so every mode's report schema is frozen too.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from repro import cli
from repro.core.detector import CommutativityRaceDetector
from repro.core.serialize import dump_trace
from repro.core.trace import TraceBuilder
from repro.obs import scrub_timings
from repro.specs import bundled_objects

from tests.support import race_snapshot

DATA_DIR = pathlib.Path(__file__).resolve().parent
EXPECTED_DIR = DATA_DIR / "expected"


class Script:
    """A TraceBuilder that realizes returns via object semantics."""

    def __init__(self, bindings):
        self.builder = TraceBuilder(root=0)
        self.bindings = bindings
        registry = bundled_objects()
        self._semantics = {name: registry[kind].semantics()
                           for name, kind in bindings.items()}
        self._states = {name: sem.initial_state()
                        for name, sem in self._semantics.items()}

    def call(self, tid, obj, method, *args):
        sem = self._semantics[obj]
        self._states[obj], returns = sem.apply(self._states[obj],
                                               method, tuple(args))
        self.builder.invoke(tid, obj, method, *args, returns=returns)
        return self

    def __getattr__(self, name):
        # fork/join/acquire/release/... pass through to the builder.
        def forward(*args, **kw):
            getattr(self.builder, name)(*args, **kw)
            return self
        return forward

    def build(self):
        return self.builder.build(), self.bindings


def fig3_dictionary():
    """The paper's Fig. 3: racing puts, joinall-ordered size."""
    script = Script({"o": "dictionary"})
    script.fork(0, 1).fork(0, 2)
    script.call(2, "o", "put", "a", 1)
    script.call(1, "o", "put", "a", 2)
    script.join(0, 1).join(0, 2)
    script.call(0, "o", "size")
    return script.build()


def locked_dictionary():
    """The same shape fully lock-protected: zero races."""
    script = Script({"o": "dictionary"})
    script.fork(0, 1).fork(0, 2)
    for tid, key, value in ((2, "a", 1), (1, "a", 2), (1, "b", 3)):
        script.acquire(tid, "L")
        script.call(tid, "o", "put", key, value)
        script.release(tid, "L")
    script.join(0, 1).join(0, 2)
    script.call(0, "o", "size")
    return script.build()


def set_churn():
    """Two workers add/remove/query overlapping set elements."""
    script = Script({"s": "set"})
    script.fork(0, 1).fork(0, 2)
    script.call(1, "s", "add", 1)
    script.call(2, "s", "add", 1)      # duplicate add: commutes
    script.call(2, "s", "remove", 1)   # races with the first add
    script.call(1, "s", "contains", 2)
    script.call(2, "s", "add", 2)      # races with the contains
    script.join(0, 1).join(0, 2)
    script.call(0, "s", "size")
    return script.build()


def counter_mixed():
    """Commuting increments vs a racy concurrent read."""
    script = Script({"c": "counter"})
    script.fork(0, 1).fork(0, 2).fork(0, 3)
    script.call(1, "c", "add", 5)
    script.call(2, "c", "add", 3)      # add/add commute: no race
    script.call(3, "c", "read")        # races with both adds
    script.join_all(0, (1, 2, 3))
    script.call(0, "c", "read")        # ordered after joinall: no race
    return script.build()


def queue_pipeline():
    """A producer/consumer queue with partial ordering through a lock."""
    script = Script({"q": "queue"})
    script.fork(0, 1).fork(0, 2)
    script.call(1, "q", "enq", "x")
    script.acquire(1, "L").release(1, "L")
    script.acquire(2, "L")             # lock orders enq before this deq...
    script.call(2, "q", "deq")
    script.release(2, "L")
    script.call(2, "q", "enq", "y")    # ...but this enq races with t1's
    script.call(1, "q", "peek")
    script.join(0, 1).join(0, 2)
    script.call(0, "q", "size")
    return script.build()


def multi_object_mixed():
    """Three objects of different kinds in one trace (shard fodder)."""
    script = Script({"d": "dictionary", "r": "register", "a": "accumulator"})
    script.fork(0, 1).fork(0, 2)
    script.call(1, "d", "put", "k", 7)
    script.call(2, "d", "get", "k")    # races with the put
    script.call(1, "r", "write", 1)
    script.call(2, "r", "write", 2)    # write/write race
    script.call(1, "a", "sample", 4)
    script.call(2, "a", "sample", 9)   # samples commute: no race
    script.call(2, "a", "total")       # races with both samples
    script.join(0, 1).join(0, 2)
    script.call(0, "d", "size")
    return script.build()


SCENARIOS = (fig3_dictionary, locked_dictionary, set_churn, counter_mixed,
             queue_pipeline, multi_object_mixed)

#: frozen ``repro-verify-specs --json`` verdict document (all kinds,
#: default depths); regenerated alongside the race corpus so any change
#: to the specs, registry, or verdict schema shows up as a reviewable
#: golden diff.
VERIFY_GOLDEN = "verify_specs.json"


def verify_golden(out_path):
    from repro.verify.cli import run_verification

    document = run_verification([])
    with open(out_path, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=2, sort_keys=True)
        out.write("\n")

#: the scenario whose report is also frozen under every other engine
ENGINE_SCENARIO = "multi_object_mixed"
#: engine -> the repro-analyze flags that select it
ENGINE_STATS = {
    "workers2": ["--workers", "2"],
    "predict": ["--predict"],
    "follow": ["--follow"],
    "direct": ["--detector", "direct"],
    "fasttrack": ["--detector", "fasttrack"],
    "eraser": ["--detector", "eraser"],
    "atomicity": ["--atomicity"],
}


def stats_golden(trace_path, bindings, out_path, flags=()):
    """Freeze the CLI's ``--stats-json`` report for one scenario."""
    argv = [str(trace_path), *flags]
    for obj, kind in bindings.items():
        argv += ["--object", f"{obj}={kind}"]
    with tempfile.NamedTemporaryFile("r", suffix=".json") as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv + ["--stats-json", tmp.name])
        report = json.load(open(tmp.name, encoding="utf-8"))
    with open(out_path, "w", encoding="utf-8") as out:
        json.dump(scrub_timings(report), out, indent=2, sort_keys=True)
        out.write("\n")


def main():
    EXPECTED_DIR.mkdir(parents=True, exist_ok=True)
    registry = bundled_objects()
    for scenario in SCENARIOS:
        trace, bindings = scenario()
        name = scenario.__name__
        with open(DATA_DIR / f"{name}.jsonl", "w", encoding="utf-8") as out:
            dump_trace(trace, out)
        detector = CommutativityRaceDetector(root=trace.root)
        for obj, kind in bindings.items():
            detector.register_object(obj, registry[kind].representation())
        detector.run(trace)
        expected = {
            "trace": f"{name}.jsonl",
            "bindings": bindings,
            "races": [race_snapshot(race) for race in detector.races],
        }
        with open(EXPECTED_DIR / f"{name}.json", "w",
                  encoding="utf-8") as out:
            json.dump(expected, out, indent=2, sort_keys=True)
            out.write("\n")
        stats_golden(DATA_DIR / f"{name}.jsonl", bindings,
                     EXPECTED_DIR / f"{name}.stats.json")
        if name == ENGINE_SCENARIO:
            for engine, flags in ENGINE_STATS.items():
                stats_golden(DATA_DIR / f"{name}.jsonl", bindings,
                             EXPECTED_DIR / f"{name}.{engine}.stats.json",
                             flags)
        print(f"{name}: {len(trace)} events, "
              f"{len(detector.races)} race(s)")
    verify_golden(EXPECTED_DIR / VERIFY_GOLDEN)
    print(f"{VERIFY_GOLDEN}: spec verification verdicts frozen")


if __name__ == "__main__":
    main()
