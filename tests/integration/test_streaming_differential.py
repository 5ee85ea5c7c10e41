"""Differential harness: streaming analysis ≡ batch analysis.

Streaming changes *when* the detector works — incrementally, with
periodic pruning, intern eviction and thread retirement — but must never
change *what* it reports: race reports byte-identical (clocks included)
to the batch detector on the same trace, across hypothesis-shrunk
programs with pruning on and off (the 120-seed corpus sweeps live in
``test_differential_harness.py``), and through a real on-disk follow of a trace written (and killed) underneath the
reader.  The memory side of the bargain is checked too: on a
joinall-heavy workload the footprint tracks the *concurrent* footprint,
not the history.
"""

import os
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings

from repro.core.detector import CommutativityRaceDetector
from repro.core.serialize import TailReader, dump_trace, dumps_trace
from repro.core.stream import StreamAnalyzer, follow_analyze
from repro.testing.faults import truncate_file

from tests.support import (build_multi_object_trace, multi_object_programs,
                           race_snapshot, random_multi_object_program,
                           register_bindings)

def batch_run(trace, bindings, **kw):
    detector = register_bindings(
        CommutativityRaceDetector(root=trace.root, **kw), bindings)
    detector.run(trace)
    return detector


def stream_run(trace, bindings, **kw):
    kw.setdefault("prune_interval", 3)
    kw.setdefault("window", 5)
    analyzer = register_bindings(
        StreamAnalyzer(root=trace.root, **kw), bindings)
    analyzer.run(trace)
    return analyzer


def snapshots(detector_or_analyzer):
    return [race_snapshot(r) for r in detector_or_analyzer.races]


class TestStreamingCorpus:
    @given(multi_object_programs())
    @settings(max_examples=50, deadline=None)
    def test_streaming_property_prune_on(self, program):
        trace, bindings = build_multi_object_trace(program)
        batch = batch_run(trace, bindings)
        streamed = stream_run(trace, bindings, prune_interval=1, window=2)
        assert snapshots(streamed) == snapshots(batch)

    @given(multi_object_programs())
    @settings(max_examples=30, deadline=None)
    def test_streaming_property_prune_off(self, program):
        trace, bindings = build_multi_object_trace(program)
        batch = batch_run(trace, bindings)
        streamed = stream_run(trace, bindings, prune_interval=0)
        assert snapshots(streamed) == snapshots(batch)
        # Without pruning nothing may be evicted either.
        assert streamed.stats.interned_points_evicted == 0


class TestMemoryBound:
    def phased_program(self, phases=6, threads=3, ops=12):
        """fork/churn/joinall cycles with phase-scoped dictionary keys."""
        from repro.core.events import NIL
        from repro.core.trace import TraceBuilder
        import random as _random
        rng = _random.Random(9)
        builder = TraceBuilder(root=0)
        next_tid = 1
        shadow = {}  # keys are phase-scoped, so one shadow serves them all
        for phase in range(phases):
            tids = list(range(next_tid, next_tid + threads))
            next_tid += threads
            for tid in tids:
                builder.fork(0, tid)
            for _ in range(ops):
                tid = rng.choice(tids)
                key = f"p{phase}k{rng.randrange(4)}"
                prev = shadow.get(key, NIL)
                shadow[key] = rng.randrange(4)
                builder.invoke(tid, "d", "put", key, shadow[key],
                               returns=prev)
            for tid in tids:
                builder.join(0, tid)
        # One root action after the last joinall: pruning triggers on
        # actions, so without it the final phase would never be reclaimed.
        builder.invoke(0, "d", "put", "zfinal", 1, returns=NIL)
        return builder.build()

    def test_footprint_tracks_concurrency_not_history(self):
        trace = self.phased_program()
        bindings = {"d": "dictionary"}
        unpruned = batch_run(trace, bindings)
        streamed = stream_run(trace, bindings, prune_interval=1, window=2)
        # One phase is live at a time: the streaming peak must be on the
        # scale of one phase's footprint, far under the full history the
        # unpruned detector retains.
        history = (unpruned.active_point_count()
                   + unpruned.interned_point_count())
        peak = streamed.peak_active + streamed.peak_interned
        assert peak < history / 2
        detector = streamed.detector
        assert detector.active_point_count() == 0  # all phases joined
        assert detector.interned_point_count() == 0
        assert streamed.stats.interned_points_evicted > 0
        # ...and only the live threads' clocks remain.
        assert detector.happens_before.known_threads() == {0}
        assert snapshots(streamed) == snapshots(unpruned)


class TestFollowLiveWriter:
    def build_analyzer(self, bindings, **kw):
        kw.setdefault("prune_interval", 2)
        kw.setdefault("window", 3)
        return lambda root: register_bindings(
            StreamAnalyzer(root=root, **kw), bindings)

    def test_follow_a_trace_while_it_is_written(self, tmp_path):
        trace, bindings = build_multi_object_trace(
            random_multi_object_program(0))
        assert len(trace) > 10
        text = dumps_trace(trace)
        lines = text.splitlines(keepends=True)
        path = str(tmp_path / "live.jsonl")

        def writer():
            with open(path, "w", encoding="utf-8") as out:
                for line in lines:
                    # Tear each record across two flushes so the reader
                    # sees genuine partial tails, not just slow lines.
                    out.write(line[:3])
                    out.flush()
                    time.sleep(0.002)
                    out.write(line[3:])
                    out.flush()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            analyzer, status = follow_analyze(
                path, self.build_analyzer(bindings),
                poll_interval=0.001, idle_timeout=5.0)
        finally:
            thread.join()
        assert status.complete
        assert status.events_read == len(trace)
        batch = batch_run(trace, bindings)
        assert snapshots(analyzer) == snapshots(batch)

    def test_killed_writer_does_not_wedge_the_reader(self, tmp_path):
        """A writer dead mid-record: the follow ends at the idle budget,
        and following again once the writer has finished yields the full
        batch verdict."""
        trace, bindings = build_multi_object_trace(
            random_multi_object_program(0))
        text = dumps_trace(trace)
        path = str(tmp_path / "killed.jsonl")
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
        truncate_file(path, drop_bytes=9)  # SIGKILL mid-record, simulated

        reader = TailReader(path)
        start = time.monotonic()
        analyzer, status = follow_analyze(
            path, self.build_analyzer(bindings),
            poll_interval=0.001, idle_timeout=0.05, reader=reader)
        assert time.monotonic() - start < 2.0  # returned, not wedged
        assert not status.complete
        assert reader.truncated
        assert 0 < status.events_read < len(trace)

        # The writer comes back and finishes the file; the trace is
        # simply followed again, from the start.
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
        analyzer, status = follow_analyze(
            path, self.build_analyzer(bindings),
            poll_interval=0.001, idle_timeout=5.0)
        assert status.complete
        assert status.events_read == len(trace)
        batch = batch_run(trace, bindings)
        assert snapshots(analyzer) == snapshots(batch)


TRACE = "tests/data/multi_object_mixed.jsonl"
OBJECTS = ("--object", "a=accumulator", "--object", "d=dictionary",
           "--object", "r=register")


def run_cli(*argv, env_extra=None):
    env = dict(os.environ, PYTHONPATH="src")
    env.update(env_extra or {})
    repo = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=repo)


class TestFollowCli:
    def test_follow_matches_batch_report(self, tmp_path):
        batch = run_cli(TRACE, *OBJECTS)
        followed = run_cli(TRACE, *OBJECTS, "--follow", "--window", "7",
                           "--prune-interval", "3", "--follow-timeout", "5")
        assert followed.returncode == batch.returncode == 1
        # Same grouped summary; the follow run additionally streamed each
        # race as it was found.
        assert followed.stdout.count("race:") >= 1
        batch_groups = [l for l in batch.stdout.splitlines()
                        if l.startswith("  ")]
        follow_groups = [l for l in followed.stdout.splitlines()
                         if l.startswith("  ")]
        assert follow_groups == batch_groups

    def test_follow_reports_incomplete_trace_on_stderr(self, tmp_path):
        text = open(TRACE, encoding="utf-8").read()
        path = str(tmp_path / "partial.jsonl")
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
        truncate_file(path, drop_bytes=20)
        result = run_cli(path, *OBJECTS, "--follow",
                         "--follow-timeout", "0.2")
        assert "trace incomplete" in result.stderr

    def test_idle_timeout_inside_window_still_flushes_stats_json(
            self, tmp_path):
        """Regression: a --follow run whose idle timeout fires mid-window
        (here the window is far larger than the trace, so no periodic
        boundary ever fires) must still leave a complete, atomic
        --stats-json snapshot on the follow-mode schema."""
        import json
        text = open(TRACE, encoding="utf-8").read()
        path = str(tmp_path / "partial.jsonl")
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
        truncate_file(path, drop_bytes=20)
        stats = str(tmp_path / "follow.stats.json")
        result = run_cli(path, *OBJECTS, "--follow",
                         "--follow-timeout", "0.3",
                         "--window", "100000", "--stats-json", stats)
        assert "trace incomplete" in result.stderr
        report = json.loads(open(stats, encoding="utf-8").read())
        # The pending window was flushed on exit: exactly the finish()
        # maintenance ran, and the event count covers everything read
        # after the last (never-reached) periodic boundary.
        assert report["meta"]["windows"] >= 1
        declared = json.loads(text.splitlines()[0])["events"]
        assert 0 < report["meta"]["events"] < declared
        assert "trace incomplete" in result.stderr
        # Atomic rewrite: no half-written temp file may survive.
        assert not os.path.exists(stats + ".tmp")

    def test_oversized_frame_fails_cleanly(self, tmp_path):
        """A poisoned (runaway) record ends the follow with a clean data
        error instead of wedging at the same resume offset forever."""
        text = open(TRACE, encoding="utf-8").read()
        lines = text.splitlines(keepends=True)
        path = str(tmp_path / "poison.jsonl")
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(lines[:5])
            out.write('{"kind": "action", "pad": "' + "x" * (2 << 20)
                      + '"}\n')
        result = run_cli(path, *OBJECTS, "--follow",
                         "--follow-timeout", "0.3")
        assert result.returncode == 3
        assert "spans" in result.stderr and "cap" in result.stderr
