"""The repro-analyze command line and the spec reporter."""

import json
import os
import stat
import threading

import pytest

from repro.cli import main
from repro.core.serialize import dump_trace
from repro.core.trace import Trace, TraceBuilder
from repro.core.events import NIL
from repro.logic.pretty import spec_report
from repro.specs.dictionary import dictionary_spec


@pytest.fixture()
def racy_trace_file(tmp_path):
    trace = (TraceBuilder(root=0)
             .fork(0, 1).fork(0, 2)
             .begin(1)
             .invoke(1, "o", "get", "k", returns=NIL)
             .invoke(2, "o", "put", "k", 9, returns=NIL)
             .invoke(1, "o", "put", "k", 1, returns=9)
             .commit(1)
             .write(1, "field")
             .write(2, "field")
             .build())
    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as stream:
        dump_trace(trace, stream)
    return str(path)


class TestAnalyzeCli:
    def test_rd2_analysis_finds_races(self, racy_trace_file, capsys):
        code = main([racy_trace_file, "--object", "o=dictionary"])
        out = capsys.readouterr().out
        assert code == 1
        assert "commutativity race" in out
        assert "loaded" in out

    def test_direct_detector_option(self, racy_trace_file, capsys):
        code = main([racy_trace_file, "--object", "o=dictionary",
                     "--detector", "direct"])
        assert code == 1
        assert "direct:" in capsys.readouterr().out

    def test_fasttrack_needs_no_bindings(self, racy_trace_file, capsys):
        code = main([racy_trace_file, "--detector", "fasttrack"])
        out = capsys.readouterr().out
        assert code == 1
        assert "data race" in out

    def test_eraser(self, racy_trace_file, capsys):
        code = main([racy_trace_file, "--detector", "eraser"])
        assert code == 1
        assert "lockset" in capsys.readouterr().out

    def test_atomicity_mode(self, racy_trace_file, capsys):
        code = main([racy_trace_file, "--object", "o=dictionary",
                     "--atomicity"])
        out = capsys.readouterr().out
        assert code == 1
        assert "atomicity violation" in out

    def test_clean_trace_exits_zero(self, tmp_path, capsys):
        trace = (TraceBuilder(root=0)
                 .invoke(0, "o", "put", "k", 1, returns=NIL)
                 .build())
        path = tmp_path / "clean.jsonl"
        with open(path, "w", encoding="utf-8") as stream:
            dump_trace(trace, stream)
        assert main([str(path), "--object", "o=dictionary"]) == 0

    def test_missing_binding_rejected(self, racy_trace_file):
        with pytest.raises(SystemExit):
            main([racy_trace_file])

    def test_bad_binding_syntax_rejected(self, racy_trace_file):
        with pytest.raises(SystemExit):
            main([racy_trace_file, "--object", "o:dictionary"])

    def test_unknown_kind_rejected(self, racy_trace_file):
        with pytest.raises(SystemExit):
            main([racy_trace_file, "--object", "o=warpdrive"])

    # The last flag is spelled in two pieces so that a search of the
    # tree for it finds only the notes on its removal.
    @pytest.mark.parametrize("argv", [["--checkpoint", "ck"],
                                      ["--checkpoint-interval", "5"],
                                      ["--resume" "-from", "ck"]],
                             ids=lambda argv: argv[0])
    def test_checkpoint_flags_are_usage_errors(self, racy_trace_file,
                                               tmp_path, argv):
        # Phase-A checkpoints are gone (a killed run is run again), so
        # these are unknown flags, not silently ignored ones.
        argv = [str(tmp_path / arg) if arg == "ck" else arg for arg in argv]
        with pytest.raises(SystemExit) as err:
            main([racy_trace_file, "--object", "o=dictionary", *argv])
        assert err.value.code == 2

    def test_verify_specs_is_not_a_flag(self, capsys):
        # Spec verification is repro-verify-specs's alone.
        with pytest.raises(SystemExit) as err:
            main(["--verify-specs", "dictionary"])
        assert err.value.code == 2
        assert "--verify-specs" in capsys.readouterr().err

    def test_trace_argument_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestWorkersFlag:
    def test_sharded_rd2_reports_the_same_races(self, racy_trace_file,
                                                capsys):
        sequential = main([racy_trace_file, "--object", "o=dictionary"])
        seq_out = capsys.readouterr().out
        sharded = main([racy_trace_file, "--object", "o=dictionary",
                        "--workers", "2"])
        shard_out = capsys.readouterr().out
        assert sharded == sequential == 1
        assert "[2 workers]" in shard_out
        # Same grouped report lines, just the annotated header differs.
        assert (seq_out.replace("rd2:", "rd2 [2 workers]:")
                == shard_out)

    def test_workers_one_is_the_plain_sequential_path(self, racy_trace_file,
                                                      capsys):
        code = main([racy_trace_file, "--object", "o=dictionary",
                     "--workers", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "workers" not in out

    def test_workers_rejected_for_other_detectors(self, racy_trace_file):
        with pytest.raises(SystemExit):
            main([racy_trace_file, "--object", "o=dictionary",
                  "--detector", "direct", "--workers", "2"])
        with pytest.raises(SystemExit):
            main([racy_trace_file, "--detector", "fasttrack",
                  "--workers", "2"])

    def test_nonpositive_workers_rejected(self, racy_trace_file):
        with pytest.raises(SystemExit):
            main([racy_trace_file, "--object", "o=dictionary",
                  "--workers", "0"])


class TestBackendFlag:
    """One shard transport: the CLI takes no flag for it and says nothing
    about it."""

    def test_shm_backend_reports_the_same_races(self, racy_trace_file,
                                                capsys):
        sequential = main([racy_trace_file, "--object", "o=dictionary"])
        seq_out = capsys.readouterr().out
        sharded = main([racy_trace_file, "--object", "o=dictionary",
                        "--workers", "2"])
        captured = capsys.readouterr()
        assert sharded == sequential == 1
        assert (seq_out.replace("rd2:", "rd2 [2 workers]:")
                == captured.out)
        assert captured.err == ""

    def test_backend_flag_is_rejected(self, racy_trace_file, capsys):
        for value in ("shm", "pickle"):
            with pytest.raises(SystemExit) as excinfo:
                main([racy_trace_file, "--object", "o=dictionary",
                      "--workers", "2", "--backend", value])
            assert excinfo.value.code == 2
            assert "--backend" in capsys.readouterr().err


class TestPruneIntervalFlag:
    FOLLOW = ["--object", "o=dictionary", "--follow", "--follow-timeout", "5"]

    def test_pruning_reports_the_same_races(self, racy_trace_file, capsys):
        plain = main([racy_trace_file, *self.FOLLOW])
        plain_out = capsys.readouterr().out
        pruned = main([racy_trace_file, *self.FOLLOW,
                       "--prune-interval", "1"])
        pruned_out = capsys.readouterr().out
        assert pruned == plain == 1
        # Pruning is fully verdict-preserving: identical reports, byte
        # for byte, streamed race lines included.
        assert pruned_out == plain_out

    @pytest.mark.parametrize("extra", [[], ["--workers", "2"]],
                             ids=["sequential", "workers"])
    def test_batch_runs_are_rejected(self, racy_trace_file, capsys, extra):
        # A batch run holds the whole trace before it checks an event,
        # so pruning cannot bound its memory: the flag is --follow's.
        with pytest.raises(SystemExit) as err:
            main([racy_trace_file, "--object", "o=dictionary",
                  "--prune-interval", "8", *extra])
        assert err.value.code == 2
        message = capsys.readouterr().err.strip()
        assert message.startswith("repro-analyze: error: ")
        assert "\n" not in message
        assert "--prune-interval" in message and "--follow" in message

    def test_nonpositive_rejected(self, racy_trace_file):
        for bad in ("0", "-3", "soon"):
            with pytest.raises(SystemExit) as err:
                main([racy_trace_file, *self.FOLLOW, "--prune-interval", bad])
            assert err.value.code == 2

    def test_rejected_for_other_detectors(self, racy_trace_file):
        with pytest.raises(SystemExit) as err:
            main([racy_trace_file, "--object", "o=dictionary",
                  "--detector", "direct", "--prune-interval", "2"])
        assert err.value.code == 2


@pytest.fixture()
def predictable_trace_file(tmp_path):
    """Witnessed-clean, but a correct reordering races: t0's put is
    ordered before t1's only by an empty lock hand-off."""
    trace = (TraceBuilder(root=0)
             .fork(0, 1)
             .acquire(0, "L")
             .invoke(0, "o", "put", "k", 1, returns=NIL)
             .release(0, "L")
             .acquire(1, "L")
             .release(1, "L")
             .invoke(1, "o", "put", "k", 2, returns=1)
             .join(0, 1)
             .build())
    path = tmp_path / "predictable.jsonl"
    with open(path, "w", encoding="utf-8") as stream:
        dump_trace(trace, stream)
    return str(path)


class TestPredictFlag:
    def test_predicted_race_reported_and_exit_one(self,
                                                  predictable_trace_file,
                                                  capsys):
        witnessed = main([predictable_trace_file, "--object", "o=dictionary"])
        witnessed_out = capsys.readouterr().out
        assert witnessed == 0
        assert "predicted" not in witnessed_out
        code = main([predictable_trace_file, "--object", "o=dictionary",
                     "--predict"])
        out = capsys.readouterr().out
        assert code == 1                      # predictions count as reports
        assert "0 (0) commutativity race report(s)" in out
        assert "1 predicted race(s) in sound reorderings" in out
        assert "  predicted: commutativity race on o" in out
        # Witnessed-mode output is byte-identical: the predict run's
        # output is the witnessed output plus the predicted section.
        assert out.startswith(witnessed_out)

    def test_predict_off_is_byte_identical_to_before(self, racy_trace_file,
                                                     capsys):
        code = main([racy_trace_file, "--object", "o=dictionary"])
        out = capsys.readouterr().out
        assert code == 1
        assert "predicted" not in out

    def test_predict_composes_with_workers(self, predictable_trace_file,
                                           capsys):
        sequential = main([predictable_trace_file, "--object", "o=dictionary",
                           "--predict"])
        seq_out = capsys.readouterr().out
        sharded = main([predictable_trace_file, "--object", "o=dictionary",
                        "--predict", "--workers", "2"])
        shard_out = capsys.readouterr().out
        assert sharded == sequential == 1
        assert (seq_out.replace("rd2:", "rd2 [2 workers]:") == shard_out)

    def test_predict_composes_with_follow(self, predictable_trace_file,
                                          capsys):
        code = main([predictable_trace_file, "--object", "o=dictionary",
                     "--predict", "--follow", "--window", "3",
                     "--follow-timeout", "5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "rd2 [follow]: 1 predicted race(s)" in out

    def test_predict_stats_json_schema_extension(self, predictable_trace_file,
                                                 tmp_path, capsys):
        stats = tmp_path / "stats.json"
        main([predictable_trace_file, "--object", "o=dictionary",
              "--predict=32", "--stats-json", str(stats)])
        capsys.readouterr()
        report = json.loads(stats.read_text(encoding="utf-8"))
        assert report["meta"]["predict_window"] == 32
        (entry,) = report["predicted"]
        assert entry["object"] == "o"
        assert entry["pair"] == [2, 6]
        assert entry["race"].startswith("commutativity race on o")
        assert entry["witness"][-1].startswith("1: o.put")
        assert report["stats"]["counters"]["predict_validated"] == 1

    def test_stats_json_schema_frozen_without_predict(self,
                                                      predictable_trace_file,
                                                      tmp_path, capsys):
        stats = tmp_path / "stats.json"
        main([predictable_trace_file, "--object", "o=dictionary",
              "--stats-json", str(stats)])
        capsys.readouterr()
        report = json.loads(stats.read_text(encoding="utf-8"))
        assert "predicted" not in report
        assert "predict_window" not in report["meta"]

    def test_predict_rejected_outside_rd2(self, racy_trace_file):
        for extra in (["--detector", "direct"],
                      ["--detector", "fasttrack"],
                      ["--atomicity"]):
            with pytest.raises(SystemExit) as err:
                main([racy_trace_file, "--object", "o=dictionary",
                      "--predict", *extra])
            assert err.value.code == 2

    def test_bad_predict_window_rejected(self, racy_trace_file):
        for bad in ("0", "-4", "soon"):
            with pytest.raises(SystemExit) as err:
                main([racy_trace_file, "--object", "o=dictionary",
                      f"--predict={bad}"])
            assert err.value.code == 2


class TestFollowFlag:
    def test_follow_streams_and_matches_batch_summary(self, racy_trace_file,
                                                      capsys):
        batch = main([racy_trace_file, "--object", "o=dictionary"])
        batch_out = capsys.readouterr().out
        followed = main([racy_trace_file, "--object", "o=dictionary",
                         "--follow", "--window", "3",
                         "--prune-interval", "2", "--follow-timeout", "5"])
        follow_out = capsys.readouterr().out
        assert followed == batch == 1
        assert "race:" in follow_out           # incremental emission
        assert "rd2 [follow]:" in follow_out
        batch_groups = [l for l in batch_out.splitlines()
                        if l.startswith("  ")]
        follow_groups = [l for l in follow_out.splitlines()
                         if l.startswith("  ")]
        assert follow_groups == batch_groups

    def test_window_and_timeout_require_follow(self, racy_trace_file):
        for extra in (["--window", "4"], ["--follow-timeout", "1"]):
            with pytest.raises(SystemExit) as err:
                main([racy_trace_file, "--object", "o=dictionary", *extra])
            assert err.value.code == 2

    def test_follow_is_sequential_rd2_only(self, racy_trace_file):
        for extra in (["--workers", "2"],
                      ["--shard-timeout", "5"],
                      ["--detector", "direct"],
                      ["--atomicity"]):
            with pytest.raises(SystemExit) as err:
                main([racy_trace_file, "--object", "o=dictionary",
                      "--follow", *extra])
            assert err.value.code == 2

    def test_bad_window_and_timeout_values(self, racy_trace_file):
        for extra in (["--window", "0"], ["--window", "wide"],
                      ["--follow-timeout", "0"],
                      ["--follow-timeout", "later"]):
            with pytest.raises(SystemExit) as err:
                main([racy_trace_file, "--object", "o=dictionary",
                      "--follow", *extra])
            assert err.value.code == 2

    def test_follow_stats_json_snapshot(self, racy_trace_file, tmp_path,
                                        capsys):
        stats = tmp_path / "stats.json"
        code = main([racy_trace_file, "--object", "o=dictionary",
                     "--follow", "--window", "2", "--prune-interval", "1",
                     "--follow-timeout", "5", "--stats-json", str(stats)])
        capsys.readouterr()
        assert code == 1
        report = json.loads(stats.read_text(encoding="utf-8"))
        assert report["meta"]["detector"] == "rd2"
        assert report["meta"]["events"] > 0
        gauges = report["stats"]["gauges"]
        assert "active_points" in gauges and "interned_points" in gauges
        counters = report["stats"]["counters"]
        assert "interned_points_evicted" in counters


class TestObservabilityFlags:
    def test_stats_table_goes_to_stderr(self, racy_trace_file, capsys):
        baseline = main([racy_trace_file, "--object", "o=dictionary"])
        plain_out = capsys.readouterr().out
        code = main([racy_trace_file, "--object", "o=dictionary", "--stats"])
        captured = capsys.readouterr()
        assert code == baseline == 1
        # the race report on stdout is untouched by the flag
        assert captured.out == plain_out
        assert "checks_by_object" in captured.err
        assert "stamp" in captured.err

    def test_stats_json_report(self, racy_trace_file, tmp_path, capsys):
        out_path = tmp_path / "stats.json"
        main([racy_trace_file, "--object", "o=dictionary",
              "--stats-json", str(out_path)])
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert report["repro-stats"] == 1
        assert report["meta"]["detector"] == "rd2"
        assert report["meta"]["workers"] == 1
        counters = report["stats"]["counters"]
        assert counters["events"] == 9
        assert counters["races"] >= 1
        assert report["stats"]["breakdowns"]["checks_by_object"]
        assert report["stats"]["timers"]["stamp"]["count"] == 9

    def test_stats_json_with_workers_merges_shards(self, racy_trace_file,
                                                   tmp_path, capsys):
        out_path = tmp_path / "stats.json"
        main([racy_trace_file, "--object", "o=dictionary",
              "--workers", "2", "--stats-json", str(out_path)])
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert report["meta"]["workers"] == 2
        timers = report["stats"]["timers"]
        for phase in ("stamp", "fanout", "merge", "shard"):
            assert phase in timers
        assert report["stats"]["gauges"]["shards"] >= 1

    def test_stats_json_into_a_fifo(self, racy_trace_file, tmp_path,
                                    capsys):
        # A special file is written in place: a report renamed over a
        # FIFO would replace it with a regular file its reader never sees.
        fifo = tmp_path / "stats.fifo"
        os.mkfifo(fifo)
        spare = tmp_path / "spare.fifo"
        os.link(fifo, spare)    # a second name to release a waiting reader
        received = []

        def drain():
            with open(spare, "rb") as stream:   # waits for a writer
                received.append(stream.read())

        reader = threading.Thread(target=drain)
        reader.start()
        try:
            code = main([racy_trace_file, "--object", "o=dictionary",
                         "--stats-json", str(fifo)])
        finally:
            reader.join(timeout=5)
            if reader.is_alive():
                # Nothing opened the FIFO for writing: let the reader go.
                os.close(os.open(spare, os.O_WRONLY | os.O_NONBLOCK))
                reader.join(timeout=5)
        capsys.readouterr()
        assert code == 1
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert json.loads(received[0])["repro-stats"] == 1
        assert not (tmp_path / "stats.fifo.tmp").exists()

    def test_without_flags_no_stats_output(self, racy_trace_file, capsys):
        main([racy_trace_file, "--object", "o=dictionary"])
        assert capsys.readouterr().err == ""


class TestStampOnce:
    """The trace is loaded unstamped: each engine stamps it itself, or
    reads no clocks, so ``Trace.stamp`` never runs and output and exit
    code are unchanged."""

    MODES = {
        "rd2": ("racy_trace_file", ["--object", "o=dictionary"]),
        "workers": ("racy_trace_file",
                    ["--object", "o=dictionary", "--workers", "2"]),
        "predict": ("predictable_trace_file",
                    ["--object", "o=dictionary", "--predict"]),
        "direct": ("racy_trace_file",
                   ["--object", "o=dictionary", "--detector", "direct"]),
        "fasttrack": ("racy_trace_file", ["--detector", "fasttrack"]),
        "eraser": ("racy_trace_file", ["--detector", "eraser"]),
        "atomicity": ("racy_trace_file",
                      ["--object", "o=dictionary", "--atomicity"]),
    }

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_analysis_never_stamps_the_loaded_trace(self, request, capsys,
                                                    monkeypatch, mode):
        fixture, args = self.MODES[mode]
        argv = [request.getfixturevalue(fixture), *args]
        code = main(argv)
        out = capsys.readouterr().out

        def refuse(trace):
            raise AssertionError("repro-analyze stamped the loaded trace")

        monkeypatch.setattr(Trace, "stamp", refuse)
        assert main(argv) == code == 1
        assert capsys.readouterr().out == out


class TestTraceErrors:
    HEADER = '{"repro-trace": 1, "root": 0, "events": 2}\n'

    def _run(self, path, capsys, *extra):
        """Bad input exits with EXIT_DATA and one clean stderr line."""
        with pytest.raises(SystemExit) as excinfo:
            main([str(path), "--object", "o=dictionary", *extra])
        assert excinfo.value.code == 3
        message = capsys.readouterr().err.strip()
        assert message.startswith("repro-analyze: error: ")
        assert "\n" not in message
        return message

    def test_malformed_json_line_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(self.HEADER
                        + '{"kind": "fork", "tid": 0, "peer": 1}\n'
                        + "{not json\n")
        message = self._run(path, capsys)
        assert f"invalid trace file {str(path)!r}:" in message

    def test_unknown_event_kind_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "future.jsonl"
        path.write_text(self.HEADER
                        + '{"kind": "fork", "tid": 0, "peer": 1}\n'
                        + '{"kind": "teleport", "tid": 1}\n')
        message = self._run(path, capsys)
        assert f"invalid trace file {str(path)!r}:" in message
        assert "teleport" in message

    # Valid JSON of the wrong shape, in the header or in an event line.
    WRONG_SHAPES = {
        "header-list": "[1, 2]\n",
        "header-no-root": ('{"repro-trace": 1, "events": 1}\n'
                           '{"kind": "begin", "tid": 0}\n'),
        "event-int": HEADER + "7\n",
        "action-no-obj": (HEADER + '{"kind": "action", "tid": 0, '
                          '"method": "get", "args": ["k"], '
                          '"returns": [null]}\n'),
    }

    @pytest.mark.parametrize("mode", ["batch", "follow"])
    @pytest.mark.parametrize("shape", sorted(WRONG_SHAPES))
    def test_wrongly_shaped_record_is_a_clean_error(self, tmp_path, capsys,
                                                    shape, mode):
        path = tmp_path / "shape.jsonl"
        path.write_text(self.WRONG_SHAPES[shape])
        extra = ["--follow", "--follow-timeout", "5"] if mode == "follow" \
            else []
        message = self._run(path, capsys, *extra)
        assert f"invalid trace file {str(path)!r}:" in message

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "nope.jsonl"
        message = self._run(path, capsys)
        assert f"cannot read trace {str(path)!r}:" in message

    def test_empty_file_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        message = self._run(path, capsys)
        assert f"invalid trace file {str(path)!r}:" in message


class TestSpecReportCli:
    def test_spec_report_flag(self, capsys):
        assert main(["--spec-report", "dictionary"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6 style" in out
        assert "Fig. 7 style" in out
        assert "Theorem 6.6" in out

    def test_unknown_spec_kind(self):
        with pytest.raises(SystemExit):
            main(["--spec-report", "nope"])


class TestSpecReportFunction:
    def test_contains_the_papers_artifacts(self):
        report = spec_report(dictionary_spec())
        assert "ϕ[put, put]" in report
        assert "B(Φ, put) = {v = p, v = nil, p = nil}" in report
        assert "max conflict degree: 2" in report
        assert "B(Φ, get) = ∅" in report

    def test_every_bundled_spec_reports(self):
        from repro.specs import bundled_objects
        for kind, bundled in bundled_objects().items():
            report = spec_report(bundled.spec())
            assert kind in report
