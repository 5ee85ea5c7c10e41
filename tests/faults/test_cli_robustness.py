"""CLI input hardening and interrupt behavior.

Every bad invocation must produce exactly one ``repro-analyze: error:``
line on stderr and the documented exit code — never an argparse usage
dump or a traceback — and Ctrl-C must exit 130 leaving no orphan worker
processes.
"""

import multiprocessing
import pathlib

import pytest

from repro.cli import (EXIT_DATA, EXIT_INTERRUPT, EXIT_USAGE, main)
from repro.core.events import NIL
from repro.core.serialize import dump_trace
from repro.core.supervise import ShardSupervisor
from repro.core.trace import TraceBuilder

TRACE = "tests/data/multi_object_mixed.jsonl"
OBJECTS = ["--object", "a=accumulator", "--object", "d=dictionary",
           "--object", "r=register"]


def usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_USAGE
    err = capsys.readouterr().err.strip()
    assert err.startswith("repro-analyze: error: ")
    assert "\n" not in err, f"expected one line, got: {err!r}"
    return err


class TestWorkersValidation:
    @pytest.mark.parametrize("value", ["abc", "2.5", "", "0x2"])
    def test_non_integer_workers_rejected(self, capsys, value):
        err = usage_error(capsys, [TRACE, *OBJECTS, "--workers", value])
        assert "--workers expects a positive integer" in err

    @pytest.mark.parametrize("value", ["0", "-1", "-3"])
    def test_nonpositive_workers_rejected(self, capsys, value):
        err = usage_error(capsys, [TRACE, *OBJECTS, "--workers", value])
        assert "--workers must be >= 1" in err

    def test_validated_before_the_trace_is_loaded(self, capsys, tmp_path):
        # A usage error should not depend on the trace being readable.
        usage_error(capsys, [str(tmp_path / "missing.jsonl"), *OBJECTS,
                             "--workers", "0"])


class TestRobustnessFlagValidation:
    @pytest.mark.parametrize("argv, needle", [
        (["--shard-timeout", "0"], "--shard-timeout"),
        (["--shard-timeout", "-2"], "--shard-timeout"),
        (["--shard-timeout", "soon"], "--shard-timeout"),
        (["--shard-timeout", "inf"], "--shard-timeout"),
        (["--shard-timeout", "nan"], "--shard-timeout"),
        (["--follow", "--follow-timeout", "nan"], "--follow-timeout"),
        (["--follow", "--follow-timeout", "inf"], "--follow-timeout"),
    ])
    def test_bad_values_rejected(self, capsys, argv, needle):
        err = usage_error(capsys, [TRACE, *OBJECTS, *argv])
        assert needle in err

    @pytest.mark.parametrize("argv", [
        ["--detector", "direct", "--workers", "2"],
        ["--detector", "fasttrack", "--workers", "2"],
        ["--detector", "eraser", "--shard-timeout", "5"],
        ["--atomicity", "--workers", "2"],
    ])
    def test_rd2_only_flags_rejected_elsewhere(self, capsys, argv):
        err = usage_error(capsys, [TRACE, *OBJECTS, *argv])
        assert "only to the rd2 detector" in err

    @pytest.mark.parametrize("workers", [[], ["--workers", "1"]],
                             ids=["no-workers", "workers-1"])
    def test_shard_timeout_needs_worker_processes(self, capsys, workers):
        # One worker runs every shard inline: no child, nothing to time.
        err = usage_error(capsys, [TRACE, *OBJECTS, "--shard-timeout", "5",
                                   *workers])
        assert "--shard-timeout requires --workers" in err

    def test_shard_retries_is_a_usage_error(self, capsys):
        # A failed shard is replayed in-process at once, so there is no
        # retry count to set: the flag is unknown, not silently ignored.
        err = usage_error(capsys, [TRACE, *OBJECTS, "--workers", "2",
                                   "--shard-retries", "1"])
        assert "--shard-retries" in err

    def test_bad_object_binding_is_usage_error(self, capsys):
        err = usage_error(capsys, [TRACE, "--object", "nokind"])
        assert "NAME=KIND" in err
        err = usage_error(capsys, [TRACE, "--object", "o=warpdrive"])
        assert "warpdrive" in err

    def test_trace_error_exit_code_is_distinct(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "missing.jsonl"), *OBJECTS])
        assert excinfo.value.code == EXIT_DATA


class TestParserErrors:
    """argparse's own errors — an unknown flag, a bad choice, a flag
    without its value — are one line as well, and write nothing."""

    @pytest.mark.parametrize("argv, needle", [
        (["--bogus"], "unrecognized arguments: --bogus"),
        (["--detector", "nope"], "invalid choice: 'nope'"),
        (["--object"], "--object: expected one argument"),
        (["--spans", "x.jsonl"], "unrecognized arguments: --spans"),
    ], ids=["unknown-flag", "bad-choice", "missing-value", "spans"])
    def test_one_line(self, capsys, tmp_path, monkeypatch, argv, needle):
        monkeypatch.chdir(tmp_path)
        trace = str(pathlib.Path(__file__).parents[2] / TRACE)
        err = usage_error(capsys, [trace, *OBJECTS, *argv])
        assert needle in err
        assert not any(tmp_path.iterdir())


class TestUninterpretableActions:
    """A trace that parses, but whose action the bound kind cannot
    interpret, is an input error under every engine: exit 3 with one
    line naming the event, never a traceback."""

    INPUTS = {
        # A method the bound kind lacks.
        "unknown-method": ("set", "enq", (1,), "set has no method 'enq'"),
        # A point argument that cannot be hashed into an access point.
        "list-point": ("dictionary", "put", ([1, 2], 5),
                       "unhashable type: 'list'"),
    }
    ENGINES = {
        "sequential": [],
        "workers": ["--workers", "2"],
        "predict": ["--predict"],
        "follow": ["--follow", "--follow-timeout", "5"],
        "atomicity": ["--atomicity"],
    }

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("case", sorted(INPUTS))
    def test_exits_3_naming_the_event(self, capsys, tmp_path, case, engine):
        kind, method, args, cause = self.INPUTS[case]
        trace = (TraceBuilder(root=0)
                 .fork(0, 1)
                 .invoke(0, "o", method, *args, returns=NIL)
                 .join(0, 1)
                 .build())
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as out:
            dump_trace(trace, out)
        with pytest.raises(SystemExit) as excinfo:
            main([str(path), "--object", f"o={kind}",
                  *self.ENGINES[engine]])
        assert excinfo.value.code == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert err.startswith("repro-analyze: error: ")
        assert "\n" not in err, f"expected one line, got: {err!r}"
        assert f"event 1 (0: o.{method}(" in err
        assert cause in err


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes:" in out
    for code in ("0 ", "1 ", "2 ", "3 ", "130"):
        assert code in out


def interrupt(*args):
    raise KeyboardInterrupt


def test_keyboard_interrupt_exits_130_without_orphans(monkeypatch,
                                                      capsys):
    """Ctrl-C while awaiting a shard: exit 130, worker processes torn
    down (no orphans)."""
    monkeypatch.setattr(ShardSupervisor, "_await", staticmethod(interrupt))
    code = main([TRACE, *OBJECTS, "--workers", "2"])
    assert code == EXIT_INTERRUPT
    assert "interrupted" in capsys.readouterr().err
    assert not multiprocessing.active_children()
