"""Snapshot tests freezing the ``--stats-json`` report schema.

Each golden under ``tests/data/expected/*.stats.json`` was produced by
``tests/data/generate_golden.py`` running the real CLI at
``sample_interval=1`` and scrubbing the wall-clock timing fields.  The
tests replay the same invocation and compare the scrubbed reports, so
any drift in the report key structure, counter totals, or breakdown
attribution — intended or not — shows up as a reviewable diff against a
regenerated golden.  ``multi_object_mixed`` is frozen under every engine
(``<name>.<engine>.stats.json``), so each mode's report is pinned too.
"""

import contextlib
import io
import json
import pathlib

import pytest

from repro import cli
from repro.obs import scrub_timings

from tests.data.generate_golden import ENGINE_SCENARIO, ENGINE_STATS

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"
EXPECTED_DIR = DATA_DIR / "expected"

# <name>.stats.json only: <name>.<engine>.stats.json are per-engine.
SCENARIOS = sorted(path.name[:-len(".stats.json")]
                   for path in EXPECTED_DIR.glob("*.stats.json")
                   if path.name.count(".") == 2)


def golden_bindings(name):
    """The object bindings frozen next to the race-report golden."""
    expected = json.loads((EXPECTED_DIR / f"{name}.json").read_text())
    return expected["bindings"]


def run_cli_stats(name, tmp_path, flags=()):
    out_path = tmp_path / "stats.json"
    argv = [str(DATA_DIR / f"{name}.jsonl"), *flags]
    for obj, kind in golden_bindings(name).items():
        argv += ["--object", f"{obj}={kind}"]
    argv += ["--stats-json", str(out_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = cli.main(argv)
    return exit_code, json.loads(out_path.read_text())


def test_the_corpus_is_present():
    assert len(SCENARIOS) >= 6


@pytest.mark.parametrize("name", SCENARIOS)
def test_stats_report_matches_golden(name, tmp_path):
    exit_code, report = run_cli_stats(name, tmp_path)
    golden = json.loads((EXPECTED_DIR / f"{name}.stats.json").read_text())
    assert scrub_timings(report) == golden
    # racy scenarios exit 1, race-free ones 0 — frozen along with the rest
    races = golden["stats"]["counters"]["races"]
    assert exit_code == (1 if races else 0)


def test_sharded_stats_report_matches_golden(tmp_path):
    _, report = run_cli_stats("multi_object_mixed", tmp_path,
                              ENGINE_STATS["workers2"])
    golden = json.loads(
        (EXPECTED_DIR / "multi_object_mixed.workers2.stats.json").read_text())
    assert scrub_timings(report) == golden


# workers2 is checked by the test above.
@pytest.mark.parametrize("engine", sorted(set(ENGINE_STATS) - {"workers2"}))
def test_engine_stats_report_matches_golden(engine, tmp_path):
    _, report = run_cli_stats(ENGINE_SCENARIO, tmp_path, ENGINE_STATS[engine])
    golden = json.loads((EXPECTED_DIR / f"{ENGINE_SCENARIO}.{engine}"
                         f".stats.json").read_text())
    assert scrub_timings(report) == golden


def test_sharded_and_sequential_goldens_agree_on_attribution(tmp_path):
    """workers=2 merges shard metrics back to the sequential totals."""
    seq = json.loads(
        (EXPECTED_DIR / "multi_object_mixed.stats.json").read_text())
    par = json.loads(
        (EXPECTED_DIR / "multi_object_mixed.workers2.stats.json").read_text())
    assert par["stats"]["breakdowns"] == seq["stats"]["breakdowns"]
    assert (par["stats"]["counters"]["races"]
            == seq["stats"]["counters"]["races"])
