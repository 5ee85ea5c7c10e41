"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import workloads  # noqa: E402

ENV = run.child_env(SRC)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=600)


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda seed: gen.contended_text(seed, 500),
    lambda seed: gen.butterfly_text(seed, 200, threads=32),
    lambda seed: gen.mixed_text(seed, 200),
])
def test_same_seed_gives_byte_identical_inputs(make):
    first, bindings = make(7)
    again, _ = make(7)
    other, _ = make(8)
    assert first == again
    assert first != other
    assert bindings


def test_inputs_load_as_traces_of_the_declared_length():
    from repro.core.serialize import loads_trace
    for text, _ in (gen.contended_text(3, 300),
                    gen.butterfly_text(3, 100, threads=16),
                    gen.mixed_text(3, 100)):
        header = json.loads(text.splitlines()[0])
        assert len(loads_trace(text)) == header["events"]


def test_pinned_default_seed_inputs_match():
    for workload in workloads.WORKLOADS.values():
        assert workloads.check_pin(workload, 1.0) is None


# -- the 'loaded' boundary, percentiles, verdicts -------------------------------


def test_parse_loaded_line():
    assert run.parse_loaded("loaded 66112 events (60000 actions, 65 threads)") \
        == 66112
    assert run.parse_loaded("rd2: 3 (1) commutativity race report(s)") is None
    assert run.parse_loaded("loaded many events") is None


def test_spawn_times_the_loaded_line_not_the_exit(tmp_path):
    script = ("import time; print('warming up', flush=True); "
              "time.sleep(0.3); print('loaded 5 events (4 actions, "
              "2 threads)', flush=True); time.sleep(0.4)")
    exited = run.spawn([sys.executable, "-u", "-c", script], ENV,
                       str(tmp_path / "log"))
    assert exited.code == 0
    assert 0.3 <= exited.marker_s < exited.wall_s - 0.3
    assert exited.stdout[1].startswith("loaded 5 events")
    assert exited.rss_mb > 0


@pytest.mark.parametrize("count, expected", [
    (10, None),
    (11, (9, 1, 10)),
    (20, (50, 10, 10)),
    (100, (90, 90, 10)),
    (112, (91, 102, 10)),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    values = [float(v) for v in range(count, 0, -1)]
    assert run.tail_percentile(values) == (
        None if expected is None
        else (expected[0], float(expected[1]), expected[2]))


REFERENCE = {"exit_code": 1, "stdout": [
    "loaded 9 events (6 actions, 3 threads)",
    "rd2: 2 (1) commutativity race report(s)",
    "  [2x] commutativity race on o: ...",
]}


def test_verdict_matches_reference():
    assert run.verdict_problem(1, list(REFERENCE["stdout"]), REFERENCE) \
        is None


def test_dropped_race_line_is_a_wrong_verdict():
    assert "missing line" in run.verdict_problem(1, REFERENCE["stdout"][:2],
                                                 REFERENCE)


def test_changed_or_duplicated_line_is_a_wrong_verdict():
    changed = REFERENCE["stdout"][:2] + ["  [2x] commutativity race on p: ..."]
    assert "missing line" in run.verdict_problem(1, changed, REFERENCE)
    doubled = REFERENCE["stdout"] + REFERENCE["stdout"][-1:]
    assert "4 lines" in run.verdict_problem(1, doubled, REFERENCE)


def test_reordered_groups_are_the_same_verdict():
    stdout = REFERENCE["stdout"]
    swapped = stdout[:1] + stdout[2:] + stdout[1:2]
    assert run.verdict_problem(1, swapped, REFERENCE) is None


def test_wrong_exit_code_is_a_wrong_verdict():
    assert "exit code 0" in run.verdict_problem(0, REFERENCE["stdout"],
                                                REFERENCE)


# -- the reference and the injected failures -------------------------------------


def _prepared(name, tmp_path, scale=0.03, seed=1):
    workload = workloads.WORKLOADS[name].sized(scale)
    directory = str(tmp_path / name)
    bench = run.Run(workload, seed, scale, 1.0, ROOT, directory, ENV)
    run.prepare(bench, run.tree_digest(SRC))
    return bench


def test_projection_agrees_with_full_direct_detector():
    from repro.core.serialize import loads_trace
    text, bindings = gen.contended_text(5, 1500, threads=8)
    trace = loads_trace(text)
    events = list(trace)
    full = layers.direct_flagged(events, trace.root, bindings,
                                 lambda action: True)
    projected = layers.direct_flagged(
        events, trace.root, bindings,
        lambda action: gen.may_race("contended", action.args))
    assert full == projected
    assert full, "the shape must contain races for this to mean anything"


def test_offline_wrong_verdicts_count_as_failed(tmp_path):
    bench = _prepared("contended64", tmp_path)
    assert bench.failed == 0 and bench.reference["exit_code"] == 1
    assert run.analyze_once(bench) is not None
    reference = bench.reference
    bench.reference = dict(reference, stdout=reference["stdout"][:-1])
    assert run.analyze_once(bench) is None
    bench.reference = dict(reference, exit_code=0)
    assert run.analyze_once(bench) is None
    assert (bench.attempted, bench.failed) == (3, 2)


def test_served_wrong_verdicts_count_as_failed(tmp_path):
    bench = _prepared("serve-2t", tmp_path)
    expected = bench.reference["expected"]
    wrong = [dict(entry, races=entry["races"][:-1]) for entry in expected]
    wrong[1] = dict(expected[1], done=expected[1]["done"] + 1)
    life = serve.lifetime(ROOT, bench.directory, bench.manifest, wrong,
                          len(expected), 2, ENV, "w")
    assert life.problem is None
    problems = sorted(stream.problem for stream in life.streams)
    assert all(problem is not None for problem in problems)
    assert any("expected DONE" in problem for problem in problems)
    assert any("RACES report differs" in problem for problem in problems)


# -- whole runs -----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(name, trace, tmp_path):
    done = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--scale", "0.02",
                  "--work-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    declared = contract["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in declared}
    assert '"nproc"' in done.stdout and '"start_method"' in done.stdout


def test_refuses_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench("--workload", "contended64", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
