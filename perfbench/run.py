"""Layered benchmark of ``repro-analyze`` and ``repro-serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload contended64 --seed 1 --seconds 20 --trace 0

The inputs are generated from ``--seed`` before any timing starts.  The
offline workloads spawn the real ``repro-analyze`` entry point, a fresh
interpreter per operation, on the generated trace file; ``serve-2t``
spawns ``repro-serve`` and drives it from a closed-loop client.  Every
verdict is checked against a reference computed outside the timed part
and cached per (workload, seed, program): the program's own public calls
in the CLI's order, themselves checked against ``DirectDetector``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
separate traced pass (``layers.py``) and reports the per-layer metrics.
Human-readable lines (host facts, every metric with its unit) come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``README.md``
next to this file says why each workload exists and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
import sysconfig
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

import serve
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ANALYZE_SHIM = "import sys; from repro.cli import main; sys.exit(main())"
#: Longest a single spawned operation may take before it is killed and
#: counted as failed.
OP_TIMEOUT = 60.0
#: Fewest operations a measurement makes, however long they take.
MIN_OPS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("cli.import_s", "s"),
    ("serialize.parse_s", "s"), ("serialize.events", "count"),
    ("serialize.input_mb", "MB"),
    ("hb.load_stamp_s", "s"), ("hb.run_stamp_s", "s"),
    ("hb.threads", "count"), ("hb.locks", "count"),
    ("detector.register_s", "s"), ("detector.check_s", "s"),
    ("detector.actions", "count"), ("detector.conflict_checks", "count"),
    ("detector.checks_per_action", "ratio"), ("detector.races", "count"),
    ("detector.epoch_promotions", "count"),
    ("predict.run_s", "s"), ("predict.candidates", "count"),
    ("predict.dropped_ordered", "count"), ("predict.validated", "count"),
    ("predict.validated_per_candidate", "ratio"),
    ("parallel.run_s", "s"), ("parallel.stamp_s", "s"),
    ("parallel.fanout_s", "s"), ("parallel.merge_s", "s"),
    ("parallel.ipc_mb", "MB"), ("parallel.shard_retries", "count"),
    ("parallel.parent_cpu_s", "s"), ("parallel.worker_cpu_s", "s"),
    ("races.report_s", "s"), ("races.lines", "count"),
    ("service.handshake_ms", "ms"), ("service.send_s", "s"),
    ("service.drain_ms", "ms"), ("service.races_ms", "ms"),
    ("service.queue_hwm", "count"),
    ("stream.analyze_s", "s"), ("stream.windows", "count"),
    ("stream.points_pruned", "count"),
    ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
]

#: Span name -> per-layer time metric it measures.
SPAN_METRICS = {
    "cli.import": "cli.import_s",
    "serialize.parse": "serialize.parse_s",
    "hb.load_stamp": "hb.load_stamp_s",
    "hb.run_stamp": "hb.run_stamp_s",
    "detector.register": "detector.register_s",
    "detector.check": "detector.check_s",
    "predict.run": "predict.run_s",
    "parallel.run": "parallel.run_s",
    "races.report": "races.report_s",
    "stream.analyze": "stream.analyze_s",
}


def _code_digest(*names: str) -> str:
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(HERE, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


#: Identifies the benchmark code a cached reference was computed with.
REFERENCE_CODE = _code_digest("gen.py", "workloads.py", "layers.py")


class SetupError(Exception):
    """The benchmark cannot run here (no program source, bad arguments)."""


# -- small statistics ---------------------------------------------------------


def tail_percentile(values: List[float], beyond: int = 10
                    ) -> Optional[Tuple[int, float, int]]:
    """The highest whole percentile with at least ``beyond`` samples above.

    Returns ``(percentile, value, samples beyond it)`` by the nearest-rank
    rule, or None when there are too few samples for any percentile.
    """
    count = len(values)
    if count <= beyond:
        return None
    ordered = sorted(values)
    percentile = (100 * (count - beyond)) // count
    rank = max(1, math.ceil(percentile * count / 100))
    return percentile, ordered[rank - 1], count - rank


def parse_loaded(line: str) -> Optional[int]:
    """The event count of the CLI's ``loaded N events (...)`` line."""
    parts = line.split()
    if len(parts) >= 3 and parts[0] == "loaded" and parts[2] == "events" \
            and parts[1].isdigit():
        return int(parts[1])
    return None


def lines_problem(got: List[str], want: List[str]) -> Optional[str]:
    """Why a report differs from the reference, line order aside.

    Equal-count race groups come out in an order that varies from one
    process to the next (see ``README.md``), so the lines are compared as
    a multiset: the tally, every group line with its count and sample,
    and every predicted race must all be there.
    """
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing:
        return f"missing line {missing[0]!r}"
    if extra:
        return f"unexpected line {extra[0]!r}"
    if sorted(got) != sorted(want):
        return f"{len(got)} lines, expected {len(want)}"
    return None


def verdict_problem(code: int, stdout: List[str], expected: dict
                    ) -> Optional[str]:
    """Why a ``repro-analyze`` run's verdict differs from the reference."""
    if code != expected["exit_code"]:
        return f"exit code {code}, expected {expected['exit_code']}"
    return lines_problem(stdout, expected["stdout"])


# -- processes ------------------------------------------------------------------


@dataclass
class Exited:
    code: int
    wall_s: float
    marker_s: Optional[float]
    rss_mb: float
    stdout: List[str]


def spawn(argv: List[str], env: Dict[str, str], log_path: str,
          marker: str = "loaded ") -> Exited:
    """Run one process to exit; time its first ``marker`` line and its exit.

    ``wait4`` gives the peak RSS of the process and of the children it
    waited for (shard workers), whichever is largest.
    """
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log,
                                env=env, text=True, encoding="utf-8")
    timer = threading.Timer(OP_TIMEOUT, proc.kill)
    timer.start()
    marked = None
    lines = []
    try:
        for line in proc.stdout:
            if marked is None and line.startswith(marker):
                marked = time.perf_counter() - start
            lines.append(line.rstrip("\n"))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exited(proc.returncode, wall, marked, usage.ru_maxrss / 1024.0,
                  lines)


def child_env(src: str) -> Dict[str, str]:
    """The environment of every spawned interpreter.

    The program is imported from ``src``.  Bytecode caching is on, as it
    is for an installed ``repro-analyze``, whatever the caller's
    environment says, so import time does not depend on who runs this.
    """
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def tree_digest(path: str) -> str:
    """SHA-256 over every file below ``path`` (names and contents)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(path):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            full = os.path.join(base, name)
            digest.update(os.path.relpath(full, path).encode("utf-8"))
            with open(full, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


# -- the run --------------------------------------------------------------------


@dataclass
class Run:
    workload: workloads.Workload
    seed: int
    scale: float
    seconds: float
    root: str
    directory: str
    env: Dict[str, str]
    manifest: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: correct reports whose lines came out in another order
    reordered: int = 0
    problems: List[str] = field(default_factory=list)
    report: List[str] = field(default_factory=list)

    def op(self, problem: Optional[str]) -> bool:
        """Count one operation; a problem makes it a failed one."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return problem is None

    def say(self, line: str) -> None:
        self.report.append(line)


def host_facts(root: str, seed: int) -> dict:
    from repro.core.backend import resolve_backend
    choice = resolve_backend("pickle")  # repro-analyze's --backend default
    commit = None
    try:
        found = subprocess.run(["git", "rev-parse", "--show-toplevel",
                                "HEAD"], cwd=root, capture_output=True,
                               text=True, timeout=10).stdout.split()
    except OSError:
        found = []
    # A checkout that is not itself a git work tree has no commit; the
    # source digest below still identifies the program.
    if len(found) == 2 and os.path.realpath(found[0]) == \
            os.path.realpath(root):
        commit = found[1]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "build": ("free-threaded" if sysconfig.get_config_var(
            "Py_GIL_DISABLED") else "GIL"),
        "start_method": multiprocessing.get_start_method(),
        "default_backend": choice.describe(),
        "default_backend_reason": choice.reason or "requested pickle, "
                                                   "honored as requested",
        "seed": seed,
        "commit": commit,
        "src_sha256": tree_digest(os.path.join(root, "src")),
    }


def prepare(run: Run, src_digest: str) -> None:
    """Generate the inputs, check the pin, load or compute the reference."""
    pin = workloads.check_pin(run.workload, run.scale)
    if pin is not None:
        run.op(pin)
    run.manifest = workloads.materialize(run.workload, run.seed,
                                         run.directory)
    key = hashlib.sha256("|".join(
        (run.manifest["inputs_sha256"], src_digest, REFERENCE_CODE)
    ).encode("ascii")).hexdigest()[:16]
    path = os.path.join(run.directory, f"ref-{key}.json")
    if not os.path.exists(path):
        exited = spawn([sys.executable, "-u",
                        os.path.join(HERE, "layers.py"), "--dir",
                        run.directory, "--mode", "ref", "--out", path],
                       run.env, os.path.join(run.directory, "ref.log"))
        if exited.code != 0 or not os.path.exists(path):
            raise SetupError(f"reference pass failed (exit {exited.code}); "
                             f"see {run.directory}/ref.log")
    with open(path, encoding="utf-8") as handle:
        run.reference = json.load(handle)
    for problem in run.reference["reference"]["problems"]:
        run.op(f"reference check: {problem}")


def analyze_argv(run: Run) -> List[str]:
    manifest = run.manifest
    return ([sys.executable, "-u", "-c", ANALYZE_SHIM,
             os.path.join(run.directory, manifest["files"][0])]
            + workloads.object_flags(manifest["bindings"])
            + manifest["cli_flags"])


def analyze_once(run: Run) -> Optional[Exited]:
    """One verified ``repro-analyze`` run; None when its verdict is wrong."""
    exited = spawn(analyze_argv(run), run.env,
                   os.path.join(run.directory, "analyze.log"))
    problem = verdict_problem(exited.code, exited.stdout, run.reference)
    if problem is None and exited.marker_s is None:
        problem = "no 'loaded' line"
    if problem is None and \
            parse_loaded(exited.stdout[0]) != run.manifest["events"]:
        problem = f"'loaded' line counts the wrong events: " \
                  f"{exited.stdout[0]!r}"
    if problem is not None:
        problem = f"repro-analyze: {problem}"
    elif exited.stdout != run.reference["stdout"]:
        run.reordered += 1
    return exited if run.op(problem) else None


def measure_offline(run: Run) -> Dict[str, float]:
    samples: List[Exited] = []
    deadline = time.perf_counter() + run.seconds
    while len(samples) < MIN_OPS or time.perf_counter() < deadline:
        exited = analyze_once(run)
        if exited is not None:
            samples.append(exited)
        elif run.failed > MIN_OPS:
            break
    if not samples:
        return {}
    walls = [s.wall_s for s in samples]
    metrics = {"wall_s": median(walls),
               "setup_s": median([s.marker_s for s in samples]),
               "peak_rss_mb": median([s.rss_mb for s in samples])}
    run.say(f"wall_s {metrics['wall_s']:.4f} s (median of {len(walls)}; "
            f"min {min(walls):.4f}, max {max(walls):.4f})")
    run.say(f"setup_s {metrics['setup_s']:.4f} s (spawn to the 'loaded' "
            f"line, median of {len(samples)})")
    run.say(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    return metrics


def serve_lifetimes(run: Run, seconds: float, prefix: str,
                    least: int = MIN_OPS,
                    want_stats: bool = False) -> List[serve.Lifetime]:
    """Daemon lifetimes for ``seconds``, and at least ``least`` of them."""
    workload = run.workload
    lifetimes = []
    deadline = time.perf_counter() + seconds
    while len(lifetimes) < least or time.perf_counter() < deadline:
        life = serve.lifetime(run.root, run.directory, run.manifest,
                              run.reference["expected"],
                              workload.streams_per_daemon,
                              workload.connections, run.env,
                              f"{prefix}{len(lifetimes)}",
                              want_stats=want_stats)
        lifetimes.append(life)
        if life.problem is not None:
            run.op(f"repro-serve: {life.problem}")
        for stream in life.streams:
            run.op(stream.problem)
            run.reordered += stream.reordered
        if run.failed > MIN_OPS:
            break
    return lifetimes


def good_streams(lifetimes: List[serve.Lifetime]) -> List[serve.Stream]:
    return [stream for life in lifetimes for stream in life.streams
            if stream.problem is None]


def measure_served(run: Run) -> Dict[str, float]:
    lifetimes = serve_lifetimes(run, run.seconds, "t")
    streams = good_streams(lifetimes)
    started = [life for life in lifetimes if life.setup_s is not None]
    if not streams or not started:
        return {}
    verdicts = [stream.verdict_s for stream in streams]
    metrics = {"wall_s": median(verdicts),
               "setup_s": median([life.setup_s for life in started]),
               "peak_rss_mb": median([life.rss_mb for life in started])}
    events = sum(stream.events for stream in streams)
    elapsed = sum(life.elapsed_s for life in lifetimes)
    run.say(f"wall_s {metrics['wall_s']:.4f} s (per-stream time to verdict, "
            f"HELLO sent to DONE received; median of {len(verdicts)})")
    run.say(f"setup_s {metrics['setup_s']:.4f} s (daemon spawn to its "
            f"control socket answering; median of {len(started)} daemons)")
    run.say(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (daemon, median "
            f"of {len(started)} lifetimes of "
            f"{run.workload.streams_per_daemon} streams)")
    run.say(f"events_per_s {events / elapsed:.1f} 1/s ({len(streams)} "
            f"verified streams of about {events // len(streams)} events, "
            f"{run.workload.connections} connections)")
    run.say(f"verdict_p50_ms {1000 * metrics['wall_s']:.2f} ms")
    tail = tail_percentile(verdicts)
    if tail is None:
        run.say(f"verdict_tail_ms n/a (only {len(verdicts)} samples; a "
                f"tail needs more than 10)")
    else:
        percentile, value, beyond = tail
        run.say(f"verdict_tail_ms {1000 * value:.2f} ms (p{percentile} of "
                f"{len(verdicts)} samples, {beyond} beyond it)")
    return metrics


# -- the traced run ---------------------------------------------------------------


def traced_once(run: Run) -> Optional[Tuple[float, dict]]:
    """One ``layers.py --mode trace`` process; (wall, its record)."""
    out = os.path.join(run.directory, f"trace-{os.getpid()}.json")
    start = time.perf_counter()
    exited = spawn([sys.executable, "-u", os.path.join(HERE, "layers.py"),
                    "--dir", run.directory, "--mode", "trace", "--out", out],
                   run.env, os.path.join(run.directory, "trace.log"))
    if exited.code != 0 or not os.path.exists(out):
        run.op(f"traced pass exited with {exited.code}")
        return None
    with open(out, encoding="utf-8") as handle:
        record = json.load(handle)
    os.unlink(out)
    # Interpreter start-up and tear-down, timed from this side: the
    # monotonic clock is shared with the child, so these spans and the
    # child's own cover the traced process from spawn to exit.
    record["spans"] += [
        {"name": "python.startup", "start": start, "end": record["start"],
         "parent": None},
        {"name": "python.exit", "start": record["end"],
         "end": start + exited.wall_s, "parent": None}]
    problem = None
    if record["flagged"] != run.reference["reference"]["direct_flagged"]:
        problem = "traced pass flagged other actions than DirectDetector"
    elif run.workload.served:
        if record["expected"] != run.reference["expected"]:
            problem = "traced pass verdicts differ from the reference"
    else:
        if record["exit_code"] != run.reference["exit_code"]:
            problem = (f"traced pass verdict code {record['exit_code']}, "
                       f"reference {run.reference['exit_code']}")
        else:
            problem = lines_problem(exited.stdout, run.reference["stdout"])
    return (exited.wall_s, record) if run.op(problem) else None


def spans_total(record: dict) -> float:
    """Seconds covered by a traced pass's top-level spans."""
    return sum(span["end"] - span["start"] for span in record["spans"]
               if span["parent"] is None)


def layer_metrics(records: List[dict]) -> Dict[str, float]:
    """Per-layer times, each the median over the traced passes."""
    times: Dict[str, List[float]] = {}
    for record in records:
        per_pass: Dict[str, float] = {}
        for span in record["spans"]:
            metric = SPAN_METRICS.get(span["name"])
            if metric is not None:
                per_pass[metric] = (per_pass.get(metric, 0.0)
                                    + span["end"] - span["start"])
        for metric, value in per_pass.items():
            times.setdefault(metric, []).append(value)
    return {metric: median(values) for metric, values in times.items()}


def traced_offline(run: Run) -> Dict[str, float]:
    """Alternate untraced and traced passes; reconcile them pair by pair.

    The host's speed drifts by tens of percent within a minute, so the
    two walls are compared within each adjacent pair, not as medians of
    separate series.
    """
    pairs: List[Tuple[float, float, dict]] = []
    deadline = time.perf_counter() + run.seconds
    while len(pairs) < 2 or time.perf_counter() < deadline:
        exited = analyze_once(run)
        outcome = traced_once(run)
        if exited is not None and outcome is not None:
            pairs.append((exited.wall_s, outcome[0], outcome[1]))
        if run.failed > MIN_OPS:
            break
    if not pairs:
        return {}
    records = [record for _, _, record in pairs]
    metrics = layer_metrics(records)
    metrics.update(records[-1]["counters"])
    wall_u = median([untraced for untraced, _, _ in pairs])
    metrics["trace.unattributed_s"] = median(
        [untraced - spans_total(record) for untraced, _, record in pairs])
    metrics["trace.overhead_s"] = median(
        [traced - untraced for untraced, traced, _ in pairs])
    run.say(f"reconcile: per pair, untraced wall = layer spans + "
            f"unattributed; median unattributed "
            f"{metrics['trace.unattributed_s']:.4f} s, median overhead "
            f"(traced minus untraced wall) "
            f"{metrics['trace.overhead_s']:.4f} s; untraced wall "
            f"{wall_u:.4f} s (median of {len(pairs)} pairs)")
    if abs(metrics["trace.overhead_s"]) > 0.2 * wall_u:
        run.say("reconcile: WARNING the traced pass and repro-analyze "
                "differ by more than a fifth of the wall time; the traced "
                "pass may no longer follow repro/cli.py")
    return metrics


def traced_served(run: Run) -> Dict[str, float]:
    plain = good_streams(serve_lifetimes(run, run.seconds / 2, "u", 1))
    lifetimes = serve_lifetimes(run, run.seconds / 2, "v", 1,
                                want_stats=True)
    streams = good_streams(lifetimes)
    outcome = traced_once(run)
    if not plain or not streams or outcome is None:
        return {}
    metrics = layer_metrics([outcome[1]])
    metrics.update(outcome[1]["counters"])
    metrics["service.handshake_ms"] = 1000 * median(
        [s.ack - s.hello for s in streams])
    metrics["service.send_s"] = median([s.sent - s.sent_from
                                        for s in streams])
    metrics["service.drain_ms"] = 1000 * median([s.done - s.sent
                                                 for s in streams])
    metrics["service.races_ms"] = 1000 * median([s.races_done - s.done
                                                 for s in streams])
    metrics["service.queue_hwm"] = max(
        [value for life in lifetimes
         for name, value in (life.stats or {}).get("gauges", {}).items()
         if name.startswith("tenant_queue_hwm[")] or [0])
    wall_u = median([s.verdict_s for s in plain])
    wall_t = median([s.verdict_s for s in streams])
    covered = median([(s.ack - s.hello) + (s.sent - s.sent_from)
                      + (s.done - s.sent) for s in streams])
    metrics["trace.unattributed_s"] = wall_u - covered
    metrics["trace.overhead_s"] = wall_t - wall_u
    run.say(f"reconcile: client spans (handshake + send + drain) "
            f"{covered:.4f} s + unattributed "
            f"{metrics['trace.unattributed_s']:.4f} s = untraced verdict "
            f"{wall_u:.4f} s; traced verdict {wall_t:.4f} s")
    return metrics


def finish_layers(metrics: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload bypasses reads 0."""
    candidates = metrics.get("predict.candidates", 0)
    metrics["predict.validated_per_candidate"] = (
        metrics.get("predict.validated", 0) / candidates
        if candidates else 0.0)
    return {name: metrics.get(name, 0) for name, _ in PER_LAYER}


# -- entry point --------------------------------------------------------------------


def execute(args) -> Tuple[Run, Dict[str, float], dict]:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "cli.py")):
        raise SetupError(f"no program source at {src}/repro; run from the "
                         f"root of a checkout")
    if args.workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    sys.path.insert(0, src)
    workload = workloads.WORKLOADS[args.workload].sized(args.scale)
    suffix = "" if args.scale == 1.0 else f"-x{args.scale:g}"
    directory = os.path.join(root, args.work_dir,
                             f"{workload.name}-s{args.seed}{suffix}")
    env = child_env(src)
    run = Run(workload, args.seed, args.scale, args.seconds, root,
              directory, env)
    facts = host_facts(root, args.seed)
    prepare(run, facts["src_sha256"])
    if args.trace:
        metrics = finish_layers(traced_served(run) if workload.served
                                else traced_offline(run))
        units = dict(PER_LAYER)
    else:
        metrics = (measure_served(run) if workload.served
                   else measure_offline(run))
        units = END_TO_END
    if set(metrics) != set(units):
        run.op("no successful operation to measure")
        metrics = {}
    return run, {name: {"value": metrics[name], "unit": unit}
                 for name, unit in units.items() if name in metrics}, facts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Layered benchmark of repro-analyze and repro-serve.")
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(workloads.WORKLOADS)}")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the measurement runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="operation-count factor (smoke tests only; "
                             "pins are checked at 1 only)")
    parser.add_argument("--work-dir", default=".bench_work",
                        help="where inputs, references and logs go, "
                             "relative to the checkout root")
    args = parser.parse_args(argv)
    try:
        run, metrics, facts = execute(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    manifest = run.manifest
    print(f"host: {json.dumps(facts, sort_keys=True)}")
    print(f"workload: {run.workload.name} seed {run.seed}: "
          f"{len(manifest['files'])} input file(s), {manifest['events']} "
          f"events, {manifest['input_bytes'] / 2 ** 20:.2f} MB")
    for line in run.report:
        print(line)
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']!r} {entry['unit']}")
    print(f"failed_share {run.failed / max(1, run.attempted)!r} ratio "
          f"({run.failed} failed of {run.attempted} attempted ops)")
    if run.reordered:
        print(f"note: {run.reordered} correct report(s) listed equal-count "
              f"race groups in another order than the reference; the "
              f"program's group order is not deterministic across processes")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
