"""Ablations of the design choices DESIGN.md calls out.

1. **Optimized vs. raw translation** — the Appendix A.3 passes shrink the
   schema table and the per-action touched-point count; both variants are
   equivalent (Definition 4.5), so race verdicts must agree while the
   optimized one does less phase-2 work.
2. **RD2 with vs. without low-level instrumentation** — the paper: "if we
   only instrumented the ConcurrentHashMaps objects and not the basic
   memory locations, the overhead of RD2 would be lower."  The
   ``rd2-maps-only`` configuration quantifies that.
3. **ENUMERATE vs. SCAN on the same representation** — isolates the
   strategy choice from the representation choice (both bounded): SCAN
   pays |active| per point even when Co(pt) is tiny.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from ..apps.polepos.circuits import CIRCUITS, CircuitConfig, run_circuit
from ..core.detector import CommutativityRaceDetector, Strategy
from ..logic.translate import build_raw_translation, build_representation, translate
from ..runtime.monitor import Monitor
from ..specs.dictionary import dictionary_spec
from .harness import measure
from .scaling import scaling_trace
from .reporting import render_table
from .table2 import _circuit_workload

__all__ = ["AblationRow", "run_ablations", "render_ablations",
           "translation_ablation", "strategy_ablation",
           "instrumentation_ablation", "pruning_ablation",
           "atomicity_ablation"]


@dataclass(frozen=True)
class AblationRow:
    experiment: str
    variant: str
    metric: str
    value: str


def translation_ablation(actions: int = 2000) -> List[AblationRow]:
    """Raw vs. optimized translated dictionary representation."""
    spec = dictionary_spec()
    raw = build_representation(build_raw_translation(spec))
    optimized = translate(spec)
    trace = scaling_trace(actions, seed=7)

    rows: List[AblationRow] = []
    results = {}
    for label, representation in (("raw", raw), ("optimized", optimized)):
        detector = CommutativityRaceDetector(
            root=0, strategy=Strategy.ENUMERATE, keep_reports=False)
        detector.register_object("o", representation)
        started = time.perf_counter()
        for event in trace:
            detector.process(event)
        elapsed = time.perf_counter() - started
        stats = detector.stats
        results[label] = stats.races
        rows.extend([
            AblationRow("translation", label, "schemas",
                        str(len(representation.schemas))),
            AblationRow("translation", label, "points/action",
                        f"{stats.points_touched / stats.actions:.2f}"),
            AblationRow("translation", label, "checks/action",
                        f"{stats.checks_per_action():.2f}"),
            AblationRow("translation", label, "seconds",
                        f"{elapsed:.4f}"),
            AblationRow("translation", label, "races", str(stats.races)),
        ])
    if results["raw"] != results["optimized"]:
        raise AssertionError(
            f"translation ablation broke equivalence: raw found "
            f"{results['raw']} races, optimized {results['optimized']}")
    return rows


def strategy_ablation(actions: int = 2000) -> List[AblationRow]:
    """ENUMERATE vs. SCAN over the *same* bounded representation."""
    trace = scaling_trace(actions, seed=11)
    rows: List[AblationRow] = []
    for strategy in (Strategy.ENUMERATE, Strategy.SCAN):
        detector = CommutativityRaceDetector(root=0, strategy=strategy,
                                             keep_reports=False)
        detector.register_object("o", translate(dictionary_spec()),
                                 strategy=strategy)
        started = time.perf_counter()
        for event in trace:
            detector.process(event)
        elapsed = time.perf_counter() - started
        rows.extend([
            AblationRow("strategy", strategy.value, "checks/action",
                        f"{detector.stats.checks_per_action():.2f}"),
            AblationRow("strategy", strategy.value, "seconds",
                        f"{elapsed:.4f}"),
        ])
    return rows


def instrumentation_ablation(scale: float = 0.5,
                             circuit: str = "ComplexConcurrency"
                             ) -> List[AblationRow]:
    """Full instrumentation vs. maps-only RD2 on a Table 2 circuit."""
    config = CIRCUITS[circuit]
    config = CircuitConfig(**{**config.__dict__,
                              "ops_per_worker":
                              max(1, int(config.ops_per_worker * scale))})
    rows: List[AblationRow] = []
    for variant in ("rd2", "rd2-maps-only"):
        measurement = measure(_circuit_workload(config, 0, 1.0), variant)
        rows.extend([
            AblationRow("instrumentation", variant, "qps",
                        f"{measurement.qps:,.0f}"),
            AblationRow("instrumentation", variant, "races",
                        str(measurement.races_for())),
        ])
    return rows


def pruning_ablation(phases: int = 30, workers_per_phase: int = 4
                     ) -> List[AblationRow]:
    """Active-point pruning: memory footprint across fork/join phases.

    The Section 5.3 future-work optimization: with pruning, active sets
    stay bounded by the live concurrent footprint; without it they grow
    with the whole execution history.
    """
    from ..core.trace import TraceBuilder
    from ..core.events import NIL

    builder = TraceBuilder(root=0)
    tid = 1
    for phase in range(phases):
        workers = []
        for worker in range(workers_per_phase):
            builder.fork(0, tid)
            builder.invoke(tid, "o", "put", f"p{phase}w{worker}", tid,
                           returns=NIL)
            workers.append(tid)
            tid += 1
        builder.join_all(0, workers)
    trace = builder.build()

    rows: List[AblationRow] = []
    for label, interval in (("off", 0), ("every-16-actions", 16)):
        detector = CommutativityRaceDetector(
            root=0, strategy=Strategy.ENUMERATE, keep_reports=False,
            prune_interval=interval)
        from ..specs.dictionary import dictionary_representation
        detector.register_object("o", dictionary_representation())
        started = time.perf_counter()
        for event in trace:
            detector.process(event)
        elapsed = time.perf_counter() - started
        rows.extend([
            AblationRow("pruning", label, "active points at end",
                        str(detector.active_point_count())),
            AblationRow("pruning", label, "races",
                        str(detector.stats.races)),
            AblationRow("pruning", label, "seconds", f"{elapsed:.4f}"),
        ])
    return rows


def atomicity_ablation(seeds: Sequence[int] = range(8)) -> List[AblationRow]:
    """Atomicity conflicts: access points vs. read/write (Section 8).

    Runs a fee-and-deposit workload (atomic double increments with
    interleaved deposits — all commuting) plus a genuinely broken
    check-then-act block, under both conflict modes, and counts flagged
    runs.  Read/write conflicts false-alarm on the commuting workload;
    access-point conflicts flag only the broken one.
    """
    from ..atomicity import AtomicityChecker, ConflictMode, atomic
    from ..runtime.collections_rt import MonitoredCounter, MonitoredDict
    from ..sched.scheduler import Scheduler
    from ..specs.counter import counter_representation
    from ..specs.dictionary import dictionary_representation

    def run_commuting(seed: int):
        monitor = Monitor(record_trace=True)
        scheduler = Scheduler(monitor, seed=seed)

        def main():
            balance = MonitoredCounter(monitor, name="balance")

            def teller():
                with atomic(monitor):
                    balance.add(-2)
                    balance.add(-1)

            def depositor():
                balance.add(100)

            scheduler.join_all([scheduler.spawn(teller),
                                scheduler.spawn(depositor),
                                scheduler.spawn(teller)])

        scheduler.run(main)
        return monitor.trace

    def run_broken(seed: int):
        monitor = Monitor(record_trace=True)
        scheduler = Scheduler(monitor, seed=seed)

        def main():
            table = MonitoredDict(monitor, name="accounts")

            def transactional():
                with atomic(monitor):
                    current = table.get("acct")
                    table.put("acct", (current, "new"))

            def intruder():
                table.put("acct", "intrusion")

            scheduler.join_all([scheduler.spawn(transactional),
                                scheduler.spawn(intruder),
                                scheduler.spawn(transactional)])

        scheduler.run(main)
        return monitor.trace

    def flag_rate(traces, mode, registrations):
        flagged = 0
        for trace in traces:
            checker = AtomicityChecker(mode)
            for obj, representation in registrations:
                checker.register_object(obj, representation)
            if not checker.analyze(trace).serializable:
                flagged += 1
        return flagged

    commuting = [run_commuting(seed) for seed in seeds]
    broken = [run_broken(seed) for seed in seeds]
    total = len(list(seeds))

    rows: List[AblationRow] = []
    for mode, label in ((ConflictMode.COMMUTATIVITY, "access-points"),
                        (ConflictMode.READ_WRITE, "read-write")):
        benign = flag_rate(commuting, mode,
                           [("balance", counter_representation())])
        harmful = flag_rate(broken, mode,
                            [("accounts", dictionary_representation())])
        rows.extend([
            AblationRow("atomicity", label,
                        f"flagged commuting runs (of {total})",
                        str(benign)),
            AblationRow("atomicity", label,
                        f"flagged broken runs (of {total})",
                        str(harmful)),
        ])
    return rows


def run_ablations(scale: float = 0.5) -> List[AblationRow]:
    rows: List[AblationRow] = []
    rows.extend(translation_ablation())
    rows.extend(strategy_ablation())
    rows.extend(instrumentation_ablation(scale=scale))
    rows.extend(pruning_ablation())
    rows.extend(atomicity_ablation())
    return rows


def render_ablations(rows: Sequence[AblationRow]) -> str:
    return render_table(
        ["experiment", "variant", "metric", "value"],
        [[r.experiment, r.variant, r.metric, r.value] for r in rows],
        title="Design-choice ablations")
