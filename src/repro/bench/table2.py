"""Regenerate Table 2: the paper's entire evaluation table.

For each of the six H2/PolePosition rows the driver runs the circuit under
the three configurations (uninstrumented / FASTTRACK / RD2), reporting
queries-per-second and the ``total (distinct)`` race tallies; the Cassandra
DynamicEndpointSnitch row reports seconds, as in the paper.

The paper's absolute numbers come from a JVM testbed and are not expected
to match; the *shape* is what the reproduction claims:

* RD2's overhead is comparable to FASTTRACK's;
* FASTTRACK reports many highly redundant low-level races on a few
  variables, RD2 few commutativity races on a couple of maps;
* the concurrency circuits exhibit the H2 ``freedPageSpace``/``chunks``
  races and the snitch its ``samples`` race, while QueryCentric, Complex
  and NestedLists are commutativity-race-free.

Run as ``python -m repro.bench.table2`` (or the ``repro-table2`` script).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..apps.polepos.circuits import CIRCUITS, CircuitConfig, run_circuit
from ..apps.snitch.snitch import SnitchTestConfig, run_snitch_test
from ..core.races import RaceTally
from ..runtime.monitor import Monitor
from .harness import CONFIGURATIONS, Measurement, measure
from .reporting import format_rate, format_seconds, render_table

__all__ = ["PAPER_TABLE2", "Row", "run_row", "run_table2", "render",
           "main"]

#: the published Table 2, for side-by-side comparison
#: row -> (uninstr, fasttrack, rd2, ft_races, rd2_races); H2 rows in qps,
#: the snitch row in seconds.
PAPER_TABLE2: Dict[str, Tuple[str, str, str, str, str]] = {
    "ComplexConcurrency": ("2011 qps", "685 qps", "425 qps",
                           "1784 (26)", "200 (2)"),
    "ComplexConcurrency-alt": ("1610 qps", "601 qps", "457 qps",
                               "1121 (24)", "171 (2)"),
    "QueryCentricConcurrency": ("1666 qps", "599 qps", "605 qps",
                                "209 (4)", "0 (0)"),
    "InsertCentricConcurrency": ("1912 qps", "622 qps", "622 qps",
                                 "1551 (25)", "22 (2)"),
    "Complex": ("1874 qps", "1143 qps", "989 qps", "9 (2)", "0 (0)"),
    "NestedLists": ("1893 qps", "1086 qps", "807 qps", "202 (2)", "0 (0)"),
    "DynamicEndpointSnitch": ("2.907 s", "12.226 s", "13.527 s",
                              "24 (8)", "81 (2)"),
}


@dataclass
class Row:
    """One benchmark row across all configurations."""

    application: str
    benchmark: str
    timed_in_seconds: bool
    measurements: Dict[str, Measurement]

    def performance(self, config: str) -> str:
        measurement = self.measurements[config]
        if self.timed_in_seconds:
            return format_seconds(measurement.elapsed)
        return format_rate(measurement.qps)

    def races(self, config: str) -> RaceTally:
        return self.measurements[config].races_for()


def _circuit_workload(config: CircuitConfig, seed: int,
                      switch_probability: float):
    def workload(monitor: Monitor) -> int:
        result = run_circuit(config, monitor, seed=seed,
                             switch_probability=switch_probability)
        return result.operations
    return workload


def _snitch_workload(config: SnitchTestConfig, seed: int,
                     switch_probability: float):
    def workload(monitor: Monitor) -> int:
        result = run_snitch_test(config, monitor, seed=seed,
                                 switch_probability=switch_probability)
        return result.timings + result.score_rounds
    return workload


def run_row(benchmark: str, seed: int = 0, repeats: int = 1,
            scale: float = 1.0, switch_probability: float = 1.0,
            configs: Sequence[str] = CONFIGURATIONS) -> Row:
    """Measure one Table 2 row under every configuration.

    ``scale`` multiplies the per-worker operation counts (used by the
    pytest-benchmark wrappers to keep individual runs short).  Repeats
    are interleaved: each round runs every configuration once, so a slow
    stretch of the host lands on all columns alike, and each cell keeps
    its fastest round.
    """
    if benchmark == "DynamicEndpointSnitch":
        snitch_config = SnitchTestConfig(
            timings_per_producer=max(1, int(150 * scale)),
            score_updates=max(1, int(40 * scale)))
        factory = lambda: _snitch_workload(snitch_config, seed,
                                           switch_probability)
        application, timed = "Cassandra", True
    else:
        circuit = CIRCUITS[benchmark]
        if scale != 1.0:
            circuit = CircuitConfig(
                **{**circuit.__dict__,
                   "ops_per_worker": max(1, int(circuit.ops_per_worker
                                                * scale)),
                   "prepopulate": circuit.prepopulate})
        factory = lambda: _circuit_workload(circuit, seed,
                                            switch_probability)
        application, timed = "H2 database", False

    measurements: Dict[str, Measurement] = {}
    for _ in range(max(1, repeats)):
        for config in configs:
            run = measure(factory(), config)
            best = measurements.get(config)
            if best is None or run.elapsed < best.elapsed:
                measurements[config] = run
    return Row(application=application, benchmark=benchmark,
               timed_in_seconds=timed, measurements=measurements)


def run_table2(seed: int = 0, repeats: int = 1, scale: float = 1.0,
               switch_probability: float = 1.0,
               benchmarks: Optional[Sequence[str]] = None) -> List[Row]:
    names = list(benchmarks) if benchmarks else list(PAPER_TABLE2)
    return [run_row(name, seed=seed, repeats=repeats, scale=scale,
                    switch_probability=switch_probability)
            for name in names]


def render(rows: Sequence[Row], with_paper: bool = True) -> str:
    """Render measured rows (optionally alongside the published numbers)."""
    headers = ["Benchmark", "Uninstr.", "FASTTRACK", "RD2",
               "FT races", "RD2 races"]
    body = []
    for row in rows:
        body.append([
            row.benchmark,
            row.performance("uninstrumented"),
            row.performance("fasttrack"),
            row.performance("rd2"),
            str(row.races("fasttrack")),
            str(row.races("rd2")),
        ])
    out = [render_table(headers, body,
                        title="Table 2 (measured on this machine)")]
    if with_paper:
        paper_body = [[name, *PAPER_TABLE2[name]] for name in PAPER_TABLE2
                      if any(r.benchmark == name for r in rows)]
        out.append("")
        out.append(render_table(headers, paper_body,
                                title="Table 2 (paper, JVM testbed)"))
    return "\n".join(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's Table 2 on this machine.")
    parser.add_argument("--seed", type=int, default=0,
                        help="scheduler seed (default 0)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repeats per cell; best is kept")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor")
    parser.add_argument("--benchmark", action="append", dest="benchmarks",
                        choices=list(PAPER_TABLE2),
                        help="run only the named row(s)")
    parser.add_argument("--no-paper", action="store_true",
                        help="omit the published reference table")
    args = parser.parse_args(argv)
    rows = run_table2(seed=args.seed, repeats=args.repeats,
                      scale=args.scale, benchmarks=args.benchmarks)
    print(render(rows, with_paper=not args.no_paper))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
