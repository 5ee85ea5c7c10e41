#!/usr/bin/env python
"""Service soak: many tenants hammering one detection daemon, RSS-gated.

Hosts a live :class:`repro.service.server.DetectionServer` in-process and
drives ``--tenants`` concurrent tenants against it for ``--duration``
wall-clock seconds.  Each tenant loops over its own seeded workload:
stream the trace to completion, verify the served ``RACES`` report is
byte-identical to an offline single-tenant analysis, and go again —
with a seeded mid-stream disconnect every few iterations, after which
the tenant reconnects and re-sends its trace from event zero, so the
reconnect path stays on the hot path, not just in the chaos tests.

Three gates, each failing the run with exit 1:

* **correctness** — every completed iteration's report must match the
  offline ground truth byte for byte (and every tenant must complete at
  least one iteration);
* **backpressure** — no tenant's server-side ingest-queue high-water
  mark may exceed the configured bound;
* **memory** — the process's peak RSS must stay under ``--rss-mb``,
  proving per-tenant budgets + maintenance windows actually bound the
  fleet's footprint over sustained traffic.

``--stats-json`` writes the merged fleet Registry snapshot plus the
soak's own evidence (iterations, events, peak RSS, per-tenant verdicts)
for CI to archive.

Run:  PYTHONPATH=src python bench/service_soak.py --tenants 32 \
          --duration 30 --rss-mb 768 --stats-json SOAK_PR8.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
import tempfile
import threading
import time
from random import Random

from repro.service import ServiceConfig, SessionConfig
from repro.service.budget import BudgetConfig
from repro.service.chaos import offline_race_lines
from repro.service.client import ControlClient, ServerThread, ServiceClient
from repro.testing.workloads import tenant_trace_text


def rss_bytes() -> int:
    """Current resident set size (Linux), else the peak as a fallback."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class TenantLoop:
    """One tenant's soak thread and its running evidence."""

    def __init__(self, name: str, seed: int, ops: int, cut_every: int):
        self.name = name
        self.rng = Random(seed)
        self.text, self.bindings, trace = tenant_trace_text(
            seed, min_ops=ops, max_ops=ops)
        self.expected = offline_race_lines(trace, self.bindings)
        self.cut_every = cut_every
        self.iterations = 0
        self.events = 0
        self.failure = None

    def run(self, client: ServiceClient, control: ControlClient,
            stop: threading.Event) -> None:
        declared = self.text.count("\n") - 1  # minus the header line
        while not stop.is_set():
            try:
                if self.cut_every and self.iterations % self.cut_every == 1:
                    cut = self.rng.randint(1, len(self.text) - 1)
                    client.stream_text(self.name, self.bindings, self.text,
                                       truncate_at=cut)
                attempts = client.stream_until_done(
                    self.name, self.bindings, self.text)
                final = attempts[-1]
                if final.status != "done":
                    self.failure = f"stream ended {final.final!r}"
                    return
                observed = control.races(self.name)
                if observed == ["(no races)"]:
                    observed = []
                if observed != self.expected:
                    self.failure = (
                        f"report mismatch: served {len(observed)} group(s), "
                        f"offline analysis says {len(self.expected)}")
                    return
                self.iterations += 1
                self.events += declared
            except Exception as exc:  # noqa: BLE001 - verdict, not control flow
                self.failure = f"{type(exc).__name__}: {exc}"
                return


def run_soak(args) -> int:
    base = tempfile.mkdtemp(prefix="repro-soak-")
    config = ServiceConfig(
        socket_path=os.path.join(base, "ingest.sock"),
        control_path=os.path.join(base, "control.sock"),
        session=SessionConfig(
            window=64,
            budget=BudgetConfig(max_points=args.budget_points,
                                suspend_after=1_000_000)),
        queue_size=args.queue_size)
    rng = Random(args.seed)
    loops = [TenantLoop(f"soak-{i:02d}", rng.randrange(1 << 30),
                        ops=args.ops, cut_every=3)
             for i in range(args.tenants)]

    stop = threading.Event()
    peak_rss = rss_bytes()
    with ServerThread(config) as host:
        client = ServiceClient(config.socket_path)
        control = ControlClient(config.control_path)
        threads = [threading.Thread(target=loop.run, daemon=True,
                                    args=(client, control, stop))
                   for loop in loops]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        while time.monotonic() - started < args.duration:
            time.sleep(0.25)
            peak_rss = max(peak_rss, rss_bytes())
        stop.set()
        for thread in threads:
            # stream_until_done's busy backoff is bounded, so a healthy
            # loop notices the stop flag within its current iteration.
            thread.join(timeout=60)
        stats = control.stats()
        control.shutdown()
    if host.error is not None:
        raise host.error
    peak_rss = max(peak_rss, rss_bytes())
    elapsed = time.monotonic() - started

    failures = []
    for loop in loops:
        if loop.failure is not None:
            failures.append(f"{loop.name}: {loop.failure}")
        elif loop.iterations == 0:
            failures.append(f"{loop.name}: completed no iterations "
                            f"in {elapsed:.0f}s")
    gauges = stats.get("gauges", {})
    hwms = {loop.name: int(gauges.get(f"tenant_queue_hwm[{loop.name}]", 0))
            for loop in loops}
    breaches = {name: hwm for name, hwm in hwms.items()
                if hwm > args.queue_size}
    peak_rss_mb = peak_rss / (1024 * 1024)

    iterations = sum(loop.iterations for loop in loops)
    events = sum(loop.events for loop in loops)
    print(f"soak: {args.tenants} tenants x {elapsed:.1f}s -> "
          f"{iterations} iterations, {events} events "
          f"({events / max(elapsed, 1e-9):,.0f} ev/s)")
    print(f"  queue hwm: {max(hwms.values(), default=0)} "
          f"(bound {args.queue_size}); peak RSS {peak_rss_mb:.1f} MiB "
          f"(ceiling {args.rss_mb} MiB)")

    ok = not failures and not breaches and peak_rss_mb <= args.rss_mb
    if args.stats_json:
        document = {
            "soak": {
                "tenants": args.tenants,
                "duration_s": round(elapsed, 3),
                "iterations": iterations,
                "events": events,
                "events_per_s": round(events / max(elapsed, 1e-9), 1),
                "peak_rss_mb": round(peak_rss_mb, 1),
                "rss_ceiling_mb": args.rss_mb,
                "queue_bound": args.queue_size,
                "queue_hwm": hwms,
                "failures": sorted(failures),
                "ok": ok,
            },
            "stats": stats,
        }
        path = pathlib.Path(args.stats_json)
        tmp = path.with_name(f".{path.name}.tmp")
        tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        print(f"  stats written to {path}")

    for failure in failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    for name, hwm in sorted(breaches.items()):
        print(f"  QUEUE BREACH {name}: hwm {hwm} > {args.queue_size}",
              file=sys.stderr)
    if peak_rss_mb > args.rss_mb:
        print(f"  RSS GATE BREACH: peak {peak_rss_mb:.1f} MiB > "
              f"ceiling {args.rss_mb} MiB", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=32)
    parser.add_argument("--duration", type=float, default=30.0,
                        help="wall-clock seconds to keep the fleet running")
    parser.add_argument("--seed", type=int, default=2014,
                        help="master seed for the per-tenant workloads")
    parser.add_argument("--ops", type=int, default=60,
                        help="ops per worker thread in each tenant workload")
    parser.add_argument("--queue-size", type=int, default=16,
                        help="per-tenant ingest queue bound (gated)")
    parser.add_argument("--budget-points", type=int, default=64,
                        help="per-tenant live-point budget")
    parser.add_argument("--rss-mb", type=float, default=768.0,
                        help="peak-RSS ceiling in MiB (gated)")
    parser.add_argument("--stats-json", default=None,
                        help="write the merged stats + soak evidence here")
    args = parser.parse_args(argv)
    if args.tenants < 1 or args.duration <= 0:
        parser.error("--tenants must be >= 1 and --duration > 0")
    return run_soak(args)


if __name__ == "__main__":
    sys.exit(main())
