"""``repro-serve`` — run the multi-tenant detection daemon (or its chaos
harness).

Daemon mode binds the ingest and control sockets and serves until a
``SHUTDOWN`` control command (or SIGINT) drains it::

    repro-serve --socket /run/repro/ingest.sock \\
                --control /run/repro/control.sock

A tenant that disconnects reconnects and re-sends its trace from event
zero; the daemon analyzes it again from the start.  Values the daemon
cannot serve (``--window 0``, a negative ``--prune-interval``), like an
unknown flag, are refused with one ``repro-serve: error:`` line and exit
2 before any socket is bound.

Chaos mode hosts a throwaway daemon and drives the seeded abuse
schedule from :mod:`repro.service.chaos`, exiting non-zero unless every
tenant's final race report is byte-identical to offline analysis and
every ingest queue stayed within its bound::

    repro-serve --chaos 7 --tenants 8 --stats-json chaos-stats.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..core.supervise import ANALYZER_POLICIES
from ..obs.report import save_report

EXIT_CLEAN = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERRUPT = 130


class _Parser(argparse.ArgumentParser):
    """argparse whose errors are one ``repro-serve: error:`` line, not a
    usage dump."""

    def error(self, message: str) -> "SystemExit":
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro-serve",
        description="Multi-tenant commutativity race detection daemon.")
    parser.add_argument("--socket", metavar="PATH",
                        help="unix socket for tenant trace streams")
    parser.add_argument("--control", metavar="PATH",
                        help="unix socket for STATUS/STATS/RACES/SHUTDOWN")
    parser.add_argument("--queue-size", type=int, default=64, metavar="N",
                        help="per-tenant ingest queue bound "
                        "(default %(default)s)")
    parser.add_argument("--window", type=int, default=1024, metavar="N",
                        help="maintenance window in events "
                        "(default %(default)s)")
    parser.add_argument("--prune-interval", type=int, default=256,
                        metavar="N", help="detector prune cadence "
                        "(default %(default)s)")
    parser.add_argument("--max-points", type=int, default=None, metavar="N",
                        help="per-tenant point budget (default: unlimited)")
    parser.add_argument("--suspend-after", type=int, default=3, metavar="N",
                        help="forced windows before a tenant is suspended "
                        "(default %(default)s)")
    parser.add_argument("--analyzer-policy", choices=ANALYZER_POLICIES,
                        default="disable",
                        help="tenant fault policy (default %(default)s)")
    parser.add_argument("--max-faults", type=int, default=3, metavar="N",
                        help="faults before quarantine under the disable "
                        "policy (default %(default)s)")
    parser.add_argument("--chaos", type=int, default=None, metavar="SEED",
                        help="run the seeded chaos harness instead of "
                        "serving")
    parser.add_argument("--tenants", type=int, default=8, metavar="N",
                        help="chaos mode: concurrent tenants "
                        "(default %(default)s)")
    parser.add_argument("--stats-json", metavar="PATH", default=None,
                        help="write the merged obs snapshot here on exit")
    return parser


def _run_chaos(args) -> int:
    from .chaos import ChaosPlan, run_chaos
    report = run_chaos(ChaosPlan.seeded(args.chaos, tenants=args.tenants),
                       queue_size=args.queue_size,
                       budget_points=(24 if args.max_points is None
                                      else args.max_points))
    print(report.summary())
    if args.stats_json:
        save_report(report.stats, args.stats_json)
    return EXIT_CLEAN if report.ok else EXIT_FAILED


def _serve(args) -> int:
    from .budget import BudgetConfig
    from .server import DetectionServer, ServiceConfig
    from .session import SessionConfig
    config = ServiceConfig(
        socket_path=args.socket,
        control_path=args.control,
        session=SessionConfig(
            prune_interval=args.prune_interval,
            window=args.window,
            budget=BudgetConfig(max_points=args.max_points,
                                suspend_after=args.suspend_after)),
        queue_size=args.queue_size,
        analyzer_policy=args.analyzer_policy,
        max_faults=args.max_faults)
    server = DetectionServer(config)
    print(f"repro-serve: ingest {args.socket} control {args.control}",
          flush=True)
    try:
        server.run()
    finally:
        if args.stats_json:
            save_report(server.merged_stats(), args.stats_json)
    return EXIT_CLEAN


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.chaos is None and (not args.socket or not args.control):
        parser.error("--socket and --control are required "
                     "(or use --chaos SEED)")
    try:
        if args.chaos is not None:
            return _run_chaos(args)
        return _serve(args)
    except ValueError as exc:
        parser.error(str(exc))
    except KeyboardInterrupt:
        return EXIT_INTERRUPT


if __name__ == "__main__":
    sys.exit(main())
