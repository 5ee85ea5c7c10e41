"""The seeded chaos harness is the service's acceptance test: run it.

Byte-identical per-tenant reports versus offline analysis and a held
queue bound are asserted *inside* :func:`repro.service.chaos.run_chaos`
(via ``ChaosReport.ok``); this file keeps the harness wired into the
ordinary test run with a small plan, plus pins the report's evidence so
a future refactor cannot quietly turn the harness into a no-op.
"""

import tempfile

from repro.service.chaos import ChaosPlan, run_chaos

SEED = 7


class TestChaos:
    def test_seeded_chaos_run_is_clean(self, tmp_path):
        # min_cuts=1 guarantees every tenant is killed mid-stream at
        # least once, so every tenant reconnects every run.
        plan = ChaosPlan(seed=SEED, tenants=6, min_cuts=1)
        report = run_chaos(plan, base_dir=str(tmp_path), queue_size=8)
        assert report.ok, report.summary()
        # The harness must have actually exercised the failure modes,
        # not just streamed six happy tenants.
        assert sum(len(o.cuts) for o in report.outcomes) > 0
        assert any(len(o.expected_lines) > 0 for o in report.outcomes)
        counters = report.stats["counters"]
        assert counters.get("budget_forced_windows", 0) > 0
        # Every tenant was cut, and each one's last attempt was a fresh
        # analysis that matched offline analysis of its whole trace.
        assert all(outcome.cuts for outcome in report.outcomes)
        for outcome in report.outcomes:
            assert outcome.attempts[-1].ack == "OK NEW", outcome.tenant
            assert outcome.matched, outcome.tenant
        # The flood tenant really queued (and was really bounded).
        hwms = [o.queue_hwm for o in report.outcomes]
        assert max(hwms) > 1
        assert max(hwms) <= report.queue_size

    def test_reports_survive_every_tenant(self, tmp_path, monkeypatch):
        # Without a base_dir the sockets go in a temporary directory,
        # which the run removes.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        report = run_chaos(ChaosPlan.seeded(SEED, tenants=6), queue_size=8)
        for outcome in report.outcomes:
            assert outcome.attempts[-1].status == "done", outcome.tenant
            assert outcome.observed_lines == outcome.expected_lines
        assert not list(tmp_path.iterdir())
