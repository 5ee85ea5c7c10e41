"""The daemon end to end: correctness, control plane, backpressure.

The acceptance bar from the issue is asserted here directly: race
reports served over the control socket are byte-identical to offline
single-tenant analysis, and a flooded slow tenant's ingest queue never
grows past the configured bound (checked via the server's own obs
gauges, not client-side bookkeeping).
"""

import asyncio
import json
import socket
import threading

from repro.service import ControlClient, ServiceClient, SessionConfig
from repro.service.budget import BudgetConfig
from repro.service.chaos import offline_race_lines
from repro.service.protocol import encode_hello
from repro.testing.workloads import tenant_trace_text

RACY_SEEDS = (6, 8, 9, 18)
QUIET_SEED = 3


class TestCorrectness:
    def test_reports_are_byte_identical_to_offline(self, make_server):
        host = make_server()
        client = ServiceClient(host.config.socket_path)
        control = ControlClient(host.config.control_path)
        for seed in RACY_SEEDS:
            text, bindings, trace = tenant_trace_text(seed)
            result = client.stream_text(f"t{seed}", bindings, text)
            assert result.status == "done", result
            expected = offline_race_lines(trace, bindings)
            observed = control.races(f"t{seed}")
            if observed == ["(no races)"]:
                observed = []
            assert observed == expected

    def test_concurrent_tenants_do_not_cross_pollinate(self, make_server):
        host = make_server()
        client = ServiceClient(host.config.socket_path)
        control = ControlClient(host.config.control_path)
        payloads = {f"t{seed}": tenant_trace_text(seed)
                    for seed in RACY_SEEDS}
        results = {}

        def drive(tenant):
            text, bindings, _ = payloads[tenant]
            results[tenant] = client.stream_text(tenant, bindings, text)

        threads = [threading.Thread(target=drive, args=(t,))
                   for t in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for tenant, (text, bindings, trace) in payloads.items():
            assert results[tenant].status == "done", results[tenant]
            observed = control.races(tenant)
            if observed == ["(no races)"]:
                observed = []
            assert observed == offline_race_lines(trace, bindings), tenant


class TestControlPlane:
    def test_status_stats_races_unknown(self, make_server):
        host = make_server()
        client = ServiceClient(host.config.socket_path)
        control = ControlClient(host.config.control_path)
        assert control.status() == ["(no tenants)"]
        text, bindings, _ = tenant_trace_text(QUIET_SEED)
        assert client.stream_text("web", bindings, text).status == "done"
        (line,) = control.status()
        assert line.startswith("web state=done events=")
        assert "queue_hwm=" in line and "faults=0" in line
        stats = control.stats()
        assert stats["counters"]["streams_completed"] == 1
        assert control.races("nobody") == ["ERR unknown-tenant nobody"]
        assert control.command("FROBNICATE") \
            == ["ERR unknown-command FROBNICATE"]

    def test_stats_is_valid_sorted_json(self, make_server):
        host = make_server()
        control = ControlClient(host.config.control_path)
        lines = control.command("STATS")
        assert len(lines) == 1
        snapshot = json.loads(lines[0])
        assert snapshot["enabled"] is True


class TestRefusals:
    def test_second_stream_for_a_live_tenant_is_busy(self, make_server):
        host = make_server()
        text, bindings, _ = tenant_trace_text(QUIET_SEED)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(host.config.socket_path)
        try:
            sock.sendall((encode_hello("dup", bindings) + "\n").encode())
            assert sock.makefile("rb").readline().startswith(b"OK NEW")
            second = ServiceClient(host.config.socket_path).stream_text(
                "dup", bindings, text)
            assert second.status == "refused"
            assert second.final.startswith("ERR busy")
        finally:
            sock.close()

    def test_garbage_handshake_is_refused(self, make_server):
        host = make_server()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(host.config.socket_path)
        try:
            sock.sendall(b"GET / HTTP/1.1\n")
            reply = sock.makefile("rb").readline().decode()
            assert reply.startswith("ERR ")
        finally:
            sock.close()

    def test_shm_handshake_is_refused_before_ack(self, make_server):
        # Older clients named a shared-memory ring in the handshake; one
        # ERR line tells them before they wait on a ring nobody reads.
        host = make_server()
        text, bindings, _ = tenant_trace_text(QUIET_SEED)
        hello = json.dumps({"repro-serve": 1, "tenant": "ghost",
                            "objects": bindings, "shm": "psm_abc123"})
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(host.config.socket_path)
        try:
            sock.sendall((hello + "\n").encode())
            reply = sock.makefile("rb").readline().decode()
        finally:
            sock.close()
        assert reply.startswith("ERR ") and "shm" in reply
        control = ControlClient(host.config.control_path)
        assert control.stats()["counters"]["protocol_errors"] >= 1
        result = ServiceClient(host.config.socket_path).stream_text(
            "ghost", bindings, text)
        assert result.status == "done", result

    def test_oversized_handshake_frame(self, make_server):
        host = make_server(max_record_bytes=4096)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(host.config.socket_path)
        try:
            sock.sendall(b"x" * 8192 + b"\n")
            reply = sock.makefile("rb").readline().decode()
            assert reply.startswith("ERR frame-too-large")
        finally:
            sock.close()
        assert host.server.obs.snapshot()["counters"][
            "stream_frame_errors"] == 1


class TestBackpressure:
    def test_flooded_slow_tenant_never_exceeds_queue_bound(
            self, make_server):
        bound = 4

        async def crawl(tenant, events_seen):
            await asyncio.sleep(0.002)

        host = make_server(queue_size=bound, throttle=crawl)
        client = ServiceClient(host.config.socket_path)
        # A large trace flooded as fast as the socket accepts it, against
        # a worker that crawls: the queue must absorb at most `bound`.
        text, bindings, trace = tenant_trace_text(
            QUIET_SEED, min_ops=120, max_ops=120)
        result = client.stream_text("flood", bindings, text)
        assert result.status == "done", result
        gauges = host.server.merged_stats()["gauges"]
        hwm = gauges.get("tenant_queue_hwm[flood]", 0)
        assert 0 < hwm <= bound
        observed = [line for line in ControlClient(
            host.config.control_path).races("flood")
            if line != "(no races)"]
        assert observed == offline_race_lines(trace, bindings)


class TestBudgetDegradation:
    def test_over_budget_tenant_suspends_and_keeps_served_races(
            self, make_server):
        host = make_server(session=SessionConfig(
            window=8, budget=BudgetConfig(max_points=1, suspend_after=1)))
        client = ServiceClient(host.config.socket_path)
        control = ControlClient(host.config.control_path)
        text, bindings, _ = tenant_trace_text(18)  # footprint ≫ 1 point
        result = client.stream_text("piggy", bindings, text)
        assert result.status == "error"
        assert result.final.startswith("ERR budget-exceeded")
        (line,) = control.status()
        assert "state=suspended" in line
        # Races found before suspension stay served...
        races = control.races("piggy")
        assert races  # at least the "(no races)" marker, usually reports
        # ...and reconnecting is refused until the operator intervenes.
        again = client.stream_text("piggy", bindings, text)
        assert again.status == "refused"
        assert again.final.startswith("ERR budget-exceeded")
        stats = control.stats()
        assert stats["counters"]["budget_suspensions"] == 1

    def test_healthy_tenants_are_untouched_by_a_suspended_neighbor(
            self, make_server):
        # Seed 18's dictionary workload floors at ~18 points even after
        # forced maintenance; seed 21's register workload floors at 4 —
        # a 10-point budget suspends the first and never taxes the second.
        host = make_server(session=SessionConfig(
            window=8, budget=BudgetConfig(max_points=10, suspend_after=1)))
        client = ServiceClient(host.config.socket_path)
        heavy_text, heavy_bindings, _ = tenant_trace_text(18)
        assert client.stream_text("piggy", heavy_bindings, heavy_text) \
            .final.startswith("ERR budget-exceeded")
        light_text, light_bindings, light_trace = tenant_trace_text(21)
        result = client.stream_text("ant", light_bindings, light_text)
        assert result.status == "done", result
