"""Reconnects: a returning tenant is analyzed again from event zero.

A stream that ends early leaves nothing behind to adopt.  The client
re-sends its whole trace, the server acks ``OK NEW``, and a fresh
session analyzes what was re-sent, so the served report is
byte-identical to offline analysis of that trace — the same trace, an
edited one, or one with other object bindings.  The SIGKILL test ends
two concurrent writer processes mid-stream, under whatever
multiprocessing start method ``REPRO_TEST_START_METHOD`` selects.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.serialize import loads_trace
from repro.service import ControlClient, ServiceClient, SessionConfig
from repro.service.chaos import offline_race_lines
from repro.testing.workloads import tenant_trace_text

RACY_SEED = 18          # single dictionary, 133 events, many races
SECOND_SEED = 9         # msetlog + counter, different shape
KILL_OPS = 120          # ops per thread for the kill -9 workloads

#: A small maintenance window, so every re-analysis crosses many
#: window boundaries.
RECONNECT_CONFIG = SessionConfig(window=8)


def served_races(control, tenant):
    lines = control.races(tenant)
    return [] if lines == ["(no races)"] else lines


def stream_past_busy(client, tenant, bindings, text, **kw):
    """One real attempt, skipping the short busy window while the server
    is still winding down this tenant's previous (killed) connection."""
    for _ in range(100):
        result = client.stream_text(tenant, bindings, text, **kw)
        if not result.final.startswith("ERR busy"):
            return result
        time.sleep(0.05)
    pytest.fail(f"server stayed busy for tenant {tenant}")


def tear(client, bindings, text):
    """Send three quarters of the trace bytes, cutting a record in half."""
    torn = client.stream_text("web", bindings, text,
                              truncate_at=(len(text) * 3) // 4)
    assert torn.status == "disconnected"
    assert torn.ack == "OK NEW"


class TestReconnect:
    def test_torn_stream_reconnects_byte_identically(self, make_server):
        host = make_server(session=RECONNECT_CONFIG)
        client = ServiceClient(host.config.socket_path)
        control = ControlClient(host.config.control_path)
        text, bindings, trace = tenant_trace_text(RACY_SEED)
        tear(client, bindings, text)
        attempts = client.stream_until_done("web", bindings, text)
        final = attempts[-1]
        assert final.status == "done", attempts
        assert final.ack == "OK NEW"
        assert served_races(control, "web") \
            == offline_race_lines(trace, bindings)

    def test_edited_trace_is_analyzed_as_edited(self, make_server):
        host = make_server(session=RECONNECT_CONFIG)
        client = ServiceClient(host.config.socket_path)
        control = ControlClient(host.config.control_path)
        text, bindings, trace = tenant_trace_text(RACY_SEED)
        tear(client, bindings, text)
        # "Edit" the trace: swap the first two fork records.  Same
        # events, different prefix.
        lines = text.splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        edited = "\n".join(lines) + "\n"
        final = stream_past_busy(client, "web", bindings, edited)
        assert final.status == "done", final
        assert final.ack == "OK NEW"
        expected = offline_race_lines(loads_trace(edited), bindings)
        assert expected != offline_race_lines(trace, bindings)
        assert served_races(control, "web") == expected

    def test_changed_bindings_start_fresh(self, make_server):
        host = make_server(session=RECONNECT_CONFIG)
        client = ServiceClient(host.config.socket_path)
        control = ControlClient(host.config.control_path)
        text, bindings, _ = tenant_trace_text(RACY_SEED)
        tear(client, bindings, text)
        other_text, other_bindings, other_trace = tenant_trace_text(
            SECOND_SEED)
        assert other_bindings != bindings
        final = stream_past_busy(client, "web", other_bindings, other_text)
        assert final.status == "done", final
        assert final.ack == "OK NEW"
        assert served_races(control, "web") \
            == offline_race_lines(other_trace, other_bindings)


# -- concurrent writers, kill -9 ---------------------------------------------

def _slow_writer(socket_path: str, tenant: str, seed: int,
                 delay: float) -> None:
    """Stream one tenant's trace one record at a time, forever slowly.

    Module-level so the ``spawn`` start method can import it.  The
    parent SIGKILLs this process mid-stream; the trailing hold keeps the
    socket open so the kill is what ends the stream, not completion.
    """
    import socket as socketlib

    from repro.service.protocol import encode_hello
    from repro.testing.workloads import tenant_trace_text as make_text

    text, bindings, _ = make_text(seed, min_ops=KILL_OPS, max_ops=KILL_OPS)
    sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    sock.connect(socket_path)
    sock.sendall((encode_hello(tenant, bindings) + "\n").encode())
    sock.makefile("rb").readline()  # ack
    for line in text.splitlines():
        sock.sendall((line + "\n").encode())
        time.sleep(delay)
    time.sleep(600)


def _wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {what}")


def _status_events(control, tenant) -> int:
    for line in control.status():
        if line.startswith(f"{tenant} "):
            for field in line.split():
                if field.startswith("events="):
                    return int(field[len("events="):])
    return 0


class TestKillNineWriters:
    def test_concurrent_sigkilled_writers_reconnect(
            self, make_server, start_method):
        host = make_server(session=RECONNECT_CONFIG)
        control = ControlClient(host.config.control_path)
        client = ServiceClient(host.config.socket_path)
        ctx = multiprocessing.get_context(start_method)
        writers = {
            "alpha": (RACY_SEED,
                      ctx.Process(target=_slow_writer, daemon=True,
                                  args=(host.config.socket_path, "alpha",
                                        RACY_SEED, 0.003))),
            "beta": (SECOND_SEED,
                     ctx.Process(target=_slow_writer, daemon=True,
                                 args=(host.config.socket_path, "beta",
                                       SECOND_SEED, 0.003))),
        }
        for _, process in writers.values():
            process.start()
        try:
            # Let both sessions get well into their traces, then kill -9
            # both clients mid-stream.
            for tenant in writers:
                _wait_for(lambda t=tenant: _status_events(control, t) >= 40,
                          timeout=60,
                          what=f"{tenant} to stream 40 events")
            for _, process in writers.values():
                os.kill(process.pid, signal.SIGKILL)
            for _, process in writers.values():
                process.join(timeout=10)
                assert process.exitcode == -signal.SIGKILL
            # Both tenants reconnect, re-send from event zero, and finish
            # with reports byte-identical to offline analysis.
            for tenant, (seed, _) in writers.items():
                text, bindings, trace = tenant_trace_text(
                    seed, min_ops=KILL_OPS, max_ops=KILL_OPS)
                attempts = client.stream_until_done(tenant, bindings, text)
                final = attempts[-1]
                assert final.status == "done", (tenant, attempts)
                assert final.ack == "OK NEW", (tenant, attempts)
                observed = served_races(control, tenant)
                assert observed == offline_race_lines(trace, bindings), \
                    tenant
        finally:
            for _, process in writers.values():
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5)
