"""The daemon's shared-memory ingest transport.

The ``shm`` handshake key moves trace bytes out of the unix socket and
into a client-owned :class:`~repro.core.shmem.ByteRing`; the socket
keeps the handshake, the ack and the final status line.  The transport
must be *invisible*: byte-identical race reports, the same torn-frame
tolerance, the same backpressure story — and a server configured with
``allow_shm=False`` (``repro-serve --no-shm``) must refuse the
handshake cleanly so the client can fall back to socket streaming.
"""

import time

import pytest

from repro.service import ControlClient, ServiceClient
from repro.service.chaos import offline_race_lines
from repro.testing.workloads import tenant_trace_text

from tests.support import shm_available

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="no shared memory on this host")

RACY_SEEDS = (6, 8, 9, 18)


def races_for(control, tenant):
    observed = control.races(tenant)
    return [] if observed == ["(no races)"] else observed


class TestShmTransportIsInvisible:
    def test_reports_byte_identical_to_socket_and_offline(self, make_server):
        host = make_server()
        client = ServiceClient(host.config.socket_path)
        control = ControlClient(host.config.control_path)
        for seed in RACY_SEEDS:
            text, bindings, trace = tenant_trace_text(seed)
            sock = client.stream_text(f"sock{seed}", bindings, text)
            shm = client.stream_text(f"shm{seed}", bindings, text,
                                     via_shm=True)
            assert sock.status == shm.status == "done"
            expected = offline_race_lines(trace, bindings)
            assert races_for(control, f"sock{seed}") == expected
            assert races_for(control, f"shm{seed}") == expected
        stats = control.stats()
        assert stats["counters"]["shm_streams"] == len(RACY_SEEDS)

    def test_small_ring_backpressure_still_completes(self, make_server):
        # A 256-byte ring forces thousands of wraparounds and constant
        # writer blocking; the report must not care.
        host = make_server()
        client = ServiceClient(host.config.socket_path)
        control = ControlClient(host.config.control_path)
        text, bindings, trace = tenant_trace_text(6)
        result = client.stream_text("tiny", bindings, text, via_shm=True,
                                    ring_capacity=256)
        assert result.status == "done", result
        assert races_for(control, "tiny") \
            == offline_race_lines(trace, bindings)


class TestShmTornFrames:
    def test_truncated_ring_stream_recovers_like_a_socket(self, make_server):
        host = make_server()
        client = ServiceClient(host.config.socket_path)
        text, bindings, trace = tenant_trace_text(6)
        torn = client.stream_text("torn", bindings, text,
                                  truncate_at=len(text) // 2, via_shm=True)
        assert torn.status == "disconnected"
        # Same dumb-client recovery loop as the socket path: reconnect
        # (retrying through the wind-down's ERR busy) until DONE.
        deadline = time.monotonic() + 30
        while True:
            retry = client.stream_text("torn", bindings, text, via_shm=True)
            if retry.status == "done":
                break
            assert retry.final.startswith("ERR busy") \
                or retry.status == "disconnected", retry
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert retry.races is not None


class TestShmRefusals:
    def test_disabled_by_configuration(self, make_server):
        host = make_server(allow_shm=False)
        client = ServiceClient(host.config.socket_path)
        text, bindings, _ = tenant_trace_text(6)
        result = client.stream_text("t", bindings, text, via_shm=True)
        assert result.status == "refused"
        assert result.ack.startswith("ERR shm-unavailable")
        # Socket streaming still works against the same server.
        assert client.stream_text("t", bindings, text).status == "done"

    def test_unattachable_segment_is_refused_before_ack(self, make_server):
        import socket as socket_mod
        from repro.service.protocol import encode_hello
        host = make_server()
        text, bindings, _ = tenant_trace_text(6)
        sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        sock.settimeout(10)
        try:
            sock.connect(host.config.socket_path)
            hello = encode_hello("ghost", bindings, shm="no-such-segment")
            sock.sendall((hello + "\n").encode("utf-8"))
            ack = sock.makefile("rb").readline().decode("utf-8").rstrip("\n")
        finally:
            sock.close()
        assert ack.startswith("ERR shm-unavailable")
        # The refusal is an accounted protocol error, not a crash.
        control = ControlClient(host.config.control_path)
        stats = control.stats()
        assert stats["counters"]["protocol_errors"] >= 1
