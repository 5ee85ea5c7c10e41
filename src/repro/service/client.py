"""Synchronous clients for the detection daemon, plus a test harness.

The ingest protocol was designed so a client needs exactly one behavior
— connect, stream everything from event zero, reconnect on error — and
:class:`ServiceClient` is that client: a blocking socket wrapper the
test-suite, the chaos harness and the soak benchmark all drive.  It is
deliberately *not* asyncio: real monitored applications write traces
from ordinary threads, and the daemon's backpressure story ("a slow
consumer blocks the client's socket, nothing else") is only honest if
the reference client really does block.

:class:`ControlClient` speaks the control socket (``STATUS`` / ``STATS``
/ ``RACES`` / ``SHUTDOWN``), reading each response through its ``.``
terminator.

:class:`ServerThread` hosts a :class:`~repro.service.server.
DetectionServer` on a private event loop in a daemon thread — the
test-suite's way to get a live server and a same-process view of its
registries at once.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from .protocol import END_OF_RESPONSE, encode_hello
from .server import DetectionServer, ServiceConfig

__all__ = ["StreamResult", "ServiceClient", "ControlClient", "ServerThread"]

_DEFAULT_TIMEOUT = 30.0


@dataclass
class StreamResult:
    """How one ingest connection ended."""

    #: The server's handshake ack line ("OK NEW"), or the ERR line when
    #: the handshake itself was refused.
    ack: str
    #: "done" | "refused" | "error" | "disconnected"
    status: str
    #: The final server line ("DONE n" / "ERR ..."), "" on silent close.
    final: str
    #: Race-report count from a DONE line, else None.
    races: Optional[int] = None


class ServiceClient:
    """One tenant's blocking ingest connection (see module docstring)."""

    def __init__(self, socket_path: str, timeout: float = _DEFAULT_TIMEOUT):
        self._path = socket_path
        self._timeout = timeout

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self._timeout)
        sock.connect(self._path)
        return sock

    def stream_text(self, tenant: str, bindings: Dict[str, str],
                    trace_text: str,
                    truncate_at: Optional[int] = None) -> StreamResult:
        """Stream one tenant's whole JSONL trace; blocks until the ack.

        Handshake, trace and the final status line all share the one
        socket, so a server that falls behind stalls this call through
        the full socket buffer.

        ``truncate_at`` is the chaos harness's torn-frame lever: only the
        first that many *bytes* of the trace are sent (typically cutting
        a record in half) and the connection then ends abruptly, like a
        client killed mid-write.
        """
        sock = self._connect()
        try:
            reader = sock.makefile("rb")
            sock.sendall((encode_hello(tenant, bindings) + "\n")
                         .encode("utf-8"))
            ack = reader.readline().decode("utf-8").rstrip("\n")
            if not ack.startswith("OK"):
                return StreamResult(ack=ack, status="refused", final=ack)
            payload = trace_text.encode("utf-8")
            if truncate_at is not None:
                sock.sendall(payload[:truncate_at])
                return StreamResult(ack=ack, status="disconnected", final="")
            try:
                sock.sendall(payload)
            except (BrokenPipeError, ConnectionError):
                # The server refused mid-stream (quarantine, budget); its
                # parting ERR line is still in the read buffer.
                pass
            final = reader.readline().decode("utf-8").rstrip("\n")
            if final.startswith("DONE "):
                return StreamResult(ack=ack, status="done", final=final,
                                    races=int(final.rsplit(" ", 1)[1]))
            status = "error" if final else "disconnected"
            return StreamResult(ack=ack, status=status, final=final)
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def stream_until_done(self, tenant: str, bindings: Dict[str, str],
                          trace_text: str, attempts: int = 12
                          ) -> List[StreamResult]:
        """The dumb-client loop: reconnect until DONE or refusal sticks.

        Retries transparently on the transient endings a real client
        would retry — a disconnect, and ``ERR busy`` while the server is
        still winding down this tenant's previous (killed) connection.
        Every attempt re-sends the whole trace and is analyzed from
        event zero.  Returns every attempt's result; the last one is
        terminal (DONE, a durable refusal such as quarantine/budget, or
        the attempt budget ran out)."""
        results: List[StreamResult] = []
        delay = 0.05
        for _ in range(attempts):
            result = self.stream_text(tenant, bindings, trace_text)
            results.append(result)
            if result.status == "done":
                break
            retryable = (result.status == "disconnected"
                         or result.final.startswith("ERR busy"))
            if not retryable:
                break
            # Wait twice as long each time, up to 1 s: a busy server is
            # usually draining the kernel-buffered tail of this tenant's
            # killed connection, which takes as long as its analysis takes.
            time.sleep(delay)
            delay = min(delay * 2, 1.0)
        return results


class ControlClient:
    """A blocking control-socket session (one command per call)."""

    def __init__(self, control_path: str,
                 timeout: float = _DEFAULT_TIMEOUT):
        self._path = control_path
        self._timeout = timeout

    def command(self, command: str) -> List[str]:
        """Send one command; the response lines (terminator stripped)."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self._timeout)
        try:
            sock.connect(self._path)
            sock.sendall((command + "\n").encode("utf-8"))
            reader = sock.makefile("rb")
            lines: List[str] = []
            while True:
                raw = reader.readline()
                if not raw:
                    break
                line = raw.decode("utf-8").rstrip("\n")
                if line == END_OF_RESPONSE:
                    break
                lines.append(line)
            return lines
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def status(self) -> List[str]:
        return self.command("STATUS")

    def stats(self) -> dict:
        lines = self.command("STATS")
        return json.loads(lines[0]) if lines else {}

    def races(self, tenant: str) -> List[str]:
        return self.command(f"RACES {tenant}")

    def shutdown(self) -> List[str]:
        return self.command("SHUTDOWN")


class ServerThread:
    """A live :class:`DetectionServer` on a background event loop.

    Context manager: entering blocks until both sockets accept;
    exiting drains and joins.  ``error`` carries the exception that
    ended ``serve_forever`` early (the ``raise`` policy's fatal fault),
    so tests can assert on it after the fact.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.server = DetectionServer(config)
        self.error: Optional[BaseException] = None
        self._loop = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._started.wait(timeout=_DEFAULT_TIMEOUT):
            raise RuntimeError("detection server failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _main(self) -> None:
        import asyncio
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surfaced via self.error
            self.error = exc

    async def _amain(self) -> None:
        import asyncio
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._started.set()
        await self.server.serve_forever()

    def stop(self, timeout: float = _DEFAULT_TIMEOUT) -> None:
        """Drain and stop the server; idempotent."""
        loop = self._loop
        if loop is not None and self._thread.is_alive():
            import asyncio

            def _request_drain() -> None:
                asyncio.ensure_future(self.server.drain_and_stop())

            try:
                loop.call_soon_threadsafe(_request_drain)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)
