"""The multi-tenant detection daemon: sockets, queues, isolation.

One asyncio process serves many monitored applications ("tenants") at
once.  Each tenant streams its trace over a unix-domain socket in the
PR 1 wire format behind one handshake line
(:mod:`repro.service.protocol`); the server runs one
:class:`~repro.service.session.TenantSession` per tenant and answers a
line-oriented control socket (``STATUS`` / ``STATS`` / ``RACES`` /
``SHUTDOWN``).

Robustness properties, each load-bearing for "millions of users":

* **Backpressure, never buffering.**  Every tenant's decoded events go
  through a *bounded* :class:`asyncio.Queue`.  When the tenant's
  analysis worker falls behind, ``queue.put`` blocks the socket reader,
  the kernel socket buffer fills, and the *client* stalls — a flooding
  tenant costs itself latency, never the daemon memory.  The observed
  high-water mark is published as ``tenant_queue_hwm[<tenant>]`` (gauges
  merge by max) so the bound is checkable from the outside.
* **Fault isolation.**  A tenant whose stream is malformed or whose
  analyzer raises is handled with the PR 3 ``analyzer_policy`` semantics
  through a shared :class:`~repro.core.supervise.QuarantinePolicy`
  (``site="tenant"``): ``log`` tolerates, ``disable`` quarantines the
  tenant after ``max_faults`` strikes, ``raise`` stops the daemon.
  Neighbor tenants never notice either way.
* **Budget degradation.**  Each session enforces the shared
  :class:`~repro.service.budget.BudgetConfig`; a tenant that stays over
  budget through forced maintenance windows degrades to
  *budget-exceeded, detection suspended* — races found so far keep
  being served, new events are refused.
* **Reconnect.**  A stream that ends early (disconnect, torn frame,
  drain) keeps its races served until the tenant reconnects.  The
  client then re-sends its trace from event zero, and a fresh session
  analyzes all of it: an analyzer's state after n events depends only
  on those n events, so nothing from the dropped stream is needed.
* **Frame caps.**  Socket reads inherit the
  :data:`~repro.core.serialize.MAX_RECORD_BYTES` cap through the asyncio
  stream limit — an unterminated megabyte "line" is an error, not an
  unbounded buffer.
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional

from ..core.errors import ReproError
from ..core.faults import FaultLog
from ..core.serialize import MAX_RECORD_BYTES, _decode_event, _decode_header
from ..core.supervise import ANALYZER_POLICIES, QuarantinePolicy
from ..obs import Registry
from ..specs import bundled_objects
from .protocol import (END_OF_RESPONSE, ProtocolError, done_line, err_line,
                       ok_new, parse_hello)
from .session import SUSPENDED, SessionConfig, TenantSession

__all__ = ["ServiceConfig", "DetectionServer"]

#: Queue sentinels: the stream completed its declared event count / the
#: stream ended early (disconnect, torn frame, drain) with no more events.
_COMPLETE = object()
_PARTIAL = object()

#: How often a parked socket read re-checks for drain/fault wind-down.
_READ_TICK = 0.05


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`DetectionServer` needs to come up.

    Tenants reach the server one way: over ``socket_path``, handshake
    then trace.  ``queue_size`` bounds every tenant's ingest queue (the
    backpressure knob).  ``throttle`` is a test/chaos hook — an async
    callable ``(tenant, events_seen)`` awaited before each analyzed
    event, used to simulate a slow consumer without patching the
    analyzer.
    """

    socket_path: str
    control_path: str
    session: SessionConfig = field(default_factory=SessionConfig)
    queue_size: int = 64
    max_record_bytes: int = MAX_RECORD_BYTES
    analyzer_policy: str = "disable"
    max_faults: int = 3
    throttle: Optional[Callable[[str, int], Awaitable[None]]] = field(
        default=None, repr=False)

    def __post_init__(self) -> None:
        if self.queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, "
                             f"got {self.queue_size}")
        if self.max_record_bytes < 1:
            raise ValueError(f"max_record_bytes must be >= 1, "
                             f"got {self.max_record_bytes}")
        if self.analyzer_policy not in ANALYZER_POLICIES:
            raise ValueError(
                f"analyzer_policy must be one of {ANALYZER_POLICIES}, "
                f"got {self.analyzer_policy!r}")


class _Tenant:
    """Server-side per-tenant state that outlives any one connection."""

    __slots__ = ("name", "obs", "session", "connected", "suspended",
                 "queue_hwm", "events_ingested")

    def __init__(self, name: str):
        self.name = name
        self.obs = Registry()
        self.session: Optional[TenantSession] = None
        self.connected = False
        self.suspended = False
        self.queue_hwm = 0
        self.events_ingested = 0

    def display_state(self, policy: QuarantinePolicy) -> str:
        if policy.is_quarantined(self.name):
            return "quarantined"
        if self.suspended:
            return "suspended"
        if self.session is None:
            return "idle"
        return self.session.state


class DetectionServer:
    """The daemon: see the module docstring for the design."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.obs = Registry()
        self.faults = FaultLog()
        self._policy = QuarantinePolicy(
            policy=config.analyzer_policy, max_faults=config.max_faults,
            obs=self.obs, faults=self.faults, site="tenant")
        self._kinds = frozenset(bundled_objects())
        self._tenants: Dict[str, _Tenant] = {}
        self._connections: set = set()
        self._draining = False
        self._fatal: Optional[BaseException] = None
        self._stopped: Optional[asyncio.Event] = None
        self._ingest_server = None
        self._control_server = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind both sockets; the server is accepting when this returns."""
        self._stopped = asyncio.Event()
        for path in (self.config.socket_path, self.config.control_path):
            try:
                os.unlink(path)
            except OSError:
                pass
        self._ingest_server = await asyncio.start_unix_server(
            self._handle_ingest, path=self.config.socket_path,
            limit=self.config.max_record_bytes)
        self._control_server = await asyncio.start_unix_server(
            self._handle_control, path=self.config.control_path,
            limit=self.config.max_record_bytes)

    async def serve_forever(self) -> None:
        """Block until ``SHUTDOWN`` (or a fatal tenant fault under the
        ``raise`` policy, which is then re-raised here)."""
        await self._stopped.wait()
        await self._teardown()
        if self._fatal is not None:
            raise self._fatal

    async def _teardown(self) -> None:
        for server in (self._ingest_server, self._control_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        for path in (self.config.socket_path, self.config.control_path):
            try:
                os.unlink(path)
            except OSError:
                pass

    def run(self) -> None:
        """Synchronous convenience: start, serve, tear down."""
        asyncio.run(self._run())

    async def _run(self) -> None:
        await self.start()
        await self.serve_forever()

    async def drain_and_stop(self) -> None:
        """The ``SHUTDOWN`` path: refuse new streams, let every active
        connection wind down (workers drain their queues), then stop
        serving."""
        if self._draining:
            return
        self._draining = True
        if self._connections:
            await asyncio.gather(*tuple(self._connections),
                                 return_exceptions=True)
        self._stopped.set()

    # -- shared plumbing ---------------------------------------------------

    def _tenant(self, name: str) -> _Tenant:
        entry = self._tenants.get(name)
        if entry is None:
            entry = self._tenants[name] = _Tenant(name)
        return entry

    async def _readline(self, reader, stop: Callable[[], bool]
                        ) -> Optional[bytes]:
        """One frame, ``None`` on drain/fault wind-down or disconnect.

        Raises ``ValueError`` (asyncio's over-limit signal) when a line
        exceeds the record cap.  The periodic tick keeps a silent client
        from pinning a connection open across a drain.
        """
        while True:
            if stop():
                return None
            try:
                raw = await asyncio.wait_for(reader.readline(), _READ_TICK)
            except asyncio.TimeoutError:
                continue
            if not raw or not raw.endswith(b"\n"):
                # EOF, or a torn frame flushed by a dying client: either
                # way there is no complete record here and never will be.
                return None
            return raw

    @staticmethod
    async def _send(writer, line: str) -> None:
        try:
            writer.write((line + "\n").encode("utf-8"))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # the client is gone; nothing left to tell it

    # -- ingest ------------------------------------------------------------

    async def _handle_ingest(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._ingest(reader, writer)
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _ingest(self, reader, writer) -> None:
        try:
            raw = await self._readline(reader, lambda: self._draining)
        except ValueError:
            self.obs.add("stream_frame_errors")
            await self._send(writer, err_line("frame-too-large handshake "
                                              "exceeds the record cap"))
            return
        if raw is None:
            if self._draining:
                await self._send(writer, err_line("draining"))
            return
        try:
            hello = parse_hello(raw.decode("utf-8", "replace"), self._kinds)
        except ProtocolError as exc:
            self.obs.add("protocol_errors")
            await self._send(writer, err_line(str(exc)))
            return
        tenant = self._tenant(hello.tenant)
        if self._policy.is_quarantined(tenant.name):
            await self._send(writer, err_line("quarantined"))
            return
        if tenant.suspended:
            await self._send(writer, err_line("budget-exceeded detection "
                                              "suspended"))
            return
        if tenant.connected:
            await self._send(writer, err_line(
                f"busy tenant {tenant.name} already has a live stream"))
            return
        tenant.connected = True
        self.obs.add("streams_accepted")
        try:
            await self._stream(tenant, hello, reader, writer)
        finally:
            tenant.connected = False

    async def _stream(self, tenant: _Tenant, hello, reader, writer) -> None:
        await self._send(writer, ok_new())

        status = {"failed": None}

        def stop() -> bool:
            return self._draining or status["failed"] is not None

        # Trace header.
        try:
            raw = await self._readline(reader, stop)
        except ValueError:
            await self._frame_fault(tenant, writer, "trace header")
            return
        if raw is None:
            if self._draining:
                await self._send(writer, err_line("draining"))
            return
        try:
            root, declared = _decode_header(json.loads(raw))
        except Exception as exc:
            await self._tenant_fault(tenant, writer, ProtocolError(
                f"bad trace header: {exc}"))
            return
        session = TenantSession(tenant.name, hello.objects, root,
                                self.config.session, obs=tenant.obs)
        tenant.session = session

        queue: asyncio.Queue = asyncio.Queue(maxsize=self.config.queue_size)
        worker = asyncio.create_task(
            self._pump(tenant, session, queue, status))
        received = 0
        complete = declared == 0
        try:
            while not complete:
                try:
                    raw = await self._readline(reader, stop)
                except ValueError:
                    status["failed"] = status["failed"] or ReproError(
                        f"stream record exceeds the "
                        f"{self.config.max_record_bytes}-byte cap")
                    tenant.obs.add("stream_frame_errors")
                    break
                if raw is None:
                    break
                try:
                    event = _decode_event(json.loads(raw))
                except Exception as exc:
                    status["failed"] = status["failed"] or ReproError(
                        f"malformed event record: {exc}")
                    break
                await queue.put(event)
                received += 1
                tenant.events_ingested += 1
                depth = queue.qsize()
                if depth > tenant.queue_hwm:
                    tenant.queue_hwm = depth
                    tenant.obs.gauge(f"tenant_queue_hwm[{tenant.name}]",
                                     depth)
                if declared is not None and received >= declared:
                    complete = True
            await queue.put(_COMPLETE if complete and not stop()
                            else _PARTIAL)
            outcome = await worker
            if outcome == "partial" and status["failed"] is not None:
                # The *reader* hit the failure (malformed record or an
                # over-cap frame) while the worker was still healthy.
                outcome = "fault"
        finally:
            if not worker.done():
                worker.cancel()
        await self._conclude(tenant, session, writer, status, outcome)

    async def _pump(self, tenant: _Tenant, session: TenantSession,
                    queue: asyncio.Queue, status: dict) -> str:
        """The tenant's analysis worker: feed events until a sentinel.

        Never lets the reader deadlock: after a fault or suspension it
        keeps *discarding* queued events (so a blocked ``put`` always
        unblocks) until the reader notices ``status`` and sends the
        sentinel.
        """
        throttle = self.config.throttle
        outcome = "partial"
        while True:
            item = await queue.get()
            if item is _PARTIAL:
                return outcome
            if item is _COMPLETE:
                if outcome != "partial":
                    return outcome
                try:
                    session.finish()
                except Exception as exc:
                    status["failed"] = exc
                    return "fault"
                return "done"
            if status["failed"] is not None or outcome != "partial":
                continue
            try:
                if throttle is not None:
                    await throttle(session.tenant, session.events_seen)
                session.feed(item)
            except Exception as exc:
                status["failed"] = exc
                outcome = "fault"
                continue
            if session.state is SUSPENDED:
                outcome = "suspended"
                continue
            # One yield per event keeps tenants interleaved even when a
            # single stream is saturating its queue.
            await asyncio.sleep(0)

    async def _conclude(self, tenant: _Tenant, session: TenantSession,
                        writer, status: dict, outcome: str) -> None:
        if outcome == "done":
            tenant.obs.add("streams_completed")
            await self._send(writer, done_line(len(session.races)))
            return
        if outcome == "fault":
            await self._tenant_fault(tenant, writer, status["failed"])
            return
        if outcome == "suspended":
            tenant.suspended = True
            await self._send(writer, err_line("budget-exceeded detection "
                                              "suspended"))
            return
        # Partial: drain, torn frame, or plain disconnect.  RACES keeps
        # serving this session's races until the tenant reconnects; if
        # draining, tell the client why.
        if self._draining:
            await self._send(writer, err_line("draining"))

    async def _frame_fault(self, tenant: _Tenant, writer,
                           where: str) -> None:
        tenant.obs.add("stream_frame_errors")
        await self._tenant_fault(tenant, writer, ReproError(
            f"{where} exceeds the {self.config.max_record_bytes}-byte "
            f"record cap"))

    async def _tenant_fault(self, tenant: _Tenant, writer,
                            exc: BaseException) -> None:
        """Apply the analyzer policy to one tenant's failure."""
        action = self._policy.record_failure(tenant.name, tenant.name, exc)
        if action == "quarantine":
            await self._send(writer, err_line("quarantined"))
            return
        await self._send(writer, err_line(f"analyzer-fault {exc}"))
        if action == "raise":
            self._fatal = exc if isinstance(exc, Exception) else \
                ReproError(str(exc))
            self._stopped.set()

    # -- control -----------------------------------------------------------

    async def _handle_control(self, reader, writer) -> None:
        try:
            while True:
                try:
                    raw = await self._readline(
                        reader, lambda: self._stopped.is_set())
                except ValueError:
                    break
                if raw is None:
                    break
                command = raw.decode("utf-8", "replace").strip()
                if not command:
                    continue
                shutdown = False
                if command == "STATUS":
                    lines = self._status_lines()
                elif command == "STATS":
                    lines = [json.dumps(self.merged_stats(), sort_keys=True)]
                elif command.startswith("RACES "):
                    lines = self._race_lines(command[len("RACES "):].strip())
                elif command == "SHUTDOWN":
                    lines = ["OK"]
                    shutdown = True
                else:
                    lines = [err_line(f"unknown-command {command}")]
                for line in lines:
                    await self._send(writer, line)
                await self._send(writer, END_OF_RESPONSE)
                if shutdown:
                    await self.drain_and_stop()
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    def _status_lines(self) -> List[str]:
        lines = []
        for name in sorted(self._tenants):
            entry = self._tenants[name]
            session = entry.session
            events = session.events_seen if session is not None else 0
            races = len(session.races) if session is not None else 0
            lines.append(
                f"{name} state={entry.display_state(self._policy)} "
                f"events={events} races={races} "
                f"queue_hwm={entry.queue_hwm} "
                f"faults={self._policy.fault_count(name)}")
        return lines or ["(no tenants)"]

    def _race_lines(self, name: str) -> List[str]:
        entry = self._tenants.get(name)
        if entry is None or entry.session is None:
            return [err_line(f"unknown-tenant {name}")]
        return entry.session.race_lines() or ["(no races)"]

    def merged_stats(self) -> dict:
        """The fleet-wide obs snapshot: server + every tenant, merged."""
        merged = Registry()
        merged.absorb(self.obs)
        for entry in self._tenants.values():
            merged.absorb(entry.obs)
        return merged.snapshot()
