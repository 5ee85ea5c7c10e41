"""The serve-2t workload: one ``repro-serve`` daemon, a closed-loop client.

A daemon lifetime starts ``repro-serve`` in its own process, waits until
its control socket answers, then drives a fixed number of tenant streams
over ``connections`` concurrent ingest connections from this process.
Each connection streams one tenant trace, waits for ``DONE n``, checks
``n`` and the ``RACES <tenant>`` report against the reference, and only
then starts the next stream under a fresh tenant name.  The lifetime ends
with ``SHUTDOWN``; the daemon's peak RSS comes from ``wait4``.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

SERVE_SHIM = "import sys; from repro.service.cli import main; sys.exit(main())"
SOCKET_TIMEOUT = 60.0
READY_TIMEOUT = 60.0


@dataclass
class Stream:
    """One tenant stream's client-side timestamps and verdict."""
    tenant: str
    events: int
    hello: float = 0.0
    ack: float = 0.0
    sent_from: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    races_done: float = 0.0
    problem: Optional[str] = None
    reordered: bool = False

    @property
    def verdict_s(self) -> float:
        return self.done - self.hello


@dataclass
class Lifetime:
    setup_s: Optional[float] = None
    rss_mb: Optional[float] = None
    elapsed_s: float = 0.0
    streams: List[Stream] = field(default_factory=list)
    stats: Optional[dict] = None
    problem: Optional[str] = None


def _read_response(reader) -> List[str]:
    lines = []
    while True:
        raw = reader.readline()
        if not raw:
            raise ConnectionError("control socket closed mid-response")
        line = raw.decode("utf-8").rstrip("\n")
        if line == ".":
            return lines
        lines.append(line)


class _Control:
    """A persistent control-socket session."""

    def __init__(self, path: str):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(SOCKET_TIMEOUT)
        self._sock.connect(path)
        self._reader = self._sock.makefile("rb")

    def command(self, line: str) -> List[str]:
        self._sock.sendall((line + "\n").encode("utf-8"))
        return _read_response(self._reader)

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


def _wait_ready(proc, control_path: str) -> float:
    """Poll the control socket until STATUS answers; the ready instant."""
    deadline = time.perf_counter() + READY_TIMEOUT
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {proc.returncode} "
                               f"before accepting")
        try:
            control = _Control(control_path)
        except OSError:
            time.sleep(0.002)
            continue
        try:
            control.command("STATUS")
        finally:
            control.close()
        return time.perf_counter()
    raise RuntimeError(f"daemon not ready within {READY_TIMEOUT:g}s")


def _stream(ingest_path: str, control: _Control, stream: Stream,
            bindings: Dict[str, str], payload: bytes, expected: dict) -> None:
    hello = json.dumps({"repro-serve": 1, "tenant": stream.tenant,
                        "objects": bindings}) + "\n"
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(SOCKET_TIMEOUT)
    try:
        sock.connect(ingest_path)
        reader = sock.makefile("rb")
        stream.hello = time.perf_counter()
        sock.sendall(hello.encode("utf-8"))
        ack = reader.readline().decode("utf-8").rstrip("\n")
        stream.ack = time.perf_counter()
        if ack != "OK NEW":
            stream.problem = f"{stream.tenant}: handshake answered {ack!r}"
            return
        stream.sent_from = time.perf_counter()
        sock.sendall(payload)
        stream.sent = time.perf_counter()
        final = reader.readline().decode("utf-8").rstrip("\n")
        stream.done = time.perf_counter()
        reader.close()
    finally:
        sock.close()
    if final != f"DONE {expected['done']}":
        stream.problem = (f"{stream.tenant}: expected DONE "
                          f"{expected['done']}, got {final!r}")
        return
    lines = control.command(f"RACES {stream.tenant}")
    stream.races_done = time.perf_counter()
    # Equal-count groups may come out in either order (see run.py).
    if sorted(lines) != sorted(expected["races"]):
        stream.problem = (f"{stream.tenant}: RACES report differs from the "
                          f"reference ({len(lines)} vs "
                          f"{len(expected['races'])} lines)")
    else:
        stream.reordered = lines != expected["races"]


def lifetime(root: str, directory: str, manifest: dict, expected: List[dict],
             streams: int, connections: int, env: Dict[str, str],
             tenant_prefix: str, want_stats: bool = False) -> Lifetime:
    """Start a daemon, serve ``streams`` tenant streams, shut it down."""
    rel = os.path.relpath(directory, root)
    # Unix socket paths are capped near 108 bytes; relative paths from
    # the checkout root keep them short wherever the checkout lives.
    ingest_path = os.path.join(rel, "i.sock")
    control_path = os.path.join(rel, "c.sock")
    payloads = []
    for name in manifest["files"]:
        with open(os.path.join(directory, name), "rb") as handle:
            payloads.append(handle.read())
    events = [payload.count(b"\n") - 1 for payload in payloads]
    result = Lifetime()
    log = open(os.path.join(directory, "daemon.log"), "w")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-u", "-c", SERVE_SHIM, "--socket", ingest_path,
         "--control", control_path],
        stdout=log, stderr=subprocess.STDOUT, env=env, cwd=root)
    try:
        result.setup_s = _wait_ready(proc, control_path) - start
        pending = list(range(streams))
        lock = threading.Lock()

        def client() -> None:
            control = _Control(control_path)
            try:
                while True:
                    with lock:
                        if not pending:
                            return
                        index = pending.pop(0)
                    pick = index % len(payloads)
                    stream = Stream(f"{tenant_prefix}-{index}", events[pick])
                    with lock:
                        result.streams.append(stream)
                    try:
                        _stream(ingest_path, control, stream,
                                manifest["bindings"], payloads[pick],
                                expected[pick])
                    except Exception as exc:  # recorded as a failed op
                        stream.problem = f"{stream.tenant}: {exc!r}"
            finally:
                control.close()

        began = time.perf_counter()
        workers = [threading.Thread(target=client)
                   for _ in range(connections)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        result.elapsed_s = time.perf_counter() - began
        control = _Control(control_path)
        try:
            if want_stats:
                result.stats = json.loads(control.command("STATS")[0])
            control.command("SHUTDOWN")
        finally:
            control.close()
    except (OSError, RuntimeError, ValueError) as exc:
        result.problem = f"daemon lifetime failed: {exc!r}"
        proc.kill()
    finally:
        timer = threading.Timer(SOCKET_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            log.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result.rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0 and result.problem is None:
        result.problem = f"daemon exited with {proc.returncode}"
    return result
