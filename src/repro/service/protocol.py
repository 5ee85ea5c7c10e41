"""Wire and control protocols of the detection service.

Both sockets speak newline-delimited UTF-8 — the same framing as the
JSONL trace format, so a monitored process that can already
:func:`~repro.core.serialize.dump_trace` can stream to the daemon by
prepending one line.

Ingest socket (one connection per tenant at a time)::

    C: {"repro-serve": 1, "tenant": "web-42", "objects": {"o": "dictionary"}}
    S: OK NEW                      (or: ERR <reason>)
    C: {"repro-trace": 1, "root": 0, "events": 5000}
    C: <event JSONL> ...           (the PR 1 trace wire format, verbatim)
    S: DONE 3                      (declared count reached; 3 race reports)

Every accepted connection starts a fresh analysis, so a client that
reconnects re-sends its trace from event zero.  Clients therefore need
exactly one behavior: connect, stream everything, reconnect on error or
disconnect.

Control socket (line commands, response terminated by a lone ``.``)::

    STATUS             one line per tenant: state, events, races, queue hwm
    STATS              the fleet-merged obs report as one JSON line
    RACES <tenant>     the tenant's grouped race report, one group per line
    SHUTDOWN           drain every tenant queue, stop serving
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict

from ..core.errors import ReproError

__all__ = ["PROTOCOL_KEY", "PROTOCOL_VERSION", "MAX_TENANT_NAME",
           "ProtocolError", "Hello", "encode_hello", "parse_hello",
           "ok_new", "err_line", "done_line",
           "END_OF_RESPONSE"]

PROTOCOL_KEY = "repro-serve"
PROTOCOL_VERSION = 1
MAX_TENANT_NAME = 128

#: Terminates every control-socket response.
END_OF_RESPONSE = "."

_TENANT_OK = re.compile(r"^[^\r\n\0]+$")


class ProtocolError(ReproError):
    """A client spoke the ingest or control protocol incorrectly."""


@dataclass(frozen=True)
class Hello:
    """A validated ingest handshake.

    The trace itself follows on the same socket: the header line, then
    the event lines.
    """

    tenant: str
    objects: Dict[str, str]


def encode_hello(tenant: str, objects: Dict[str, str]) -> str:
    """The handshake line a client sends (newline not included)."""
    return json.dumps({PROTOCOL_KEY: PROTOCOL_VERSION, "tenant": tenant,
                       "objects": dict(objects)})


def parse_hello(line: str, known_kinds) -> Hello:
    """Validate a handshake line; :class:`ProtocolError` on any defect."""
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"handshake is not JSON: {exc}") from exc
    if not isinstance(record, dict) \
            or record.get(PROTOCOL_KEY) != PROTOCOL_VERSION:
        raise ProtocolError(
            f"not a repro-serve v{PROTOCOL_VERSION} handshake: {line!r}")
    if "shm" in record:
        # Older clients could name a shared-memory ring here.  Nobody
        # reads one any more, so the client would wait on it forever.
        raise ProtocolError("shm ingest is not supported; stream the "
                            "trace over the socket")
    tenant = record.get("tenant")
    if not isinstance(tenant, str) or not tenant \
            or len(tenant) > MAX_TENANT_NAME or not _TENANT_OK.match(tenant):
        raise ProtocolError(f"bad tenant name {tenant!r}")
    objects = record.get("objects")
    if not isinstance(objects, dict) or not objects:
        raise ProtocolError("handshake needs a non-empty objects mapping")
    for name, kind in objects.items():
        if not isinstance(name, str) or not isinstance(kind, str):
            raise ProtocolError(
                f"object binding {name!r}={kind!r} must be strings")
        if kind not in known_kinds:
            raise ProtocolError(
                f"unknown object kind {kind!r} for {name!r}; "
                f"available: {sorted(known_kinds)}")
    return Hello(tenant=tenant, objects=dict(objects))


def ok_new() -> str:
    return "OK NEW"


def err_line(reason: str) -> str:
    # Reasons are single tokens plus free text; keep them one line.
    return "ERR " + " ".join(str(reason).split())


def done_line(races: int) -> str:
    return f"DONE {races}"
