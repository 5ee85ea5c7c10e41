"""The multi-tenant detection service.

``repro-serve`` hosts many concurrent trace streams in one daemon: one
bounded-memory streaming analyzer per tenant, bounded ingest queues with
socket-level backpressure, per-tenant fault quarantine and memory
budgets, and reconnects that re-send the trace from event zero — the
deployment shape the paper's "millions of users" motivation actually
calls for.

Layering: :mod:`protocol` (wire format) → :mod:`session` (one tenant's
analysis lifecycle, on :mod:`budget`) → :mod:`server` (sockets, queues,
isolation) → :mod:`client` (reference blocking client + test harness) →
:mod:`chaos` (the adversarial end-to-end harness) → :mod:`cli`
(``repro-serve``).
"""

from .budget import BudgetConfig, TenantBudget
from .client import ControlClient, ServerThread, ServiceClient, StreamResult
from .protocol import Hello, ProtocolError, encode_hello, parse_hello
from .server import DetectionServer, ServiceConfig
from .session import SessionConfig, TenantSession

__all__ = [
    "BudgetConfig", "TenantBudget",
    "ControlClient", "ServerThread", "ServiceClient", "StreamResult",
    "Hello", "ProtocolError", "encode_hello", "parse_hello",
    "DetectionServer", "ServiceConfig",
    "SessionConfig", "TenantSession",
]
