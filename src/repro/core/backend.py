"""The sharded pipeline's one phase-B transport, by name.

Shard payloads are pickled once each and handed to one child process per
shard (:class:`~repro.core.supervise.ShardSupervisor`).  ``"pickle"`` is
the only transport there is; ``resolve_backend`` keeps accepting it (and
``None``) so callers that name it keep working, and rejects anything
else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["BACKENDS", "BackendChoice", "resolve_backend"]

BACKENDS = ("pickle",)


@dataclass(frozen=True)
class BackendChoice:
    """What the caller asked for (None: the default) and what it got.

    ``reason`` is always None: there is no fallback to explain.  The
    benchmark harness (``perfbench/run.py``) still reads it.
    """

    requested: Optional[str]
    selected: str
    reason: Optional[str] = None

    def describe(self) -> str:
        return self.selected


def resolve_backend(requested: Optional[str] = None) -> BackendChoice:
    """Validate a phase-B transport request: ``None`` or ``"pickle"``."""
    if requested is not None and requested not in BACKENDS:
        raise ValueError(
            f"unknown backend {requested!r}; expected one of "
            f"{', '.join(BACKENDS)}")
    return BackendChoice(requested, "pickle")
