"""How the sharded pipeline ships stamped actions to its shard workers.

Two transports exist, and the host picks between them:

``shm``
    Stamped actions encoded into per-shard
    ``multiprocessing.shared_memory`` record rings
    (:mod:`repro.core.shmem`); only the per-worker init payload
    (registrations, plans, settings) is pickled, once.  Selected wherever
    the host can create a shared-memory segment.
``pickle``
    The full shard payload pickled into a supervised
    ``multiprocessing.Pool``.  The transport of hosts without a usable
    ``/dev/shm``.

``resolve_backend`` turns a request into a :class:`BackendChoice` with
the selected transport and, when the host forced a fallback, a
human-readable reason — the CLI prints it and tests assert on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["BACKENDS", "BackendChoice", "resolve_backend", "shm_available"]

BACKENDS = ("pickle", "shm")


@dataclass(frozen=True)
class BackendChoice:
    """What the caller asked for (None: the host's choice), what it got,
    and why the host chose otherwise (if it did)."""

    requested: Optional[str]
    selected: str
    reason: Optional[str] = None

    def describe(self) -> str:
        if self.reason is None:
            return self.selected
        return f"{self.selected} ({self.reason})"


_SHM_PROBE: Optional[bool] = None


def shm_available() -> bool:
    """Can this host actually create shared-memory segments?

    Some sandboxes mount ``/dev/shm`` read-only or not at all; probing
    with a real 1-byte segment is the only reliable signal.
    """
    global _SHM_PROBE
    if _SHM_PROBE is None:
        try:
            from multiprocessing import shared_memory
            seg = shared_memory.SharedMemory(create=True, size=1)
            seg.close()
            seg.unlink()
            _SHM_PROBE = True
        except Exception:
            _SHM_PROBE = False
    return _SHM_PROBE


def resolve_backend(requested: Optional[str] = None) -> BackendChoice:
    """Pick the phase-B transport.

    ``None`` (the default) and ``"shm"`` select shared-memory rings when
    the host can create a segment and fall back to the pickle pool, with
    a reason, when it cannot.  ``"pickle"`` is always honored.
    """
    if requested is not None and requested not in BACKENDS:
        raise ValueError(
            f"unknown backend {requested!r}; expected one of "
            f"{', '.join(BACKENDS)}")
    if requested == "pickle":
        return BackendChoice(requested, "pickle")
    if shm_available():
        return BackendChoice(requested, "shm")
    return BackendChoice(requested, "pickle",
                         "shared memory unavailable on this host")


def _reset_probe_cache() -> None:
    """Test hook: forget the cached probe result."""
    global _SHM_PROBE
    _SHM_PROBE = None
