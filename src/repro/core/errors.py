"""Exception hierarchy shared across the library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish specification problems from runtime misuse.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SpecificationError",
    "FragmentError",
    "ParseError",
    "TranslationError",
    "MonitorError",
    "SchedulerError",
    "FrameTooLargeError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SpecificationError(ReproError):
    """A commutativity specification is malformed or inconsistent.

    Examples: a formula references a variable that is not an argument or
    return value of either method, a method pair is specified twice with
    different formulas, or a self-pair formula is not symmetric.
    """


class FragmentError(SpecificationError):
    """A formula falls outside the logical fragment required by an operation.

    Raised, for instance, when the ECL-to-access-point translator is handed
    a formula with an atomic predicate mixing variables from both actions
    (which is exactly what ECL's ``LB`` component forbids).
    """


class ParseError(SpecificationError):
    """The textual form of a commutativity formula could not be parsed."""

    def __init__(self, message: str, text: str = "", position: int = -1):
        self.text = text
        self.position = position
        if position >= 0:
            message = f"{message} (at offset {position} in {text!r})"
        super().__init__(message)


class TranslationError(SpecificationError):
    """The ECL-to-access-point translation failed.

    This signals a bug or an unsupported construct rather than a user error;
    well-formed ECL formulas always translate (Theorem 6.5).
    """


class MonitorError(ReproError):
    """The dynamic-analysis runtime was used incorrectly.

    Examples: emitting events for an unregistered thread, joining a thread
    that was never forked, or releasing a lock that is not held.
    """


class SchedulerError(ReproError):
    """The cooperative scheduler detected an impossible state.

    Examples: deadlock (no runnable task while unfinished tasks remain) or a
    task yielding after it already completed.
    """


class FrameTooLargeError(ReproError):
    """A streamed trace record exceeds the configured size cap.

    Raised by :class:`~repro.core.serialize.TailReader` (and the detection
    service's ingest readers) when a single JSONL record — complete or
    still unterminated — grows past ``max_record_bytes``.  Distinct from a
    partial tail: a partial record within the cap means "not yet flushed"
    and the reader parks at a resume offset, while a record that can never
    fit is poison — without this error the reader would retry the same
    offset forever.
    """
