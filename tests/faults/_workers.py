"""Module-level workers for supervisor tests (importable under spawn)."""


def echo(index, payload):
    """The simplest deterministic worker: returns its own call record."""
    return ("ok", index, payload)


def double(index, payload):
    return payload * 2
