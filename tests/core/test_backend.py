"""Transport naming: one shard transport, and nothing else is accepted.

``resolve_backend`` (and ``ShardedDetector(backend=...)``) take ``None``
and ``"pickle"`` — the benchmark harness names the transport — and
reject every other name, ``"shm"`` included.
"""

import pytest

from repro.core.backend import BackendChoice, resolve_backend
from repro.core.parallel import ShardedDetector


class TestResolutionTable:
    def test_pickle_always_honored(self):
        for requested in (None, "pickle"):
            choice = resolve_backend(requested)
            assert choice == BackendChoice(requested, "pickle")
            assert choice.describe() == "pickle"

    def test_unknown_backend_is_a_value_error(self):
        for name in ("carrier-pigeon", "auto", "thread", "subinterp", "shm"):
            with pytest.raises(ValueError, match="unknown backend"):
                resolve_backend(name)
            with pytest.raises(ValueError, match="unknown backend"):
                ShardedDetector(workers=2, backend=name)


class TestProbes:
    def test_choice_is_immutable(self):
        choice = BackendChoice(None, "pickle", "why")
        with pytest.raises(Exception):
            choice.selected = "shm"
