"""Transport selection: the host picks, and says why when it falls back.

``resolve_backend`` must never fail hard on a host without shared
memory — it falls back to the pickle pool, and the
:class:`~repro.core.backend.BackendChoice` carries a human-readable
reason (the CLI prints it; operators grep for it).  The probe is
monkeypatched here so the whole table is testable on any host.
"""

import pytest

from repro.core import backend
from repro.core.backend import BackendChoice, resolve_backend
from repro.core.parallel import ShardedDetector


@pytest.fixture
def probes(monkeypatch):
    """Control the shared-memory probe; returns a dict to flip per-test."""
    state = {"shm": True}
    monkeypatch.setattr(backend, "shm_available", lambda: state["shm"])
    return state


class TestResolutionTable:
    def test_pickle_always_honored(self, probes):
        for shm in (True, False):
            probes["shm"] = shm
            choice = resolve_backend("pickle")
            assert choice == BackendChoice("pickle", "pickle")
            assert choice.describe() == "pickle"

    def test_shm_honored_when_available(self, probes):
        assert resolve_backend("shm") == BackendChoice("shm", "shm")

    def test_shm_falls_back_to_pickle_with_reason(self, probes):
        probes["shm"] = False
        choice = resolve_backend("shm")
        assert (choice.selected, choice.requested) == ("pickle", "shm")
        assert "unavailable" in choice.reason
        assert choice.reason in choice.describe()

    def test_default_prefers_shm_then_pickle(self, probes):
        assert resolve_backend() == BackendChoice(None, "shm")
        probes["shm"] = False
        assert resolve_backend() == BackendChoice(
            None, "pickle", "shared memory unavailable on this host")

    def test_the_detector_defaults_to_the_hosts_choice(self, probes):
        assert ShardedDetector(workers=2).backend.selected == "shm"
        probes["shm"] = False
        choice = ShardedDetector(workers=2).backend
        assert choice.selected == "pickle"
        assert choice.reason == "shared memory unavailable on this host"

    def test_unknown_backend_is_a_value_error(self):
        for name in ("carrier-pigeon", "auto", "thread", "subinterp"):
            with pytest.raises(ValueError, match="unknown backend"):
                resolve_backend(name)


class TestProbes:
    def test_probe_results_are_cached(self, monkeypatch):
        backend._reset_probe_cache()
        calls = {"n": 0}
        from multiprocessing import shared_memory
        original = shared_memory.SharedMemory

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", counting)
        try:
            first = backend.shm_available()
            again = backend.shm_available()
        finally:
            backend._reset_probe_cache()
        assert first is again
        assert calls["n"] <= 1

    def test_reset_hook_forgets_cached_probes(self):
        backend._reset_probe_cache()
        assert backend._SHM_PROBE is None
        backend.shm_available()
        assert backend._SHM_PROBE is not None
        backend._reset_probe_cache()
        assert backend._SHM_PROBE is None

    def test_choice_is_immutable(self):
        choice = BackendChoice(None, "pickle", "why")
        with pytest.raises(Exception):
            choice.selected = "shm"
