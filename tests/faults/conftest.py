"""Shared knobs for the fault-injection suite.

``REPRO_TEST_START_METHOD`` (set by the CI matrix to ``fork`` or
``spawn``) selects the multiprocessing context every pooled test runs
under; unset, the platform default applies.  Fault recovery must behave
identically either way — the supervisor only sees "result arrived /
timed out / raised", never the start method — and running the suite twice
is how that claim is kept honest.
"""

import os

import pytest

from repro.testing.faults import PLAN_ENV

START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None

# Used only in tests whose faulty worker is *guaranteed* stuck (sleeping
# HANG_SECONDS) or dead: short enough that each timeout-recovery test
# costs seconds, long enough that the healthy shards sharing the round
# (trivial workloads) never trip it even on a loaded CI runner.
FAST_TIMEOUT = 5.0
# A hang must comfortably outlast the timeout that detects it.
HANG_SECONDS = 60.0


@pytest.fixture
def start_method():
    return START_METHOD


@pytest.fixture
def inject(monkeypatch):
    """Install a fault plan the one way it reaches the supervisor: the
    ``REPRO_FAULT_PLAN`` environment variable, read when a
    :class:`~repro.core.supervise.ShardSupervisor` is built."""
    def install(plan):
        monkeypatch.setenv(PLAN_ENV, plan.to_env())
    return install
