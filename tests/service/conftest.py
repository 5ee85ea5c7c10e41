"""Shared fixtures for the detection-service suite.

Every test that needs a live daemon builds it through ``make_server`` so
sockets land in the test's tmp dir and the thread is always joined.  The
CI matrix runs this suite under both ``fork`` and ``spawn``
(``REPRO_TEST_START_METHOD``) because the kill -9 reconnect test launches
client processes via multiprocessing and reconnecting must not care how
those clients came to be.
"""

import os

import pytest

from repro.service import ServerThread, ServiceConfig, SessionConfig

START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None


@pytest.fixture
def start_method():
    return START_METHOD


@pytest.fixture
def make_server(tmp_path):
    """A factory: ``make_server(**config_overrides) -> ServerThread``.

    The returned host is already started; teardown drains every host the
    test created.
    """
    hosts = []

    def factory(**overrides):
        session = overrides.pop("session", None) or SessionConfig()
        config = ServiceConfig(
            socket_path=str(tmp_path / f"ingest-{len(hosts)}.sock"),
            control_path=str(tmp_path / f"control-{len(hosts)}.sock"),
            session=session,
            **overrides)
        host = ServerThread(config)
        hosts.append(host)
        host.__enter__()
        return host

    yield factory
    for host in hosts:
        host.stop()
