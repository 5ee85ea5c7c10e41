"""The shared-memory byte ring behind the service's shm ingest path.

:class:`~repro.core.shmem.ByteRing` must deliver an exact byte stream
across wraparound, block (never drop) while full, and honor the
writer-close EOF contract the service ingest path relies on.
"""

import threading

import pytest

from repro.core.shmem import ByteRing

from tests.support import shm_available

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="no shared memory on this host")


class TestByteRing:
    def test_stream_round_trip_across_wraparound(self):
        ring = ByteRing.create(capacity=16)
        payload = bytes(range(256)) * 40
        out = []

        def consume():
            import time
            while not ring.eof:
                chunk = ring.read()
                if chunk:
                    out.append(chunk)
                else:
                    time.sleep(0.0002)

        thread = threading.Thread(target=consume)
        thread.start()
        try:
            ring.write_all(payload, timeout=30)
            ring.close_write()
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            ring.close()
            ring.unlink()
        assert b"".join(out) == payload

    def test_write_all_times_out_on_stalled_consumer(self):
        ring = ByteRing.create(capacity=8)
        try:
            with pytest.raises(TimeoutError):
                ring.write_all(b"0123456789", timeout=0.05)
        finally:
            ring.close()
            ring.unlink()

    def test_eof_needs_close_and_drain(self):
        ring = ByteRing.create(capacity=64)
        try:
            ring.write_all(b"tail")
            assert not ring.eof
            ring.close_write()
            assert ring.closed and not ring.eof
            assert ring.read() == b"tail"
            assert ring.eof
        finally:
            ring.close()
            ring.unlink()
