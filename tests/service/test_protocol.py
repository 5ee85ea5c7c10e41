"""The ingest handshake and response-line grammar."""

import pytest

from repro.service.protocol import (Hello, ProtocolError, done_line,
                                    encode_hello, err_line, ok_new,
                                    parse_hello)

KINDS = frozenset({"dictionary", "counter"})


class TestHello:
    def test_roundtrip(self):
        line = encode_hello("web-42", {"o": "dictionary", "c": "counter"})
        hello = parse_hello(line, KINDS)
        assert hello == Hello(tenant="web-42",
                              objects={"o": "dictionary", "c": "counter"})

    def test_not_json(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            parse_hello("{nope", KINDS)

    def test_shm_key_is_refused(self):
        # A client that names a shared-memory ring would wait on it
        # forever; the handshake fails instead.
        import json
        line = json.dumps({"repro-serve": 1, "tenant": "t",
                           "objects": {"o": "counter"}, "shm": "psm_abc123"})
        with pytest.raises(ProtocolError, match="shm"):
            parse_hello(line, KINDS)
        assert "shm" not in encode_hello("t", {"o": "counter"})

    @pytest.mark.parametrize("shm", ["", 7, "x" * 200])
    def test_bad_shm_names(self, shm):
        import json
        line = json.dumps({"repro-serve": 1, "tenant": "t",
                           "objects": {"o": "counter"}, "shm": shm})
        with pytest.raises(ProtocolError, match="shm"):
            parse_hello(line, KINDS)

    def test_wrong_version_key(self):
        with pytest.raises(ProtocolError, match="handshake"):
            parse_hello('{"repro-serve": 99, "tenant": "t", '
                        '"objects": {"o": "counter"}}', KINDS)

    def test_plain_trace_header_is_not_a_handshake(self):
        # The most likely client bug: forgetting the HELLO and opening
        # with the trace header.  Must be rejected, not half-accepted.
        with pytest.raises(ProtocolError):
            parse_hello('{"repro-trace": 1, "root": 0, "events": 5}', KINDS)

    @pytest.mark.parametrize("tenant", ["", "a\nb", "x" * 129])
    def test_bad_tenant_names(self, tenant):
        line = encode_hello(tenant, {"o": "counter"})
        with pytest.raises(ProtocolError, match="tenant"):
            parse_hello(line, KINDS)

    def test_empty_objects(self):
        with pytest.raises(ProtocolError, match="objects"):
            parse_hello('{"repro-serve": 1, "tenant": "t", "objects": {}}',
                        KINDS)

    def test_unknown_kind(self):
        line = encode_hello("t", {"o": "flux-capacitor"})
        with pytest.raises(ProtocolError, match="flux-capacitor"):
            parse_hello(line, KINDS)

    def test_non_string_binding(self):
        with pytest.raises(ProtocolError, match="strings"):
            parse_hello('{"repro-serve": 1, "tenant": "t", '
                        '"objects": {"o": 7}}', KINDS)


class TestResponses:
    def test_acks(self):
        assert ok_new() == "OK NEW"
        assert done_line(3) == "DONE 3"

    def test_err_collapses_to_one_line(self):
        assert err_line("bad\nthing  happened") == "ERR bad thing happened"
