"""The hand-rolled HTTP/1.1 layer: parsing, framing, refusals."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.http import (
    MAX_HEADER_BYTES,
    HttpError,
    read_request,
    response_bytes,
    response_head,
)


def parse(raw: bytes, max_body: int = 1024 * 1024):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body)
    return asyncio.run(go())


class TestRequestParsing:
    def test_simple_post_with_body(self):
        request = parse(b"POST /v1/diagnose?x=1 HTTP/1.1\r\n"
                        b"Host: h\r\nContent-Length: 4\r\n"
                        b"X-Tenant: ops\r\n\r\nbody")
        assert request.method == "POST"
        assert request.path == "/v1/diagnose"
        assert request.query == {"x": "1"}
        assert request.headers["x-tenant"] == "ops"
        assert request.body == b"body"
        assert request.keep_alive

    def test_connection_close_drops_keep_alive(self):
        request = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_torn_head_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET / HTTP/1.1\r\nHos")
        assert excinfo.value.status == 400

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"NONSENSE\r\n\r\n")
        assert excinfo.value.status == 400

    def test_bad_content_length_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert excinfo.value.status == 400

    def test_oversize_body_is_413(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" +
                  b"x" * 100, max_body=10)
        assert excinfo.value.status == 413

    def test_oversize_head_is_413(self):
        filler = b"X-Filler: " + b"y" * MAX_HEADER_BYTES + b"\r\n"
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET / HTTP/1.1\r\n" + filler + b"\r\n")
        assert excinfo.value.status == 413

    def test_chunked_request_body_is_501(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert excinfo.value.status == 501

    def test_body_json_refuses_non_object(self):
        request = parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]")
        with pytest.raises(HttpError) as excinfo:
            request.json()
        assert excinfo.value.status == 400

    def test_percent_encoded_path_decodes(self):
        request = parse(b"GET /v1/alerts%2Fstream HTTP/1.1\r\n\r\n")
        assert request.path == "/v1/alerts/stream"


class TestResponseFraming:
    def test_response_bytes_roundtrip(self):
        raw = response_bytes(200, b'{"a":1}', {"X-Cache": "hit"})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 7" in head
        assert b"X-Cache: hit" in head
        assert body == b'{"a":1}'

    def test_connection_close_header(self):
        raw = response_bytes(200, b"", keep_alive=False)
        assert b"Connection: close" in raw

    def test_unknown_status_still_frames(self):
        raw = response_bytes(418, b"")
        assert raw.startswith(b"HTTP/1.1 418 ")

    @pytest.mark.parametrize("status", [200, 404, 418, 503])
    @pytest.mark.parametrize("headers", [
        None, {}, {"X-Cache": "hit", "X-Request-Key": "abc"},
        {"Content-Type": "text/plain", "Connection": "close"}])
    @pytest.mark.parametrize("keep_alive", [True, False])
    def test_head_plus_body_is_the_whole_response(self, status, headers,
                                                  keep_alive):
        for body in (b"", b'{"a":1}', "\u00e9".encode("utf-8") * 1000):
            head = response_head(status, len(body), headers,
                                 keep_alive=keep_alive)
            assert head + body == response_bytes(status, body, headers,
                                                 keep_alive=keep_alive)
            assert head.endswith(b"\r\n\r\n")
            assert f"Content-Length: {len(body)}\r\n".encode() in head
