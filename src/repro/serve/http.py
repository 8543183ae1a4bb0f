"""Hand-rolled HTTP/1.1 over asyncio streams: parse, respond, chunk.

The service layer (:mod:`repro.serve.server`) speaks exactly the subset
of HTTP/1.1 its endpoints need, implemented directly on
``asyncio.StreamReader`` / ``StreamWriter`` -- no framework, matching
the project's zero-dependency stance.  Supported: request line +
headers + ``Content-Length`` bodies, keep-alive (the HTTP/1.1 default)
with ``Connection: close`` honored, fixed-length JSON responses, and
chunked transfer encoding for the live alert stream.  Deliberately not
supported (and rejected loudly): request trailers, ``Transfer-Encoding``
on requests, HTTP/0.9/2, multiline headers.

Every parse failure raises :class:`HttpError` carrying the status the
connection handler should answer with before closing; malformed bytes
never propagate deeper than this module.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpError",
    "Request",
    "read_request",
    "response_bytes",
    "response_head",
    "start_chunked",
    "write_chunk",
    "end_chunked",
    "STATUS_PHRASES",
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
]

#: request line + headers must fit in this many bytes
MAX_HEADER_BYTES = 32 * 1024
#: default request-body ceiling (the server config may lower it)
MAX_BODY_BYTES = 1024 * 1024

STATUS_PHRASES = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A protocol- or application-level refusal with an HTTP status.

    ``headers`` ride onto the error response (e.g. ``Retry-After`` on
    429s); ``detail`` becomes the JSON error body.
    """

    def __init__(self, status: int, detail: str,
                 headers: Optional[dict[str, str]] = None) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.headers = dict(headers or {})


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    #: decoded path component, e.g. ``/v1/diagnose``
    path: str
    #: decoded query parameters (last value wins on duplicates)
    query: dict[str, str] = field(default_factory=dict)
    #: header names lower-cased
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 keep-alive unless the client said ``close``."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> dict:
        """The body as a JSON object; 400 on anything else."""
        if not self.body:
            return {}
        try:
            data = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise HttpError(400, "request body must be a JSON object")
        return data


async def _read_head(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Bytes up to the blank line, or None on a clean EOF before any."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # the client closed between requests: not an error
        raise HttpError(400, "connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise HttpError(413, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    return head


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int = MAX_BODY_BYTES,
) -> Optional[Request]:
    """Parse one request off the stream; None on clean EOF.

    Raises :class:`HttpError` on malformed input -- the connection
    handler answers with the carried status and closes.
    """
    head = await _read_head(reader)
    if head is None:
        return None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(505 if version.startswith("HTTP/") else 400,
                        f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip():
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise HttpError(501, "chunked request bodies are not supported")
    split = urlsplit(target)
    path = unquote(split.path) or "/"
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    body = b""
    raw_length = headers.get("content-length", "0")
    try:
        length = int(raw_length)
    except ValueError:
        raise HttpError(400, f"malformed Content-Length {raw_length!r}")
    if length < 0:
        raise HttpError(400, f"malformed Content-Length {raw_length!r}")
    if length > max_body:
        raise HttpError(413, f"request body exceeds {max_body} bytes")
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "connection closed mid-body")
    return Request(method=method, path=path, query=query,
                   headers=headers, body=body)


def response_head(
    status: int,
    length: int,
    headers: Optional[dict[str, str]] = None,
    content_type: str = "application/json",
    keep_alive: bool = True,
) -> bytes:
    """Status line and headers of a fixed-length response of ``length``.

    Written ahead of the body as its own ``writer.write``, so a large
    body is never copied into one head-plus-body buffer.
    """
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}"]
    merged = {"Content-Type": content_type,
              "Content-Length": str(length),
              "Connection": "keep-alive" if keep_alive else "close"}
    merged.update(headers or {})
    lines.extend(f"{name}: {value}" for name, value in merged.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def response_bytes(
    status: int,
    body: bytes = b"",
    headers: Optional[dict[str, str]] = None,
    content_type: str = "application/json",
    keep_alive: bool = True,
) -> bytes:
    """One complete fixed-length response, ready for ``writer.write``."""
    return response_head(status, len(body), headers, content_type,
                         keep_alive) + body


def error_body(detail: str) -> bytes:
    """The canonical JSON error payload."""
    return json.dumps({"error": detail}, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


async def start_chunked(
    writer: asyncio.StreamWriter,
    status: int = 200,
    headers: Optional[dict[str, str]] = None,
    content_type: str = "application/x-ndjson",
) -> None:
    """Open a chunked response (the push-stream envelope)."""
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}"]
    merged = {"Content-Type": content_type,
              "Transfer-Encoding": "chunked",
              "Cache-Control": "no-store",
              "Connection": "close"}
    merged.update(headers or {})
    lines.extend(f"{name}: {value}" for name, value in merged.items())
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
    await writer.drain()


async def write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    """Push one chunk (no-op for empty data -- empty means terminator)."""
    if not data:
        return
    writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
    await writer.drain()


async def end_chunked(writer: asyncio.StreamWriter) -> None:
    """Terminate a chunked response."""
    writer.write(b"0\r\n\r\n")
    await writer.drain()
