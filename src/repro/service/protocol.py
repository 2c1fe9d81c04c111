"""Minimal HTTP/1.1 over asyncio streams -- the service's wire substrate.

The serving front-end speaks plain HTTP so any client stack can talk to it,
but the repository stays dependency-free: this module implements exactly
the slice of HTTP/1.1 the service needs (request-line + headers +
``Content-Length`` bodies in; fixed-length responses and
``Transfer-Encoding: chunked`` frame streams out; per-connection
keep-alive) on top of ``asyncio``'s stream API.  It is a *server-side*
protocol helper, not a general HTTP implementation -- no multipart, no
compression, no trailers, no pipelining guarantees beyond strictly
sequential request/response per connection.

Limits are explicit and conservative: oversized header blocks or bodies
raise :class:`ProtocolError`, which the connection handler answers with
``400`` and a close -- malformed traffic must never wedge the accept loop.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpRequest",
    "ProtocolError",
    "read_request",
    "send_json",
    "send_body",
    "start_chunked",
    "send_chunk",
    "end_chunked",
]

#: Cap on the request line plus header block; a header block this large is
#: hostile or broken, either way the connection is answered 400 and closed.
MAX_HEADER_BYTES = 64 * 1024
#: Cap on request bodies, checked on ``Content-Length``
#: before the body is read.  Embellished batches carry one ciphertext per
#: selector, so real payloads reach megabytes; 64 MiB bounds a
#: runaway/hostile client without constraining legitimate sessions.
#: Responses are not capped: an answer is as large as its candidate set.
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ValueError):
    """A malformed or over-limit request; the connection answers 400 and closes."""


@dataclass
class HttpRequest:
    """One parsed request: method, split path, query args, headers, raw body."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""

    #: ``path`` split on "/" with empty segments dropped, e.g.
    #: ``/sessions/ab12/queries`` -> ``("sessions", "ab12", "queries")``.
    segments: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.segments = tuple(
            unquote(part) for part in self.path.split("/") if part
        )

    def json(self):
        """The body decoded as JSON; :class:`ProtocolError` on invalid bytes."""
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from exc

    @property
    def content_type(self) -> str:
        """The body's media type, lower-cased, parameters dropped."""
        return self.headers.get("content-type", "").split(";")[0].strip().lower()

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on clean EOF between requests.

    Raises :class:`ProtocolError` for truncated/malformed request lines,
    targets and headers (a field name empty or holding whitespace),
    over-limit header blocks, any request ``Transfer-Encoding``, a
    ``Content-Length`` that is repeated or not plain ASCII digits, bodies
    beyond :data:`MAX_BODY_BYTES` and bodies shorter than their
    ``Content-Length``.
    """
    try:
        request_line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # the client closed an idle keep-alive connection
        raise ProtocolError("truncated request line") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("request line too long") from exc
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {request_line!r}")
    method, target, _version = parts

    headers: dict[str, str] = {}
    header_bytes = len(request_line)
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
            raise ProtocolError("truncated header block") from exc
        if line == b"\r\n":
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise ProtocolError("header block exceeds limit")
        name, sep, value = line.decode("latin-1").partition(":")
        # RFC 9112 §5.1: a field name is a non-empty token, so no whitespace
        # before the colon and no obs-fold line -- a proxy that reads
        # "Content-Length : 3" differently would frame the body differently.
        if not sep or not name or any(ch.isspace() for ch in name):
            raise ProtocolError(f"malformed header line: {line!r}")
        name = name.lower()
        if name == "content-length" and name in headers:
            raise ProtocolError("repeated Content-Length")
        headers[name] = value.strip()

    if "transfer-encoding" in headers:
        # Bodies are framed by Content-Length only (every client sends it);
        # reading another framing as zero bytes would parse the body as the
        # next request on this connection -- request smuggling (RFC 9112 §6.3).
        raise ProtocolError("Transfer-Encoding on a request is not supported")

    # RFC 9112 §6.3: 1*DIGIT only; int() would also take "+3", "1_0" or " 3".
    declared = headers.get("content-length", "0")
    if not (declared.isascii() and declared.isdigit()):
        raise ProtocolError(f"invalid Content-Length {declared!r}")
    length = int(declared)
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"body of {length} bytes exceeds limit")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"truncated body: {len(exc.partial)} of {length} bytes"
        ) from exc

    try:
        split = urlsplit(target)
        query = dict(parse_qsl(split.query))
    except ValueError as exc:  # e.g. "//[/x", an unterminated IPv6 host
        raise ProtocolError(f"malformed request target {target!r}: {exc}") from exc
    return HttpRequest(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


def _head(status: int, content_type: str, extra: dict[str, str] | None) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}", f"Content-Type: {content_type}"]
    for name, value in (extra or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n").encode("latin-1")


async def send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload,
    *,
    headers: dict[str, str] | None = None,
) -> None:
    """Write one complete JSON response (fixed Content-Length, keep-alive)."""
    await send_body(
        writer, status, json.dumps(payload).encode("utf-8"), "application/json",
        headers=headers,
    )


async def send_body(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str,
    *,
    headers: dict[str, str] | None = None,
) -> None:
    """Write one complete response of any media type (fixed Content-Length)."""
    writer.write(
        _head(status, content_type, headers)
        + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
        + body
    )
    await writer.drain()


async def start_chunked(
    writer: asyncio.StreamWriter,
    status: int = 200,
    *,
    content_type: str,
    headers: dict[str, str] | None = None,
) -> None:
    """Open a ``Transfer-Encoding: chunked`` response (a record stream)."""
    writer.write(
        _head(status, content_type, headers)
        + b"Transfer-Encoding: chunked\r\n\r\n"
    )
    await writer.drain()


async def send_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    """Write one chunk; each record (one frame) is sent as its own chunk so
    the client observes results as the server yields them, not at batch
    end."""
    if not data:
        return
    writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
    await writer.drain()


async def end_chunked(writer: asyncio.StreamWriter) -> None:
    """Terminate a chunked response."""
    writer.write(b"0\r\n\r\n")
    await writer.drain()
