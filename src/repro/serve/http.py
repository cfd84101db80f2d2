"""Minimal HTTP/1.1 plumbing over ``asyncio`` streams.

Deliberately ``http.server``-grade: just enough of RFC 7230 for a JSON
service on a trusted network segment — request-line + header parsing
with hard size limits, ``Content-Length`` bodies (no transfer coding:
a request naming one is refused, as are a malformed or conflicting
``Content-Length``, per RFC 7230 §3.3), keep-alive by default for
HTTP/1.1, and a tiny response builder.  No routing framework, no
middleware; the service routes by ``(method, path)`` itself.

Everything here is transport: :class:`HttpError` is how handlers signal
a non-200 outcome (the connection loop renders it as the standard JSON
error envelope and keeps the connection alive), and
:func:`json_response` / :func:`error_response` build complete response
byte strings ready for one ``writer.write``.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "HttpError",
    "Request",
    "read_request",
    "json_body",
    "json_response",
    "text_response",
    "error_response",
    "with_header",
]

#: request-line / single-header size cap (bytes)
MAX_LINE = 8192
#: header line cap (repeated names count once per line)
MAX_HEADERS = 64
#: request body cap (bytes) — XML documents are small; 8 MiB is generous
MAX_BODY = 8 * 1024 * 1024
#: ``Content-Length = 1*DIGIT`` (RFC 7230 §3.3.2): ASCII digits only
_DIGITS = re.compile(r"[0-9]+")
#: ASCII whitespace, which a field name may not contain (RFC 7230 §3.2.4)
_WHITESPACE = re.compile(rb"\s")

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

Headers = Sequence[Tuple[str, str]]


class HttpError(Exception):
    """A handler-raised HTTP outcome (rendered as the JSON envelope
    ``{"error": <message>}`` with ``status``)."""

    def __init__(self, status: int, message: str, headers: Headers = ()):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = tuple(headers)


class Request:
    """One parsed request."""

    __slots__ = ("method", "path", "version", "headers", "body", "query")

    def __init__(
        self,
        method: str,
        path: str,
        version: str,
        headers: Dict[str, str],
        body: bytes,
        query: str = "",
    ):
        self.method = method
        self.path = path
        self.version = version
        #: header names lower-cased; duplicate headers keep the last value
        #: (a repeated ``Content-Length`` must repeat the same value)
        self.headers = headers
        self.body = body
        #: the raw query string (no leading ``?``); routing ignores it
        self.query = query

    def query_int(self, name: str, default: int) -> int:
        """A single integer query parameter (``?n=25``); ``default`` on
        absence or malformed values — debug knobs must not 400."""
        for pair in self.query.split("&"):
            key, separator, value = pair.partition("=")
            if separator and key == name:
                try:
                    return int(value)
                except ValueError:
                    return default
        return default

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def __repr__(self) -> str:
        return f"Request({self.method} {self.path}, {len(self.body)}B)"


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return b""  # clean EOF between requests
        raise HttpError(400, "truncated request")
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request line too long")
    if len(line) > MAX_LINE:
        raise HttpError(400, "request line too long")
    return line[:-2]


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` on malformed input (the caller renders it
    and closes the connection — a client that framed one request wrong
    cannot be trusted to frame the next one right).
    """
    request_line = await _read_line(reader)
    if not request_line:
        return None
    # split the bytes: only ASCII whitespace separates (latin-1 text
    # would also split on \xa0 and \x85)
    parts = request_line.split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method, target, version = (part.decode("latin-1") for part in parts)
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HttpError(400, f"unsupported protocol {version}")
    headers: Dict[str, str] = {}
    for count in range(MAX_HEADERS + 1):
        line = await _read_line(reader)
        if not line:
            break
        if count == MAX_HEADERS:
            raise HttpError(400, "too many headers")
        name, separator, value = line.partition(b":")
        if not separator:
            raise HttpError(400, "malformed header")
        # a field name is a token: empty, or with whitespace before the
        # colon or before the first header, it is a 400 (RFC 7230 §3,
        # §3.2.4); the value's optional whitespace is SP/HTAB only
        if not name or _WHITESPACE.search(name):
            raise HttpError(400, "malformed header name")
        name = name.decode("latin-1").lower()
        value = value.decode("latin-1").strip(" \t")
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(400, "conflicting Content-Length")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise HttpError(400, "transfer codings are not supported")
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        if not _DIGITS.fullmatch(length_header):
            raise HttpError(400, "malformed Content-Length")
        try:
            length = int(length_header)
        except ValueError:  # past int()'s limit of 4,300 digits
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY:
            raise HttpError(413, "request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "truncated request body")
    # strip any query string; the service routes on the bare path
    path, _, query = target.partition("?")
    return Request(method, path, version, headers, body, query)


def json_body(request: Request) -> Any:
    """The request body as parsed JSON (400 on anything else, including
    arrays or objects nested deeper than the decoder recurses)."""
    if not request.body:
        raise HttpError(400, "expected a JSON request body")
    try:
        return json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise HttpError(400, f"invalid JSON body: {error}")
    except RecursionError:
        raise HttpError(400, "invalid JSON body: nested too deeply")


def _response(
    status: int,
    payload: bytes,
    content_type: str,
    headers: Headers,
    keep_alive: bool,
) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines: List[str] = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in headers:
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + payload


def json_response(
    status: int, body: Any, headers: Headers = (), keep_alive: bool = True
) -> bytes:
    """A complete JSON response, ready to write."""
    payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
    return _response(status, payload, "application/json", headers, keep_alive)


def text_response(
    status: int, text: str, headers: Headers = (), keep_alive: bool = True
) -> bytes:
    """A complete plain-text response (``/metrics`` exposition)."""
    return _response(
        status,
        text.encode("utf-8"),
        "text/plain; version=0.0.4; charset=utf-8",
        headers,
        keep_alive,
    )


def with_header(response: bytes, name: str, value: str) -> bytes:
    """Splice one header into an already built response.

    Handlers return complete response byte strings; the dispatcher uses
    this to stamp cross-cutting headers (``X-Request-Id``) without every
    handler having to thread them through.
    """
    head, separator, _body = response.partition(b"\r\n")
    if not separator:  # pragma: no cover - responses are always well-formed
        return response
    extra = f"{name}: {value}\r\n".encode("latin-1")
    return head + b"\r\n" + extra + _body


def error_response(error: HttpError, keep_alive: bool = True) -> bytes:
    """The standard error envelope for a handler-raised outcome."""
    return json_response(
        error.status,
        {"error": error.message, "status": error.status},
        error.headers,
        keep_alive,
    )
