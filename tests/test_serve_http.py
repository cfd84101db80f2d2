"""Request framing of ``repro.serve.http.read_request``, and JSON
bodies the decoder cannot take.

The parser is fed through an ``asyncio.StreamReader`` (no sockets), so
every row states exactly which bytes arrive and what comes out: the
list of requests parsed back to back, ending at a clean EOF (``None``)
or at the first :class:`HttpError`, which closes the connection.

- **Framing faults** — inputs that must be refused whole (RFC 7230
  §3, §3.2.4, §3.3): more than ``MAX_HEADERS`` header *lines* (repeated
  names included), a ``Content-Length`` that is not ``1*DIGIT``, two
  ``Content-Length`` fields that disagree, any ``Transfer-Encoding``,
  whitespace in a field name, and non-ASCII "whitespace" (``\xa0``,
  ``\x85``) taken as a separator.
- **Pinned behaviour** — the limits and splits that already held.
- **Properties** — random bytes over an HTTP token alphabet yield only
  requests, ``None`` or ``HttpError``; well-formed requests sent back to
  back parse back to the same list.
- **Deep JSON** — a body nested past the decoder's recursion limit is a
  400 on every JSON endpoint of a running service, and the connection
  serves the next request.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.http import (
    MAX_BODY,
    MAX_HEADERS,
    MAX_LINE,
    HttpError,
    Request,
    read_request,
)


def parse_stream(data: bytes):
    """Every request ``read_request`` takes off ``data`` in turn, then
    the terminator: ``None`` (clean EOF) or the raised ``HttpError``."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        requests = []
        while True:
            try:
                request = await read_request(reader)
            except HttpError as error:
                return requests, error
            if request is None:
                return requests, None
            requests.append(request)

    return asyncio.run(run())


def _request(*lines: str, body: bytes = b"") -> bytes:
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _view(request: Request):
    return (
        request.method, request.path, request.query, request.version,
        request.headers, request.body,
    )


# ----------------------------------------------------------------------
# Framing faults: refused on the first request
# ----------------------------------------------------------------------

FRAMING_FAULTS = [
    pytest.param(
        # repeated names count once per line toward the cap, so the
        # line after them is never read as a second request line
        _request("GET /a HTTP/1.1", *["X: 1"] * 65, "X-A: /debug/vars HTTP/1.1"),
        "too many headers",
        id="65-duplicate-header-lines",
    ),
    pytest.param(
        # a Content-Length past the cap is never skipped with its body
        # left to be read as the next request
        _request(
            "POST /deposit HTTP/1.1", *["X: 1"] * 70, "Content-Length: 16",
            body=b"GET /a HTTP/1.1\r\n",
        ),
        "too many headers",
        id="content-length-past-the-cap",
    ),
    pytest.param(
        _request("POST /a HTTP/1.1", "Content-Length: +3", body=b"abc"),
        "malformed Content-Length",
        id="content-length-plus-sign",
    ),
    pytest.param(
        _request("POST /a HTTP/1.1", "Content-Length: 1_0", body=b"0123456789"),
        "malformed Content-Length",
        id="content-length-underscore",
    ),
    pytest.param(
        _request("POST /a HTTP/1.1", "Content-Length: -0"),
        "malformed Content-Length",
        id="content-length-minus-zero",
    ),
    pytest.param(
        _request(
            "POST /a HTTP/1.1", "Content-Length: 3", "Content-Length: 4",
            body=b"abcd",
        ),
        "conflicting Content-Length",
        id="conflicting-content-length",
    ),
    pytest.param(
        _request(
            "POST /a HTTP/1.1", "Transfer-Encoding: chunked",
            "Content-Length: 3", body=b"abc",
        ),
        "transfer codings are not supported",
        id="transfer-encoding-beside-content-length",
    ),
    pytest.param(
        # an empty field names no coding, but it is still a
        # Transfer-Encoding field
        _request("POST /a HTTP/1.1", "Transfer-Encoding:"),
        "transfer codings are not supported",
        id="transfer-encoding-empty",
    ),
    pytest.param(
        # optional whitespace around a value is SP/HTAB only
        _request("POST /a HTTP/1.1", "Content-Length: 3\xa0", body=b"abc"),
        "malformed Content-Length",
        id="content-length-trailing-nbsp",
    ),
    pytest.param(
        # the request line splits on ASCII whitespace only
        _request("GET\xa0/a\x85HTTP/1.1"),
        "malformed request line",
        id="request-line-non-ascii-separators",
    ),
    pytest.param(
        _request("POST /a HTTP/1.1", "Content-Length : 3", body=b"abc"),
        "malformed header name",
        id="whitespace-before-the-colon",
    ),
    pytest.param(
        _request("POST /a HTTP/1.1", " Content-Length: 3", body=b"abc"),
        "malformed header name",
        id="whitespace-before-the-first-header",
    ),
    pytest.param(
        _request("GET /a HTTP/1.1", ": x"),
        "malformed header name",
        id="empty-header-name",
    ),
]


@pytest.mark.parametrize("data, message", FRAMING_FAULTS)
def test_framing_fault_is_refused(data, message):
    requests, error = parse_stream(data)
    assert requests == []
    assert isinstance(error, HttpError)
    assert (error.status, error.message) == (400, message)


def test_repeated_equal_content_length_is_accepted():
    data = _request(
        "POST /a HTTP/1.1", "Content-Length: 3", "content-length: 3", body=b"abc"
    )
    [request], error = parse_stream(data)
    assert error is None
    assert request.body == b"abc"


# ----------------------------------------------------------------------
# Pinned behaviour
# ----------------------------------------------------------------------


def test_sixty_four_headers_are_accepted():
    lines = [f"X-{index}: {index}" for index in range(MAX_HEADERS - 1)]
    data = _request("POST /a HTTP/1.1", *lines, "Content-Length: 2", body=b"ok")
    [request], error = parse_stream(data)
    assert error is None
    assert len(request.headers) == MAX_HEADERS
    assert request.body == b"ok"


PINNED_ERRORS = [
    pytest.param(_request("GET /a"), 400, "malformed request line", id="two-parts"),
    pytest.param(
        _request("GET / a HTTP/1.1"), 400, "malformed request line", id="four-parts"
    ),
    pytest.param(
        _request("GET /a HTTP/2.0"), 400, "unsupported protocol HTTP/2.0",
        id="unsupported-protocol",
    ),
    pytest.param(
        _request("GET /" + "a" * MAX_LINE + " HTTP/1.1"), 400,
        "request line too long", id="long-request-line",
    ),
    pytest.param(
        _request("GET /a HTTP/1.1", "X: " + "a" * (70 * 1024)), 400,
        "request line too long", id="header-past-the-stream-limit",
    ),
    pytest.param(
        _request("GET /a HTTP/1.1", "no colon here"), 400, "malformed header",
        id="malformed-header",
    ),
    pytest.param(
        _request("POST /a HTTP/1.1", f"Content-Length: {MAX_BODY + 1}"), 413,
        "request body too large", id="body-too-large",
    ),
    pytest.param(
        _request("POST /a HTTP/1.1", "Content-Length: 10", body=b"short"), 400,
        "truncated request body", id="truncated-body",
    ),
    pytest.param(b"GET /a HTTP/1.1\r\nHost", 400, "truncated request",
                 id="truncated-head"),
    pytest.param(
        _request("POST /a HTTP/1.1", "Transfer-Encoding: chunked"), 400,
        "transfer codings are not supported", id="transfer-encoding-alone",
    ),
]


@pytest.mark.parametrize("data, status, message", PINNED_ERRORS)
def test_pinned_rejections(data, status, message):
    requests, error = parse_stream(data)
    assert requests == []
    assert (error.status, error.message) == (status, message)


def test_clean_eof_reads_none():
    assert parse_stream(b"") == ([], None)
    [request], error = parse_stream(_request("GET /healthz HTTP/1.1"))
    assert error is None and request.path == "/healthz"


def test_query_is_split_off_the_path():
    [request], _ = parse_stream(_request("GET /debug/slow?n=5&x HTTP/1.0"))
    assert (request.path, request.query) == ("/debug/slow", "n=5&x")
    assert request.query_int("n", 10) == 5
    assert request.query_int("x", 10) == 10
    assert not request.keep_alive  # HTTP/1.0 without keep-alive


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

#: fragments random request streams are spliced from: request-line and
#: header vocabulary, separators, digits and signs
TOKENS = [
    b"GET", b"POST", b" ", b"\t", b"/", b"/deposit", b"?n=1", b"HTTP/1.1",
    b"HTTP/1.0", b"HTTP/2", b"\r\n", b"\r\n\r\n", b"\r", b"\n", b":",
    b"Content-Length", b"content-length", b"Transfer-Encoding", b"chunked",
    b"Connection", b"close", b"0", b"1", b"7", b"12", b"+", b"-", b"_",
    b"x", b"\xff", b"\x00",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=60))
def test_random_token_streams_parse_or_raise_http_errors(fragments):
    requests, error = parse_stream(b"".join(fragments))
    assert all(isinstance(request, Request) for request in requests)
    assert error is None or isinstance(error, HttpError)


_NAME = st.text(string.ascii_letters + string.digits + "-_.", min_size=1, max_size=12)
_VALUE = st.text(string.ascii_letters + string.digits + "-_.;,=/ :", max_size=20)


@st.composite
def well_formed_requests(draw):
    method = draw(st.sampled_from(["GET", "POST", "PUT", "DELETE"]))
    path = "/" + draw(st.text(string.ascii_lowercase + string.digits + "/._-",
                              max_size=16))
    query = draw(st.one_of(
        st.none(), st.text(string.ascii_lowercase + string.digits + "=&", max_size=10)
    ))
    version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))
    fields = draw(st.lists(st.tuples(_NAME, _VALUE), max_size=8))
    fields = [
        (name, value.strip()) for name, value in fields
        if name.lower() not in ("content-length", "transfer-encoding")
    ]
    body = draw(st.binary(max_size=64))
    if body or draw(st.booleans()):
        fields.append(("Content-Length", str(len(body))))
    target = path if query is None else f"{path}?{query}"
    wire = _request(
        f"{method} {target} {version}",
        *(f"{name}: {value}" for name, value in fields),
        body=body,
    )
    headers = {name.lower(): value for name, value in fields}
    return wire, (method, path, query or "", version, headers, body)


@settings(max_examples=200, deadline=None)
@given(st.lists(well_formed_requests(), max_size=5))
def test_back_to_back_requests_parse_back(batch):
    requests, error = parse_stream(b"".join(wire for wire, _ in batch))
    assert error is None
    assert [_view(request) for request in requests] == [view for _, view in batch]


# ----------------------------------------------------------------------
# Deep JSON: a 400, and the connection stays usable
# ----------------------------------------------------------------------


@pytest.mark.parametrize("path", ["/classify", "/deposit", "/evolve"])
def test_deeply_nested_json_answers_400(path):
    from repro.serve import ServeConfig, ServiceRunner

    from tests.serve_utils import figure3_source

    depth = 100_000  # a 200 kB body, far past the decoder's recursion limit
    nested = b"[" * depth + b"]" * depth
    probe = json.dumps({"xml": "<a><b>x</b><c>y</c></a>"})
    source = figure3_source()
    try:
        with ServiceRunner(source, ServeConfig()) as runner:
            conn = http.client.HTTPConnection("127.0.0.1", runner.port, timeout=10)
            try:
                conn.request("POST", path, body=nested,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 400, body
                assert body["error"] == "invalid JSON body: nested too deeply"
                assert response.getheader("Connection") == "keep-alive"
                sock = conn.sock
                conn.request("POST", "/classify", body=probe,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 200, response.read()
                assert json.loads(response.read())["dtd"] == "figure3"
                assert conn.sock is sock  # the same connection answered
            finally:
                conn.close()
        assert source.documents_processed == 0
    finally:
        source.close()
