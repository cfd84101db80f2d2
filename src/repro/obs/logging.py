"""Structured JSON logging with per-request correlation ids.

One stdlib-``logging`` formatter, one context variable.  Every log line
becomes a single JSON object (``ts``/``level``/``logger``/``message``
plus any ``extra=`` fields the call site attached), and every line
emitted while a request is in scope carries that request's
``request_id`` — the same id the serve layer returns in the
``X-Request-Id`` response header and stamps on sampled span trees — so
a slow deposit can be joined across log lines, spans, and metrics with
one grep.

The correlation id rides a :class:`contextvars.ContextVar`.  The serve
dispatcher sets it on the event-loop task for the duration of a request;
the single-writer thread re-enters it (:func:`request_context`) around
each queued op it applies, so log lines *and* bus-event handlers running
on the writer thread see the id of the request that enqueued the op —
the id crosses the writer-queue boundary with the op, not with the
thread.

Nothing here configures global logging behind your back:
:func:`configure_json_logging` is an explicit opt-in (the ``--log-json``
CLI flag calls it), and :class:`CorrelationFilter` only *adds* a field.
"""

from __future__ import annotations

import contextlib
import json
import logging
import sys
import time
from contextvars import ContextVar
from typing import Any, Dict, Iterator, Optional, TextIO

__all__ = [
    "JsonFormatter",
    "CorrelationFilter",
    "configure_json_logging",
    "current_request_id",
    "request_context",
]

#: the in-scope request id (``None`` outside any request)
_request_id_var: ContextVar[Optional[str]] = ContextVar(
    "repro_request_id", default=None
)


def current_request_id() -> Optional[str]:
    """The correlation id of the request in scope, if any."""
    return _request_id_var.get()


@contextlib.contextmanager
def request_context(request_id: Optional[str]) -> Iterator[None]:
    """Enter ``request_id``'s correlation scope for the ``with`` body.

    Used by the serve dispatcher around each handler and by the writer
    thread around each queued op it applies; nesting restores the outer
    id on exit.  A ``None`` id clears the scope.
    """
    token = _request_id_var.set(request_id)
    try:
        yield
    finally:
        _request_id_var.reset(token)


#: every attribute a bare LogRecord carries — anything else on the
#: record arrived via ``extra=`` and belongs in the JSON line
_RESERVED = frozenset(
    vars(
        logging.LogRecord("x", logging.INFO, __file__, 0, "", (), None)
    )
) | {"message", "asctime", "taskName"}


class CorrelationFilter(logging.Filter):
    """Stamp the in-scope ``request_id`` onto records that lack one.

    A ``filter`` rather than formatter logic so the id is also visible
    to any *other* handler attached to the same logger.  Never rejects
    a record.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        if getattr(record, "request_id", None) is None:
            record.request_id = current_request_id()
        return True


class JsonFormatter(logging.Formatter):
    """One JSON object per line: ``ts`` (epoch seconds), ``level``,
    ``logger``, ``message``, ``request_id`` when in scope, then every
    ``extra=`` field the call site attached (sorted by key; values that
    are not JSON-serializable render via ``str``).  Exceptions land in
    an ``exc`` field as the usual traceback text."""

    def format(self, record: logging.LogRecord) -> str:
        line: Dict[str, Any] = {
            "ts": record.created,
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        request_id = getattr(record, "request_id", None)
        if request_id is None:
            request_id = current_request_id()
        if request_id is not None:
            line["request_id"] = request_id
        for key in sorted(vars(record)):
            if key in _RESERVED or key.startswith("_") or key == "request_id":
                continue
            line[key] = getattr(record, key)
        if record.exc_info:
            line["exc"] = self.formatException(record.exc_info)
        return json.dumps(line, default=str, separators=(",", ":"))

    def formatTime(self, record, datefmt=None):  # pragma: no cover - unused
        return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(record.created))


def configure_json_logging(
    stream: Optional[TextIO] = None,
    logger: str = "repro",
    level: int = logging.INFO,
) -> logging.Handler:
    """Attach a JSON-formatting handler (with correlation-id stamping)
    to ``logger`` and return it — detach with
    ``logging.getLogger(logger).removeHandler(handler)``.

    The default target is the root ``repro`` logger, so every subsystem
    (``repro.serve``, ``repro.obs``) emits through
    one formatter; ``stream`` defaults to stderr.
    """
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonFormatter())
    handler.addFilter(CorrelationFilter())
    target = logging.getLogger(logger)
    target.addHandler(handler)
    if target.level == logging.NOTSET or target.level > level:
        target.setLevel(level)
    return handler
