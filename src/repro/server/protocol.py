"""The wire protocol of the verification server: newline-delimited JSON.

One *frame* is one UTF-8 JSON object terminated by ``\\n`` — trivially
parseable from every language, debuggable with ``nc``, and streamable in
both directions over TCP or a unix domain socket.  Requests and responses
are correlated by a client-chosen ``id``, so a client may pipeline many
requests over one connection and the server may answer them out of order
(responses are written as jobs complete).

Request frame::

    {"id": 7, "method": "check", "params": {"job": {...}, "timeout": 10.0}}

Response frame (exactly one per request)::

    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": {"code": "timeout", "message": "..."}}

Methods (see ``docs/server.md`` for the full schema):

``ping``
    Liveness probe; returns ``protocol_version``, ``uptime_seconds`` and
    ``pid`` (so fleet tooling can detect restarts), plus ``draining``.
``check``
    Run one equivalence check.  ``params.job`` is the
    :meth:`repro.service.job.VerificationJob.to_dict` schema (the same one
    JSON job files use); ``params.timeout`` is this request's wall-clock
    budget in seconds.  The result is the
    :meth:`repro.service.job.JobResult.to_dict` form.  With
    ``params.trace: true`` the server runs the check under a per-request
    root span tagged with the request id and attaches the finished
    server-side span records to the result as ``trace: {"spans": [...],
    "pid": N}``, so the client can merge them into its own timeline.
``stats``
    The server's deep observability snapshot (versioned by
    ``schema_version``): lifetime counters, pool/compiled-store/verdict-
    cache occupancy, opcache + persistent-tier counters, solver-backend
    query counts, latency histograms and the slow-request summary.
    ``params.format: "prometheus"`` returns ``{"format": "prometheus",
    "content_type": ..., "text": ...}`` in exposition format 0.0.4 instead;
    ``params.slow: true`` embeds the captured slow-request records.
``reset``
    Drop all warm state: verdict cache and compiled artifacts.
``shutdown``
    Ask the server to drain and exit (same path as ``SIGTERM``).

A malformed frame never kills the connection silently: the server answers
with an ``id: null`` error frame (``parse_error`` / ``invalid_request``) and
keeps reading.  The one exception is an oversized frame — the stream is no
longer self-synchronising past :data:`MAX_FRAME_BYTES`, so the server sends
``frame_too_large`` and closes that connection (the listener stays up).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ERROR_PARSE",
    "ERROR_INVALID_REQUEST",
    "ERROR_FRAME_TOO_LARGE",
    "ERROR_UNKNOWN_METHOD",
    "ERROR_RATE_LIMITED",
    "ERROR_SHUTTING_DOWN",
    "ERROR_INTERNAL",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "request_frame",
    "ok_response",
    "error_response",
    "validate_request",
]

#: Bump when the frame schema changes incompatibly.
PROTOCOL_VERSION = 1

#: Default ceiling on one frame's encoded size.  Generous (a job carries two
#: whole programs as source text) but bounded: an unbounded ``readuntil``
#: would let one client buffer the server into the ground.
MAX_FRAME_BYTES = 4 * 1024 * 1024

ERROR_PARSE = "parse_error"
ERROR_INVALID_REQUEST = "invalid_request"
ERROR_FRAME_TOO_LARGE = "frame_too_large"
ERROR_UNKNOWN_METHOD = "unknown_method"
ERROR_RATE_LIMITED = "rate_limited"
ERROR_SHUTTING_DOWN = "shutting_down"
ERROR_INTERNAL = "internal_error"


class ProtocolError(Exception):
    """A frame the server (or client) cannot accept, with its error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialise one frame (compact JSON + newline terminator)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes, max_bytes: int = MAX_FRAME_BYTES) -> Dict[str, Any]:
    """Parse one received line into a frame object.

    Raises :class:`ProtocolError` (``frame_too_large`` / ``parse_error`` /
    ``invalid_request``) instead of letting ``json`` or ``UnicodeDecodeError``
    escape, so the caller can always turn a bad frame into a structured
    error response.
    """
    if len(line) > max_bytes:
        raise ProtocolError(
            ERROR_FRAME_TOO_LARGE, f"frame of {len(line)} bytes exceeds the {max_bytes} byte limit"
        )
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(ERROR_PARSE, f"malformed JSON frame: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            ERROR_INVALID_REQUEST, f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def request_frame(
    method: str, params: Optional[Dict[str, Any]] = None, id: Any = None
) -> Dict[str, Any]:
    """Build a request frame (the client side of :func:`validate_request`)."""
    frame: Dict[str, Any] = {"id": id, "method": method}
    if params is not None:
        frame["params"] = params
    return frame


def ok_response(id: Any, result: Any) -> Dict[str, Any]:
    return {"id": id, "ok": True, "result": result}


def error_response(id: Any, code: str, message: str) -> Dict[str, Any]:
    return {"id": id, "ok": False, "error": {"code": code, "message": message}}


def validate_request(payload: Dict[str, Any]) -> Tuple[Any, str, Dict[str, Any]]:
    """Check a decoded frame's request shape; returns ``(id, method, params)``.

    The ``id`` is returned even when validation fails further along (it is
    carried inside the raised :class:`ProtocolError` message's response by
    the caller, which extracts it before calling here) — so this function
    only raises after the shape is beyond salvage.
    """
    request_id = payload.get("id")
    method = payload.get("method")
    if not isinstance(method, str) or not method:
        raise ProtocolError(ERROR_INVALID_REQUEST, "request frame is missing a 'method' string")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            ERROR_INVALID_REQUEST, f"'params' must be an object, got {type(params).__name__}"
        )
    return request_id, method, params
