"""The wire protocol: line-delimited JSON frames over TCP.

One request or response per line, UTF-8 JSON objects terminated by
``\\n`` — trivially debuggable with ``nc`` and resynchronizable after a
malformed frame (the next newline starts a clean frame). Requests carry
a ``verb`` and an ``id`` the response echoes, so a client can pipeline
requests on one connection and correlate out-of-order responses.

Verbs (see :mod:`repro.serve.daemon` for semantics)::

    PING        {"verb": "PING", "id": 1}
    REGISTER    {"verb": "REGISTER", "id": 2, "name": "books", "xml": "<a/>"}
    UNREGISTER  {"verb": "UNREGISTER", "id": 3, "name": "books"}
    QUERY       {"verb": "QUERY", "id": 4, "query": "//b", "doc": "books",
                 "deadline_ms": 250, "output": "path"}
    BATCH       {"verb": "BATCH", "id": 5, "queries": ["//b", "count(//b)"],
                 "docs": ["books"], "deadline_ms": 1000}
    STATS       {"verb": "STATS", "id": 6}
    BYE         {"verb": "BYE", "id": 7}

Responses are ``{"id": ..., "ok": true, ...payload...}`` or
``{"id": ..., "ok": false, "error": {"code": CODE, "message": ...,
"retry_after": seconds-or-null}}`` where ``CODE`` is one of the stable
codes in :data:`repro.errors.PROTOCOL_CODES` — the same table the CLI
keys its exit codes on. ``retry_after`` is the server's backoff hint:
present on queue-pressure rejections (``OVERLOAD``, ``RATE_LIMITED``,
``QUOTA``), absent when retrying the same request cannot help (the
priced cost exceeds the request's own deadline).
"""

from __future__ import annotations

import json
from array import array

from repro.core.common import NodeSet
from repro.errors import ProtocolError, ReproError, error_code
from repro.xml.serializer import serialize_pre

#: Hard per-frame byte bound (requests and responses). Registration
#: payloads dominate frame size; 32 MiB comfortably fits every document
#: the benchmarks ship while bounding a malicious client's buffer use.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: The request verbs the daemon understands.
VERBS = ("PING", "REGISTER", "UNREGISTER", "QUERY", "BATCH", "STATS", "BYE")

#: The ways a node-set renders (:func:`render_value`); a request's
#: ``output`` names one, ``path`` when absent.
OUTPUT_STYLES = ("path", "xml", "value")


#: One compact encoder for every frame (``json.dumps`` builds one a call).
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_frame(payload: dict) -> bytes:
    """One frame: compact JSON + newline. Raises
    :class:`~repro.errors.ProtocolError` when the encoded frame would
    exceed :data:`MAX_FRAME_BYTES` (the receiver would reject it)."""
    line = _ENCODER.encode(payload).encode("utf-8") + b"\n"
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return line


def encode_payload(value, style: str = "path") -> bytes:
    """A result's reply payload, encoded once: :func:`render_value`'s
    members as they follow a response head's — ``,"kind":…}`` and the
    newline — so :func:`splice_reply` appends them as they are (a
    memoized result keeps them per style)."""
    return b"," + _ENCODER.encode(render_value(value, style))[1:].encode("utf-8") + b"\n"


def reply_head(**fields) -> bytes:
    """A QUERY reply's fixed part, encoded once: ``,"ok":true``, then
    ``fields`` in order, then ``,"elapsed_ms":`` — everything between the
    ``id`` and the clock reading (a memoized result keeps its hit's)."""
    return b"," + _ENCODER.encode({"ok": True, **fields})[1:-1].encode("utf-8") + b',"elapsed_ms":'


def splice_reply(request_id, head: bytes, elapsed_ms: float, payload: bytes) -> bytes:
    """One QUERY reply frame: the id, a :func:`reply_head`, ``elapsed_ms``
    and an :func:`encode_payload` payload, byte-identical to
    ``encode_frame({**ok_response(request_id, **fields, elapsed_ms=elapsed_ms),
    **render_value(value, style)})`` and bounded the same way; the payload is
    copied once."""
    # An int id (the common case) skips the encoder's general path.
    encoded = repr(request_id) if type(request_id) is int else _ENCODER.encode(request_id)
    line = b'{"id":' + encoded.encode("utf-8") + head + repr(elapsed_ms).encode("ascii") + payload
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return line


def decode_frame(line: bytes) -> dict:
    """Decode one received line into a frame dict. Raises
    :class:`~repro.errors.ProtocolError` for anything that is not a
    single JSON object: resynchronization is the caller's job (skip to
    the next newline), classification is ours."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed frame: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"malformed frame: expected a JSON object, got {type(payload).__name__}"
        )
    return payload


def render_value(value, style: str = "path") -> dict:
    """An XPath result as a JSON-safe payload: node-sets become rendered
    item lists (``path``/``value``/``xml`` styles), scalars keep their
    type tag; a node set, a :class:`~repro.core.common.NodeSet` or a
    public edge's ``list[Node]``, renders from its pres. The CLI prints
    every result through this payload, so its local and remote output
    are the same text."""
    if isinstance(value, list):
        document = value[0].document if value else None
        value = NodeSet(document, array("I", [node.pre for node in value]))
    if isinstance(value, NodeSet):
        document, pres = value.document, value.pres
        if style == "xml":
            items = [serialize_pre(document, pre) for pre in pres]
        elif style == "value":
            items = [document.string_value_of_pre(pre) for pre in pres]
        else:
            items = [document.path_of_pre(pre) for pre in pres]
        return {"kind": "node-set", "count": len(pres), "items": items}
    if isinstance(value, bool):
        return {"kind": "boolean", "value": value}
    if isinstance(value, (int, float)):
        return {"kind": "number", "value": float(value)}
    return {"kind": "string", "value": str(value)}


def ok_response(request_id, **payload) -> dict:
    return {"id": request_id, "ok": True, **payload}


def error_response(
    request_id,
    code: str,
    message: str,
    retry_after: float | None = None,
    **payload,
) -> dict:
    """A typed error response. ``code`` must be a stable protocol code;
    ``retry_after`` (seconds) is the backoff hint clients honor."""
    error = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {"id": request_id, "ok": False, "error": error, **payload}


def error_to_response(request_id, error: ReproError) -> dict:
    """Map a library error onto the wire via the stable code table."""
    return error_response(
        request_id,
        error_code(error),
        str(error),
        retry_after=getattr(error, "retry_after", None),
    )
