"""Wire protocol between agents and the consolidation server.

Every message travels as a frame: a 4-byte big-endian unsigned payload
length followed by a UTF-8 JSON payload carrying a "type" discriminator.
``compact_json`` writes the payload: token-prompt values at their stored
precision (9 significant digits for f32, 5 for f16), keys, queries and
everything else as ``json.dumps`` writes them (floats in full float64).

A decoded message re-encodes to the same bytes, and every prompt value
decodes to the stored-precision array it was encoded from, bit for bit.
So decode_message(encode_message(m)) == m for every variant whose reply
entries are plain JSON data; a server reply's entries carry the pool's
TokenPrompts and decode to the entries' ``PoolEntry.to_dict()``. The
server sends each reply entry pre-encoded (a read-only ``EncodedDict``,
written verbatim), in the same bytes the entry's ``wire_dict`` encodes to.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

from ..errors import AdaptflyError, ProtocolError
from ..prompts import TokenPrompt, compact_json, number_vector

__all__ = [
    "UploadPrompt",
    "RegisterDeferred",
    "Query",
    "QueryResponse",
    "RefineTick",
    "FleetMessage",
    "encode_message",
    "decode_message",
    "read_frame",
]

HEADER_SIZE = 4


@dataclass(frozen=True)
class UploadPrompt:
    """A freshly distilled prompt headed for the global pool."""

    key: tuple[float, ...]
    value: TokenPrompt
    timestamp: int
    agent_id: str
    domain_tag: str | None = None


@dataclass(frozen=True)
class RegisterDeferred:
    """Key-only registration; the prompt is distilled on demand later."""

    query: tuple[float, ...]
    agent_id: str
    timestamp: int
    domain_tag: str | None = None


@dataclass(frozen=True)
class Query:
    """Top-N retrieval request against the pool."""

    query: tuple[float, ...]
    n: int
    request_id: int


@dataclass(frozen=True)
class QueryResponse:
    """Ordered retrieval results as serialized pool entries.

    The server sends ``PoolEntry.wire_dict``s, pre-encoded as read-only
    ``EncodedDict``s that it may send again in later replies; a decoded
    reply holds the same entries as plain ``to_dict`` data.
    """

    request_id: int
    entries: tuple[dict, ...]


@dataclass(frozen=True)
class RefineTick:
    """Consolidation trigger; carries no payload."""


FleetMessage = UploadPrompt | RegisterDeferred | Query | QueryResponse | RefineTick


def _payload(msg: FleetMessage) -> dict:
    if isinstance(msg, UploadPrompt):
        return {
            "type": "upload_prompt",
            "key": list(msg.key),
            "value": msg.value,
            "timestamp": msg.timestamp,
            "agent_id": msg.agent_id,
            "domain_tag": msg.domain_tag,
        }
    if isinstance(msg, RegisterDeferred):
        return {
            "type": "register_deferred",
            "query": list(msg.query),
            "agent_id": msg.agent_id,
            "timestamp": msg.timestamp,
            "domain_tag": msg.domain_tag,
        }
    if isinstance(msg, Query):
        return {
            "type": "query",
            "query": list(msg.query),
            "n": msg.n,
            "request_id": msg.request_id,
        }
    if isinstance(msg, QueryResponse):
        return {
            "type": "query_response",
            "request_id": msg.request_id,
            "entries": list(msg.entries),
        }
    if isinstance(msg, RefineTick):
        return {"type": "refine_tick"}
    raise ProtocolError(f"cannot encode {type(msg).__name__}")


def encode_message(msg: FleetMessage) -> bytes:
    """Frame a message: length header plus compact JSON payload."""
    payload = compact_json(_payload(msg)).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


_INT64 = range(-(2**63), 2**63)


def _fail(message: str):
    raise ProtocolError(message, offset=HEADER_SIZE)


def _int(d: dict, name: str) -> int:
    x = d.get(name)
    if type(x) is not int or x not in _INT64:
        _fail(f"field {name!r} must be a 64-bit integer")
    return x


def _str(d: dict, name: str, optional: bool = False) -> str | None:
    x = d.get(name)
    if not (isinstance(x, str) or (optional and x is None)):
        _fail(f"field {name!r} must be a string" + (" or null" if optional else ""))
    return x


def _vector(d: dict, name: str) -> tuple[float, ...]:
    try:
        return tuple(number_vector(d.get(name), f"field {name!r}").tolist())
    except AdaptflyError as exc:
        raise ProtocolError(str(exc), offset=HEADER_SIZE) from exc


def _from_payload(d: dict) -> FleetMessage:
    """Build a message from a decoded payload, checking every field."""
    kind = d.get("type")
    if kind == "upload_prompt":
        try:
            value = TokenPrompt.from_dict(d.get("value"))
        except AdaptflyError as exc:
            raise ProtocolError(f"field 'value': {exc}", offset=HEADER_SIZE) from exc
        return UploadPrompt(
            key=_vector(d, "key"),
            value=value,
            timestamp=_int(d, "timestamp"),
            agent_id=_str(d, "agent_id"),
            domain_tag=_str(d, "domain_tag", optional=True),
        )
    if kind == "register_deferred":
        return RegisterDeferred(
            query=_vector(d, "query"),
            agent_id=_str(d, "agent_id"),
            timestamp=_int(d, "timestamp"),
            domain_tag=_str(d, "domain_tag", optional=True),
        )
    if kind == "query":
        return Query(query=_vector(d, "query"), n=_int(d, "n"), request_id=_int(d, "request_id"))
    if kind == "query_response":
        entries = d.get("entries")
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            _fail("field 'entries' must be a list of objects")
        return QueryResponse(request_id=_int(d, "request_id"), entries=tuple(entries))
    if kind == "refine_tick":
        return RefineTick()
    raise ProtocolError(f"unknown message type {kind!r}", offset=HEADER_SIZE)


def decode_message(frame: bytes) -> FleetMessage:
    """Parse a single complete frame back into a message."""
    if len(frame) < HEADER_SIZE:
        raise ProtocolError("frame shorter than length header", offset=len(frame))
    (declared,) = struct.unpack(">I", frame[:HEADER_SIZE])
    body = frame[HEADER_SIZE:]
    if len(body) < declared:
        raise ProtocolError(
            f"payload truncated: header declares {declared} bytes, got {len(body)}",
            offset=len(frame),
        )
    if len(body) > declared:
        raise ProtocolError("trailing bytes after payload", offset=HEADER_SIZE + declared)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON payload: {exc}", offset=HEADER_SIZE) from exc
    if not isinstance(payload, dict):
        raise ProtocolError("payload must be a JSON object", offset=HEADER_SIZE)
    return _from_payload(payload)


def read_frame(read) -> bytes:
    """Pull one complete frame from ``read(n) -> bytes`` (a byte stream)."""
    header = read(HEADER_SIZE)
    if len(header) < HEADER_SIZE:
        raise ProtocolError("stream ended inside length header", offset=len(header))
    (declared,) = struct.unpack(">I", header)
    body = read(declared)
    if len(body) < declared:
        raise ProtocolError(
            f"stream ended inside payload ({len(body)}/{declared} bytes)",
            offset=HEADER_SIZE + len(body),
        )
    return header + body
