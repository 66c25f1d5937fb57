"""Wire protocol between agents and the consolidation server.

Every message travels as a frame: a 4-byte big-endian unsigned payload
length followed by a UTF-8 JSON payload carrying a "type" discriminator.
``compact_json`` writes the payload: every float64 vector (an upload's key,
a query, the key of a reply entry) as one JSON string,
the standard base64 of its little-endian float64 bytes; token-prompt
values as decimal numbers at their stored precision (9 significant digits
for f32, 5 for f16); everything else as ``json.dumps`` writes it. A vector
may also arrive as a JSON list of numbers, as frames carried it before.

Every vector and prompt value decodes to the array it was encoded from,
bit for bit, and a decoded request re-encodes to the same bytes. So
decode_message(encode_message(m)) == m for every variant whose reply
entries are plain JSON data; a server reply's entries carry the pool's
arrays and TokenPrompts and decode to the entries' ``PoolEntry.to_dict()``
(keys as number lists, prompts as dicts). The
server sends each reply entry pre-encoded (a read-only ``EncodedDict``,
written verbatim), in the same bytes the entry's ``wire_dict`` encodes
to, encoded once per entry it serves. A reply holds no deferred entry:
the server resolves or drops each one before it answers.

A client decodes each served entry once: ``decode_message(frame,
entries=cache)`` keeps every reply entry's exact text and the dict it
parsed to in the client's ``cache`` (an LRU of ``REPLY_CACHE_ENTRIES``
entry ids), and a later reply in ``compact_json``'s exact layout that holds
the same text at an entry's place reuses that dict. Any other frame is
parsed in full, so the message or ProtocolError does not depend on the
cache. Cached dicts are shared by every reply holding them: read-only by
contract, like the server's ``EncodedDict``.
"""

from __future__ import annotations

import json
import re
import struct
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import AdaptflyError, ProtocolError, parse_json
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
    "REPLY_CACHE_ENTRIES",
]

HEADER_SIZE = 4
# Reply entries a client keeps decoded. A served entry with a 4 x 48
# prompt costs about 12 kB (text plus parsed dict), so a full cache holds
# about 3 MB; the reference fleet and the benchmark's pool service each
# serve far fewer distinct entries per client.
REPLY_CACHE_ENTRIES = 256


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


def _array(xs: tuple[float, ...]) -> np.ndarray:
    """A vector field as the float64 array ``compact_json`` writes as base64."""
    return np.fromiter(xs, np.float64, len(xs))


def _payload(msg: FleetMessage) -> dict:
    if isinstance(msg, UploadPrompt):
        return {
            "type": "upload_prompt",
            "key": _array(msg.key),
            "value": msg.value,
            "timestamp": msg.timestamp,
            "agent_id": msg.agent_id,
            "domain_tag": msg.domain_tag,
        }
    if isinstance(msg, RegisterDeferred):
        return {
            "type": "register_deferred",
            "query": _array(msg.query),
            "agent_id": msg.agent_id,
            "timestamp": msg.timestamp,
            "domain_tag": msg.domain_tag,
        }
    if isinstance(msg, Query):
        return {
            "type": "query",
            "query": _array(msg.query),
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


def _vector(d: dict, name: str) -> list[float]:
    try:
        return number_vector(d.get(name), f"field {name!r}").tolist()
    except AdaptflyError as exc:
        raise ProtocolError(str(exc), offset=HEADER_SIZE) from exc


def _plain_entry(entry: dict) -> None:
    """Give a reply entry the key list ``PoolEntry.to_dict`` holds, in place.

    Only a key sent as vector text is touched, so an entry read once (and
    kept in a client's cache) is left as it is. Any other value is left for
    ``PoolEntry.from_dict`` to check, like every other field of an entry.
    """
    if type(entry.get("key")) is str:
        entry["key"] = _vector(entry, "key")


def _from_payload(d: dict) -> FleetMessage:
    """Build a message from a decoded payload, checking every field."""
    kind = d.get("type")
    if kind == "upload_prompt":
        try:
            value = TokenPrompt.from_dict(d.get("value"))
        except AdaptflyError as exc:
            raise ProtocolError(f"field 'value': {exc}", offset=HEADER_SIZE) from exc
        return UploadPrompt(
            key=tuple(_vector(d, "key")),
            value=value,
            timestamp=_int(d, "timestamp"),
            agent_id=_str(d, "agent_id"),
            domain_tag=_str(d, "domain_tag", optional=True),
        )
    if kind == "register_deferred":
        return RegisterDeferred(
            query=tuple(_vector(d, "query")),
            agent_id=_str(d, "agent_id"),
            timestamp=_int(d, "timestamp"),
            domain_tag=_str(d, "domain_tag", optional=True),
        )
    if kind == "query":
        return Query(
            query=tuple(_vector(d, "query")), n=_int(d, "n"), request_id=_int(d, "request_id")
        )
    if kind == "query_response":
        entries = d.get("entries")
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            _fail("field 'entries' must be a list of objects")
        for entry in entries:
            _plain_entry(entry)
        return QueryResponse(request_id=_int(d, "request_id"), entries=tuple(entries))
    if kind == "refine_tick":
        return RefineTick()
    raise ProtocolError(f"unknown message type {kind!r}", offset=HEADER_SIZE)


_REPLY_HEAD = '{"type":"query_response","request_id":'
_ENTRIES_HEAD = ',"entries":['
_ENTRY_ID = re.compile(r'\{"entry_id":(0|[1-9][0-9]{0,18}),')
_scan = json.JSONDecoder().raw_decode


def _reply_payload(text: str, cache: OrderedDict) -> dict | None:
    """The payload of a reply in ``compact_json``'s layout, entries via ``cache``.

    Only ``{"type":"query_response","request_id":N,"entries":[E,...]}``
    with no whitespace between those parts is read here; any other text
    gives None. An entry whose text at its place equals the text cached
    under its id is the cached dict. Any other entry is parsed with the
    ``json`` scanner and, if it starts with its id, cached under that id.
    Both give what ``json.loads`` gives for the text, so a payload
    returned equals ``json.loads(text)``.
    """
    if not text.startswith(_REPLY_HEAD):
        return None
    try:
        request_id, pos = _scan(text, len(_REPLY_HEAD))
        if not text.startswith(_ENTRIES_HEAD, pos):
            return None
        pos += len(_ENTRIES_HEAD)
        entries = []
        while not text.startswith("]", pos):
            if entries:
                if not text.startswith(",", pos):
                    return None
                pos += 1
            match = _ENTRY_ID.match(text, pos)
            entry_id = match and int(match[1])
            cached = cache.get(entry_id)
            if cached is not None and text.startswith(cached[0], pos):
                cache.move_to_end(entry_id)
                entry, end = cached[1], pos + len(cached[0])
            else:
                entry, end = _scan(text, pos)
                if match:
                    cache[entry_id] = (text[pos:end], entry)
                    cache.move_to_end(entry_id)
                    if len(cache) > REPLY_CACHE_ENTRIES:
                        cache.popitem(last=False)
            entries.append(entry)
            pos = end
    except (ValueError, RecursionError):  # malformed: json.loads reports it
        return None
    if text[pos:] != "]}":
        return None
    return {"type": "query_response", "request_id": request_id, "entries": entries}


def decode_message(frame: bytes, entries: OrderedDict | None = None) -> FleetMessage:
    """Parse a single complete frame back into a message.

    ``entries`` is a client's reply-entry cache (see the module
    docstring); the result is the same with or without it.
    """
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
    payload = None
    if entries is not None and body.isascii():  # compact_json writes only ASCII
        payload = _reply_payload(body.decode("ascii"), entries)
    if payload is None:
        payload = parse_json(body, ProtocolError, "invalid JSON payload", offset=HEADER_SIZE)
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
