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

Each client connection keeps one table of pool entries at each of its two
ends: an LRU of ``REPLY_CACHE_ENTRIES`` entry ids, touched in reply order,
full entries and back-references alike. ``encode_message(reply,
sent=table)`` writes an entry as the back-reference ``{"entry_id":N}``
when it is the very ``EncodedDict`` last sent under N on the connection
(a pool entry never changes, so a merge or a resolution is a new object
and goes in full), and ``decode_message(frame, entries=table)`` expands
each back-reference from the receiver's own table. Each end updates its
table from the frames alone, so the two hold the same ids in the same
order. A back-reference to an id the table does not hold, one decoded
with no table, or one whose id is not an integer is a ProtocolError; a
reply entry holding nothing but an ``entry_id`` always reads as a
back-reference. Held dicts are shared by every reply that refers to
them: read-only by contract, like the server's ``EncodedDict``.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import AdaptflyError, ProtocolError, parse_json
from ..prompts import EncodedDict, TokenPrompt, compact_json, number_vector

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
# Entry ids each end of a connection holds. The receiver keeps the dicts
# it decoded (about 9 kB for a 4 x 48 prompt, so about 2.3 MB when full);
# the sender keeps the server's EncodedDicts, which the server's own text
# map already holds while their entries live. The reference fleet and the
# benchmark's pool service each serve far fewer distinct entries per
# client.
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
    reply holds the same entries as plain ``to_dict`` data, back-references
    expanded.
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


def _touch(table: OrderedDict, entry_id: int, entry: dict) -> None:
    """Hold ``entry`` under ``entry_id`` as the most recent of ``table``."""
    table[entry_id] = entry
    table.move_to_end(entry_id)
    if len(table) > REPLY_CACHE_ENTRIES:
        table.popitem(last=False)


def _sent_entries(entries: tuple[dict, ...], sent: OrderedDict) -> list[dict]:
    """Reply entries as the sending end writes them: back-references where
    ``sent`` holds the same EncodedDict under the entry's id, and each entry
    with an integer id touched in ``sent``, as the receiver will touch it."""
    out = []
    for entry in entries:
        entry_id = entry.get("entry_id")
        if type(entry_id) is not int:
            out.append(entry)
            continue
        carried = type(entry) is EncodedDict and sent.get(entry_id) is entry
        out.append({"entry_id": entry_id} if carried else entry)
        _touch(sent, entry_id, entry)
    return out


def encode_message(msg: FleetMessage, sent: OrderedDict | None = None) -> bytes:
    """Frame a message: length header plus compact JSON payload.

    ``sent`` is the sending end's table of a connection (see the module
    docstring); without one, every reply entry is written in full.
    """
    payload = _payload(msg)
    if sent is not None and isinstance(msg, QueryResponse):
        payload["entries"] = _sent_entries(msg.entries, sent)
    body = compact_json(payload).encode("utf-8")
    return struct.pack(">I", len(body)) + body


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

    Only a key sent as vector text is touched. Any other value is left for
    ``PoolEntry.from_dict`` to check, like every other field of an entry.
    """
    if type(entry.get("key")) is str:
        entry["key"] = _vector(entry, "key")


def _received_entries(entries: list[dict], held: OrderedDict | None, counts: dict | None):
    """Expand back-references from ``held`` and give full entries key lists, in place.

    Every entry with an integer id is touched in ``held`` in reply order, as
    the sender touched it; ``counts`` adds up entries ``in_full`` and
    ``referenced``.
    """
    referenced = 0
    for i, entry in enumerate(entries):
        entry_id = entry.get("entry_id")
        if len(entry) == 1 and "entry_id" in entry:
            if type(entry_id) is not int:
                _fail("back-reference 'entry_id' must be an integer")
            if held is None:
                _fail(f"back-reference to entry {entry_id} with no entry table")
            if entry_id not in held:
                _fail(f"back-reference to entry {entry_id}, which is not held")
            entries[i] = held[entry_id]
            held.move_to_end(entry_id)
            referenced += 1
            continue
        _plain_entry(entry)
        if held is not None and type(entry_id) is int:
            _touch(held, entry_id, entry)
    if counts is not None:
        counts["in_full"] += len(entries) - referenced
        counts["referenced"] += referenced


def _from_payload(d: dict, held: OrderedDict | None, counts: dict | None) -> FleetMessage:
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
        _received_entries(entries, held, counts)
        return QueryResponse(request_id=_int(d, "request_id"), entries=tuple(entries))
    if kind == "refine_tick":
        return RefineTick()
    raise ProtocolError(f"unknown message type {kind!r}", offset=HEADER_SIZE)


def decode_message(frame: bytes, entries: OrderedDict | None = None,
                   counts: dict | None = None) -> FleetMessage:
    """Parse a single complete frame back into a message.

    ``entries`` is the receiving end's table of a connection (see the
    module docstring), and ``counts`` a ``{"in_full": F, "referenced": R}``
    tally of the reply entries it decoded. A frame holding no back-reference
    decodes the same with a table or without one.
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
    payload = parse_json(body, ProtocolError, "invalid JSON payload", offset=HEADER_SIZE)
    if not isinstance(payload, dict):
        raise ProtocolError("payload must be a JSON object", offset=HEADER_SIZE)
    return _from_payload(payload, entries, counts)


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
