"""Wire protocol between agents and the consolidation server.

Every message travels as a frame: a 4-byte big-endian unsigned payload
length followed by a UTF-8 JSON payload: its "type" name, then the
message dataclass's fields in declaration order. A frame is written from
its class's field table, built at import: the pre-encoded head and field
names around each value, which ``compact_json`` writes, so the payload
is exactly the bytes ``compact_json`` writes for the payload object.
Float64 vectors are the base64 of their little-endian bytes, token
prompts are written at their stored precision (9 significant digits for
f32, 5 for f16), and every other value as ``json.dumps`` writes it. A
vector may also arrive as a JSON list of numbers, as frames carried
it before. Each field is read and checked in declaration order.

Every vector and prompt value decodes to the array it was encoded from,
bit for bit, and a decoded request re-encodes to the same bytes. So
decode_message(encode_message(m)) == m for every variant whose reply
entries are plain JSON data; a server reply's entries carry the pool's
arrays and TokenPrompts and decode to ``ReplyEntry`` dicts equal to the
entries' ``PoolEntry.to_dict()`` (keys as number lists, prompts as dicts),
whose ``entry`` is that ``PoolEntry``, parsed on first read. The server
sends each reply entry pre-encoded (a read-only ``EncodedDict``,
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
back-reference. A held ``ReplyEntry`` is shared by every reply that refers
to it, so its ``PoolEntry`` is parsed at most once while it is held; it is
read-only by contract, like the server's ``EncodedDict``.
"""

from __future__ import annotations

import struct
import typing
from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from ..errors import AdaptflyError, ProtocolError, parse_json
from ..memory import INT64, PoolEntry
from ..prompts import EncodedDict, TokenPrompt, compact_json, number_vector

__all__ = [
    "UploadPrompt",
    "RegisterDeferred",
    "Query",
    "QueryResponse",
    "ReplyEntry",
    "RefineTick",
    "FleetMessage",
    "encode_message",
    "decode_message",
    "read_frame",
    "REPLY_CACHE_ENTRIES",
]

HEADER_SIZE = 4
# Entry ids each end of a connection holds. The receiver keeps the
# ReplyEntrys it decoded (about 9 kB for a 4 x 48 prompt, so about 2.3 MB
# when full), each with its PoolEntry once read; the sender keeps the
# server's EncodedDicts, which the server's own text map already holds
# while their entries live. The reference fleet and the
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
    reply holds the same entries as ``ReplyEntry``s (``to_dict`` data with
    a parsed ``entry``), back-references expanded.
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


def _fail(message: str):
    raise ProtocolError(message, offset=HEADER_SIZE)


def _vector(x, name: str) -> list[float]:
    try:
        return number_vector(x, f"field {name!r}").tolist()
    except AdaptflyError as exc:
        raise ProtocolError(str(exc), offset=HEADER_SIZE) from exc


def _prompt(x, name: str) -> TokenPrompt:
    try:
        return TokenPrompt.from_dict(x)
    except AdaptflyError as exc:
        raise ProtocolError(f"field {name!r}: {exc}", offset=HEADER_SIZE) from exc


def _int(x, name: str) -> int:
    if type(x) is not int or x not in INT64:
        _fail(f"field {name!r} must be a 64-bit integer")
    return x


def _str(x, name: str) -> str:
    if not isinstance(x, str):
        _fail(f"field {name!r} must be a string")
    return x


def _optional_str(x, name: str) -> str | None:
    if x is not None and not isinstance(x, str):
        _fail(f"field {name!r} must be a string or null")
    return x


def _objects(x, name: str) -> list[dict]:
    if not isinstance(x, list) or not all(isinstance(e, dict) for e in x):
        _fail(f"field {name!r} must be a list of objects")
    return x


def _same(x):
    return x


# Each field type's (writer, reader): the writer gives ``compact_json`` the
# field's value, the reader checks the decoded JSON value and returns the
# field's. Reply entries are then expanded by ``_received_entries``.
_CODECS = {
    tuple[float, ...]: (_array, lambda x, name: tuple(_vector(x, name))),
    TokenPrompt: (_same, _prompt),
    int: (_same, _int),
    str: (_same, _str),
    str | None: (_same, _optional_str),
    tuple[dict, ...]: (list, _objects),
}
_TYPES = {"upload_prompt": UploadPrompt, "register_deferred": RegisterDeferred, "query": Query,
          "query_response": QueryResponse, "refine_tick": RefineTick}
# (name, writer, reader) of each message class's fields, in declaration order.
_FIELDS = {
    cls: tuple((f.name, *_CODECS[typing.get_type_hints(cls)[f.name]]) for f in fields(cls))
    for cls in _TYPES.values()
}
# Each message class's frame text around its field values: the payload's
# '{"type":"<kind>"' head, then each field's (name, ',"<name>":', writer).
_FRAMES = {
    cls: (compact_json({"type": kind})[:-1],
          tuple((name, f",{compact_json(name)}:", write) for name, write, _ in _FIELDS[cls]))
    for kind, cls in _TYPES.items()
}


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

    The payload is written from the class's field table, each value by
    ``compact_json``, so it is the text ``compact_json`` writes for the
    payload object. ``sent`` is the sending end's table of a connection
    (see the module docstring); without one, every reply entry is written
    in full.
    """
    frame = _FRAMES.get(type(msg))
    if frame is None:
        raise ProtocolError(f"cannot encode {type(msg).__name__}")
    head, table = frame
    parts = [head]
    for name, prefix, write in table:
        value = getattr(msg, name)
        value = _sent_entries(value, sent) if sent is not None and write is list else write(value)
        parts += (prefix, compact_json(value))
    parts.append("}")
    body = "".join(parts).encode("utf-8")
    return struct.pack(">I", len(body)) + body


class ReplyEntry(dict):
    """A decoded full reply entry: ``PoolEntry.to_dict()`` data whose
    ``entry`` is its ``PoolEntry``, parsed on first read and kept."""

    @cached_property
    def entry(self) -> PoolEntry:
        return PoolEntry.from_dict(self)


def _plain_entry(entry: dict) -> ReplyEntry:
    """A full reply entry as a ``ReplyEntry`` holding the key list
    ``PoolEntry.to_dict`` holds.

    Only a key sent as vector text is touched. Any other value is left for
    ``PoolEntry.from_dict`` to check, like every other field of an entry.
    """
    entry = ReplyEntry(entry)
    if type(entry.get("key")) is str:
        entry["key"] = _vector(entry["key"], "key")
    return entry


def _received_entries(entries: list[dict], held: OrderedDict | None,
                      counts: dict | None) -> tuple[dict, ...]:
    """Expand back-references from ``held`` and decode full entries into
    ``ReplyEntry``s, in place; the entries as a tuple.

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
        entry = entries[i] = _plain_entry(entry)
        if held is not None and type(entry_id) is int:
            _touch(held, entry_id, entry)
    if counts is not None:
        counts["in_full"] += len(entries) - referenced
        counts["referenced"] += referenced
    return tuple(entries)


def _from_payload(d: dict, held: OrderedDict | None, counts: dict | None) -> FleetMessage:
    """Build a message from a decoded payload, checking its fields in order."""
    kind = d.get("type")
    cls = _TYPES.get(kind) if type(kind) is str else None
    if cls is None:
        raise ProtocolError(f"unknown message type {kind!r}", offset=HEADER_SIZE)
    values = {}
    for name, _, read in _FIELDS[cls]:
        value = read(d.get(name), name)
        values[name] = _received_entries(value, held, counts) if read is _objects else value
    return cls(**values)


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
