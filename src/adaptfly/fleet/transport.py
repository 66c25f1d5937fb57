"""Client transports linking agents to the consolidation server.

One client, two wires. ``InprocClient`` encodes every message through the
framed codec, applies the fault hook, counts bytes and enforces the reply
rule, so the byte accounting (and therefore the metrics table) is the same
for both transports. It holds both ends' entry tables of its connection
(see ``messages``), so an entry the connection already carried unchanged
travels as ``{"entry_id":N}``; a dropped message never reaches the server
and changes neither table. Only the wire differs:

* inproc — the frame is decoded and dispatched to the server in memory.
* stream — ``StreamClient`` carries each frame, and the server's reply,
  through a pair of reliable in-process byte pipes.

Reply rule: ``request`` expects exactly one reply and ``send`` none; either
mismatch raises ProtocolError after the reply (if any) has been read off
the wire, so no frame is left in a pipe. A fault hook may drop outgoing
messages to model transport failure; the affected call raises
TransportFailure and the agent applies its degraded-mode contract.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import AdaptflyError, ProtocolError
from .messages import FleetMessage, decode_message, encode_message, read_frame

__all__ = ["TransportFailure", "BytePipe", "InprocClient", "StreamClient"]


class TransportFailure(AdaptflyError):
    """The transport dropped a message (injected fault)."""


class BytePipe:
    """Reliable in-process byte stream with read-exactly semantics."""

    def __init__(self):
        self._buf = bytearray()

    def write(self, data: bytes) -> None:
        self._buf.extend(data)

    def read(self, n: int) -> bytes:
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    def __len__(self) -> int:
        return len(self._buf)


class InprocClient:
    """Framed client; its wire dispatches each frame to the server in memory.

    ``sent_entries`` (id -> EncodedDict sent) and ``reply_entries`` (id ->
    ``ReplyEntry`` decoded, whose ``entry`` a reader parses once) are the
    connection's two entry tables; ``reply_counts``
    counts the reply entries decoded ``in_full`` and ``referenced``.
    """

    def __init__(self, server, fault_hook=None):
        self._server = server
        self._fault_hook = fault_hook
        self.bytes_sent = 0
        self.bytes_received = 0
        self.sent_entries: OrderedDict = OrderedDict()
        self.reply_entries: OrderedDict = OrderedDict()
        self.reply_counts = {"in_full": 0, "referenced": 0}

    def send(self, msg: FleetMessage) -> None:
        if self._exchange(msg) is not None:
            raise ProtocolError(f"{type(msg).__name__} got an unexpected response")

    def request(self, msg: FleetMessage) -> FleetMessage:
        response = self._exchange(msg)
        if response is None:
            raise ProtocolError(f"{type(msg).__name__} expected a response")
        return response

    def _exchange(self, msg: FleetMessage) -> FleetMessage | None:
        frame = encode_message(msg)
        if self._fault_hook is not None and self._fault_hook(msg):
            raise TransportFailure(f"dropped {type(msg).__name__}")
        self.bytes_sent += len(frame)
        reply = self._carry(frame)
        if reply is None:
            return None
        self.bytes_received += len(reply)
        return decode_message(reply, entries=self.reply_entries, counts=self.reply_counts)

    def _serve(self, frame: bytes) -> bytes | None:
        """The server end: handle one frame and frame its reply, if any."""
        response = self._server.handle(decode_message(frame))
        return None if response is None else encode_message(response, sent=self.sent_entries)

    def _carry(self, frame: bytes) -> bytes | None:
        """The wire: deliver one frame and return the reply frame, if any."""
        return self._serve(frame)


class StreamClient(InprocClient):
    """The same client over two byte pipes, pumped in lockstep."""

    def __init__(self, server, fault_hook=None):
        super().__init__(server, fault_hook)
        self.to_server = BytePipe()
        self.from_server = BytePipe()

    def _carry(self, frame: bytes) -> bytes | None:
        self.to_server.write(frame)
        reply = self._serve(read_frame(self.to_server.read))
        if reply is None:
            return None
        self.from_server.write(reply)
        return read_frame(self.from_server.read)
