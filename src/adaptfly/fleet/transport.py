"""Client transports linking agents to the consolidation server.

One client, two wires. ``InprocClient`` encodes every message through the
framed codec, applies the fault hook, counts bytes and enforces the reply
rule, so the byte accounting (and therefore the metrics table) is the same
for both transports. It decodes each served pool entry once: replies are
decoded through the client's reply-entry cache (``decode_message``), which
hands back the dict parsed earlier for an entry whose text has not changed.
Only the wire differs:

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
    """Framed client; its wire dispatches each frame to the server in memory."""

    def __init__(self, server, fault_hook=None):
        self._server = server
        self._fault_hook = fault_hook
        self.bytes_sent = 0
        self.bytes_received = 0
        # entry_id -> (text, dict) of served entries; see decode_message.
        self.reply_entries: OrderedDict = OrderedDict()

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
        return decode_message(reply, entries=self.reply_entries)

    def _carry(self, frame: bytes) -> bytes | None:
        """The wire: deliver one frame and return the reply frame, if any."""
        response = self._server.handle(decode_message(frame))
        return None if response is None else encode_message(response)


class StreamClient(InprocClient):
    """The same client over two byte pipes, pumped in lockstep."""

    def __init__(self, server, fault_hook=None):
        super().__init__(server, fault_hook)
        self.to_server = BytePipe()
        self.from_server = BytePipe()

    def _carry(self, frame: bytes) -> bytes | None:
        self.to_server.write(frame)
        response = self._server.handle(decode_message(read_frame(self.to_server.read)))
        if response is None:
            return None
        self.from_server.write(encode_message(response))
        return read_frame(self.from_server.read)
