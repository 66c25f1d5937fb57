import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptfly.errors import ProtocolError
from adaptfly.fleet.messages import (
    Query,
    QueryResponse,
    RefineTick,
    RegisterDeferred,
    UploadPrompt,
    decode_message,
    encode_message,
    read_frame,
)
from adaptfly.fleet.transport import BytePipe, InprocClient, StreamClient, TransportFailure
from adaptfly.prompts import TokenPrompt


def random_message(rng: np.random.Generator):
    kind = rng.integers(0, 5)
    vec = tuple(float(x) for x in rng.normal(size=int(rng.integers(1, 6))))
    if kind == 0:
        return UploadPrompt(
            key=vec,
            value=TokenPrompt(rng.normal(size=(int(rng.integers(1, 4)), 3))),
            timestamp=int(rng.integers(0, 1000)),
            agent_id=f"uav-{rng.integers(0, 10)}",
            domain_tag=None if rng.random() < 0.5 else "dom",
        )
    if kind == 1:
        return RegisterDeferred(
            query=vec,
            agent_id=f"uav-{rng.integers(0, 10)}",
            timestamp=int(rng.integers(0, 1000)),
            domain_tag=None if rng.random() < 0.5 else "fog",
        )
    if kind == 2:
        return Query(query=vec, n=int(rng.integers(1, 5)),
                     request_id=int(rng.integers(0, 10**6)))
    if kind == 3:
        entries = tuple(
            {
                "entry_id": int(rng.integers(0, 100)),
                "key": [float(x) for x in rng.normal(size=3)],
                "value": TokenPrompt(rng.normal(size=(2, 3))).to_dict(),
                "timestamp": int(rng.integers(0, 100)),
                "agent_id": "uav-1",
                "domain_tag": None,
            }
            for _ in range(int(rng.integers(0, 3)))
        )
        return QueryResponse(request_id=int(rng.integers(0, 10**6)), entries=entries)
    return RefineTick()


class TestFraming:
    def test_refine_tick_exact_bytes(self):
        frame = encode_message(RefineTick())
        assert frame[:4] == b"\x00\x00\x00\x16"
        assert frame[4:] == b'{"type":"refine_tick"}'
        assert struct.unpack(">I", frame[:4])[0] == len(frame) - 4

    def test_round_trip_all_variants(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            msg = random_message(rng)
            assert decode_message(encode_message(msg)) == msg

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, seed):
        msg = random_message(np.random.default_rng(seed))
        assert decode_message(encode_message(msg)) == msg

    def test_truncated_frame(self):
        frame = encode_message(RefineTick())
        with pytest.raises(ProtocolError) as err:
            decode_message(frame[:-3])
        assert err.value.offset == len(frame) - 3

    def test_short_header(self):
        with pytest.raises(ProtocolError) as err:
            decode_message(b"\x00\x01")
        assert err.value.offset == 2

    def test_trailing_bytes(self):
        with pytest.raises(ProtocolError) as err:
            decode_message(encode_message(RefineTick()) + b"xx")
        assert err.value.offset == 4 + 22

    def test_invalid_json_payload(self):
        payload = b"{nope"
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError) as err:
            decode_message(frame)
        assert err.value.offset == 4

    def test_unknown_type(self):
        payload = json.dumps({"type": "selfdestruct"}).encode()
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError):
            decode_message(frame)


def frame_of(payload) -> bytes:
    body = json.dumps(payload).encode()
    return struct.pack(">I", len(body)) + body


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4),
    max_leaves=8,
)
MESSAGE_FIELDS = ("key", "value", "timestamp", "agent_id", "domain_tag", "query", "n",
                  "request_id", "entries")
MESSAGE_TYPES = ("upload_prompt", "register_deferred", "query", "query_response",
                 "refine_tick")
# Mostly well-named fields with arbitrary values, so the per-field checks run.
json_payloads = st.fixed_dictionaries(
    {"type": st.sampled_from(MESSAGE_TYPES) | json_values},
    optional={name: json_values for name in MESSAGE_FIELDS},
)
token_prompt_dicts = st.fixed_dictionaries({
    "rows": st.integers(-1, 3), "dim": st.integers(-1, 3), "dtype": st.sampled_from(["f32", "x"]),
    "values": st.lists(st.floats() | st.integers(), max_size=9),
})


class TestPayloadFields:
    @pytest.mark.parametrize("payload", [
        {"type": "query"},
        {"type": "query", "query": ["a"], "n": 2, "request_id": 1},
        {"type": "query", "query": [[1.0], [2.0, 3.0]], "n": 2, "request_id": 1},
        {"type": "query", "query": [1.0, 2.0], "n": 2.5, "request_id": 1},
        {"type": "query", "query": [1.0, 2.0], "n": 2, "request_id": 2**70},
        {"type": "upload_prompt", "key": [1.0], "timestamp": 0, "agent_id": "a",
         "value": {"rows": 2, "dim": 3, "values": [1.0] * 5, "dtype": "f32"}},
        {"type": "register_deferred", "query": [1.0], "agent_id": 7, "timestamp": 0},
        {"type": "query_response", "request_id": 1, "entries": "ab"},
    ])
    def test_malformed_fields_raise_protocol_error(self, payload):
        with pytest.raises(ProtocolError) as err:
            decode_message(frame_of(payload))
        assert err.value.offset == 4

    @given(json_payloads)
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_json_object_decodes_or_raises_protocol_error(self, payload):
        try:
            msg = decode_message(frame_of(payload))
        except ProtocolError:
            return
        frame = encode_message(msg)  # bytes compare: entries may hold NaN
        assert encode_message(decode_message(frame)) == frame

    @given(st.fixed_dictionaries({
        "type": st.just("upload_prompt"), "key": st.lists(st.floats(), min_size=1, max_size=3),
        "timestamp": st.integers(), "agent_id": st.text(max_size=3),
        "value": token_prompt_dicts,
    }))
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_upload_decodes_or_raises_protocol_error(self, payload):
        try:
            decode_message(frame_of(payload))
        except ProtocolError:
            pass


class TestReadFrame:
    def test_reads_multiple_frames_in_sequence(self):
        pipe = BytePipe()
        msgs = [RefineTick(), Query(query=(1.0,), n=1, request_id=7)]
        for m in msgs:
            pipe.write(encode_message(m))
        for m in msgs:
            assert decode_message(read_frame(pipe.read)) == m
        assert len(pipe) == 0

    def test_stream_ending_inside_header(self):
        pipe = BytePipe()
        pipe.write(b"\x00\x00")
        with pytest.raises(ProtocolError):
            read_frame(pipe.read)

    def test_stream_ending_inside_payload(self):
        pipe = BytePipe()
        pipe.write(encode_message(RefineTick())[:-5])
        with pytest.raises(ProtocolError):
            read_frame(pipe.read)


class EchoServer:
    """Minimal server: records uploads, answers queries with zero entries."""

    def __init__(self):
        self.seen = []

    def handle(self, msg):
        self.seen.append(msg)
        if isinstance(msg, Query):
            return QueryResponse(request_id=msg.request_id, entries=())
        return None


class TestTransports:
    @pytest.mark.parametrize("client_cls", [InprocClient, StreamClient])
    def test_request_response(self, client_cls):
        server = EchoServer()
        client = client_cls(server)
        response = client.request(Query(query=(1.0, 0.0), n=2, request_id=5))
        assert response == QueryResponse(request_id=5, entries=())
        assert isinstance(server.seen[0], Query)

    def test_byte_accounting_identical_across_transports(self):
        messages = [
            RefineTick(),
            Query(query=(0.5, -0.25), n=2, request_id=1),
            UploadPrompt(key=(1.0,), value=TokenPrompt(np.ones((2, 2))),
                         timestamp=3, agent_id="uav-1"),
        ]
        counts = []
        for cls in (InprocClient, StreamClient):
            client = cls(EchoServer())
            for m in messages:
                if isinstance(m, Query):
                    client.request(m)
                else:
                    client.send(m)
            counts.append((client.bytes_sent, client.bytes_received))
        assert counts[0] == counts[1]
        assert counts[0][0] > 0 and counts[0][1] > 0

    def test_fault_hook_drops_and_raises(self):
        client = InprocClient(EchoServer(), fault_hook=lambda msg: True)
        with pytest.raises(TransportFailure):
            client.send(RefineTick())
        assert client.bytes_sent == 0
