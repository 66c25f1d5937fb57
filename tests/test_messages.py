import dataclasses
import json
import struct
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptfly.errors import AdaptflyError, PoolFormatError, ProtocolError
from adaptfly.fleet import messages
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
from adaptfly.fleet.mec import MecServer
from adaptfly.fleet.transport import BytePipe, InprocClient, StreamClient, TransportFailure
from adaptfly.memory import DeferredMarker, PoolEntry, PromptPool
from adaptfly.prompts import EncodedDict, TokenPrompt, compact_json, number_vector, vector_text


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


GOLDEN_ENTRY = PoolEntry(4, np.array([0.6, 0.8]), TokenPrompt(np.ones((1, 2))), 2, "uav-2")
# One fixed message of each kind and its frame, byte for byte: a payload is
# "type" and then the dataclass's fields in declaration order.
GOLDEN_FRAMES = [
    pytest.param(
        UploadPrompt(key=(0.6, 0.8), value=TokenPrompt(np.array([[0.5, -0.25, 1.0]])),
                     timestamp=3, agent_id="uav-1", domain_tag="fog"),
        b'\x00\x00\x00\xaf{"type":"upload_prompt","key":"MzMzMzMz4z+amZmZmZnpPw==",'
        b'"value":{"rows":1,"dim":3,"values":[0.5,-0.25,1.0],"dtype":"f32"},"timestamp":3,'
        b'"agent_id":"uav-1","domain_tag":"fog"}',
        id="upload_prompt"),
    pytest.param(
        RegisterDeferred(query=(1.0, -2.0), agent_id="uav-2", timestamp=4),
        b'\x00\x00\x00r{"type":"register_deferred","query":"AAAAAAAA8D8AAAAAAAAAwA==",'
        b'"agent_id":"uav-2","timestamp":4,"domain_tag":null}',
        id="register_deferred"),
    pytest.param(
        Query(query=(0.5,), n=2, request_id=9),
        b'\x00\x00\x00<{"type":"query","query":"AAAAAAAA4D8=","n":2,"request_id":9}',
        id="query"),
    pytest.param(
        QueryResponse(request_id=7, entries=(EncodedDict(GOLDEN_ENTRY.wire_dict()),)),
        b'\x00\x00\x00\xd3{"type":"query_response","request_id":7,"entries":[{"entry_id":4,'
        b'"key":"MzMzMzMz4z+amZmZmZnpPw==","timestamp":2,"agent_id":"uav-2","domain_tag":null,'
        b'"value":{"rows":1,"dim":2,"values":[1.0,1.0],"dtype":"f32"}}]}',
        id="query_response"),
    pytest.param(RefineTick(), b'\x00\x00\x00\x16{"type":"refine_tick"}', id="refine_tick"),
]


class TestFraming:
    @pytest.mark.parametrize("msg, frame", GOLDEN_FRAMES)
    def test_exact_bytes(self, msg, frame):
        assert encode_message(msg) == frame
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

    def test_a_numeric_domain_tag_is_named(self):
        payload = {"type": "register_deferred", "query": [1.0], "agent_id": "a",
                   "timestamp": 0, "domain_tag": 3}
        with pytest.raises(ProtocolError) as err:
            decode_message(frame_of(payload))
        assert str(err.value) == "field 'domain_tag' must be a string or null (at byte 4)"
        assert decode_message(frame_of({**payload, "domain_tag": None})).domain_tag is None

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


# -- number format ------------------------------------------------------------


def upload_of(prompt: TokenPrompt, key=(0.6, 0.8)) -> UploadPrompt:
    return UploadPrompt(key=tuple(key), value=prompt, timestamp=1, agent_id="uav-1")


def round_trip(values: np.ndarray, dtype: str) -> np.ndarray:
    """Stored values after TokenPrompt -> encode -> decode."""
    frame = encode_message(upload_of(TokenPrompt(values, dtype=dtype)))
    back = decode_message(frame).value
    assert back.dtype == dtype
    return np.asarray(back.values)


F32_EDGES = np.array([
    np.uint32(1).view(np.float32),            # smallest subnormal
    np.uint32(0x007FFFFF).view(np.float32),   # largest subnormal
    np.finfo(np.float32).tiny,
    np.finfo(np.float32).max, -np.finfo(np.float32).max,
    1.0, -1.0, 0.0, -0.0, 2.0**23, 2.0**24 + 2, 1e9, 123456792.0,
    1e-05, -1.5e-05, 9.99999975e-06, 0.1, 1.0 / 3.0,
], dtype=np.float32)


class TestNumberFormat:
    """Prompt values travel at stored precision and come back bit for bit."""

    def test_every_finite_float16_round_trips(self):
        values = np.arange(2**16, dtype=np.uint32).astype(np.uint16).view(np.float16)
        values = values[np.isfinite(values)]
        assert values.size == 63488
        back = round_trip(values.reshape(62, 1024), "f16").ravel()
        assert np.array_equal(back.view(np.uint16), values.view(np.uint16))

    def test_random_float32_patterns_and_edges_round_trip(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**32, size=1_010_000, dtype=np.uint64).astype(np.uint32)
        values = bits.view(np.float32)
        values = values[np.isfinite(values)][: 10**6 - F32_EDGES.size]
        values = np.concatenate([values, F32_EDGES]).reshape(1000, 1000)
        back = round_trip(values, "f32")
        assert np.array_equal(back.view(np.uint32), values.view(np.uint32))

    def test_edge_values_text(self):
        text = compact_json(TokenPrompt(F32_EDGES[None, :]))
        values = json.loads(text)["values"]
        assert "1.40129846e-45" in text and "3.40282347e+38" in text
        # Whole numbers read as Python writes the float: 1.0, -0.0, 1000000000.0.
        assert values[5:9] == [1.0, -1.0, 0.0, -0.0] and ",1.0," in text
        assert ",-0.0," in text and ",1000000000.0," in text
        assert ",9.99999975e-06,-1.49999996e-05," in text  # float32(1e-05), -1.5e-05

    def test_mostly_signed_zeros_with_huge_whole_numbers(self):
        # Zeros of either sign are written without formatting each one;
        # whole numbers from 1e9 on still read as Python writes the float
        # that "%.9g" denotes.
        small = TokenPrompt(np.array([[0.0, -0.0, 1e9, -0.0, 123456789012.0, 0.0, -3e9, 0.5]],
                                     dtype=np.float32))
        assert small._values_text() == (
            "0.0,-0.0,1000000000.0,-0.0,123456791000.0,0.0,-3000000000.0,0.5")
        rng = np.random.default_rng(11)
        values = np.where(rng.random(4096) < 0.5, 0.0, -0.0).astype(np.float32)
        spots = rng.choice(values.size, 40, replace=False)
        values[spots[:20]] = rng.integers(10**9, 10**12, size=20)
        values[spots[20:]] = -rng.integers(10**9, 10**12, size=20)
        prompt = TokenPrompt(values.reshape(64, 64))
        # Reference: format every value, then rewrite each whole number.
        tokens = [repr(float("%.9g" % v)) for v in values.tolist()]
        assert prompt._values_text() == ",".join(tokens)
        back = round_trip(prompt.values, "f32")
        assert np.array_equal(back.view(np.uint32), prompt.values.view(np.uint32))

    @pytest.mark.parametrize("dtype", ["f32", "f16"])
    def test_text_is_json_of_to_dict(self, dtype):
        # One number format: the writer's text is what json.dumps writes for
        # to_dict(), whole numbers and huge values included.
        rng = np.random.default_rng(6)
        width = 32 if dtype == "f32" else 16
        bits = rng.integers(0, 2**width, size=4000, dtype=np.uint64)
        values = bits.astype(np.uint32 if dtype == "f32" else np.uint16).view(
            np.float32 if dtype == "f32" else np.float16)
        values = values[np.isfinite(values)][:3000].reshape(30, -1)
        prompt = TokenPrompt(values, dtype=dtype)
        assert compact_json(prompt) == json.dumps(prompt.to_dict(), separators=(",", ":"))
        assert TokenPrompt.from_dict(prompt.to_dict()) == prompt

    def test_decoded_messages_re_encode_to_the_same_bytes(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**32, size=4096, dtype=np.uint64).astype(np.uint32)
        values = values.view(np.float32)
        prompt = TokenPrompt(values[np.isfinite(values)][:4000].reshape(40, 100))
        reply = QueryResponse(request_id=3, entries=(
            {"entry_id": 1, "key": [0.6, 0.8], "value": prompt, "agent_id": "a"},))
        for msg in (upload_of(prompt), reply):
            frame = encode_message(msg)
            assert encode_message(decode_message(frame)) == frame
        assert decode_message(encode_message(reply)).entries[0]["value"] == prompt.to_dict()

    def test_legacy_17_digit_frame_decodes_to_the_same_prompt(self):
        rng = np.random.default_rng(8)
        msg = upload_of(TokenPrompt(rng.normal(scale=0.05, size=(4, 48))))
        # As written before prompt values kept their stored precision.
        legacy = frame_of({"type": "upload_prompt", "key": list(msg.key),
                           "value": {"rows": 4, "dim": 48, "dtype": "f32",
                                     "values": [float(x) for x in msg.value.values.ravel()]},
                           "timestamp": 1, "agent_id": "uav-1"})
        assert len(legacy) > len(encode_message(msg))
        assert decode_message(legacy) == decode_message(encode_message(msg)) == msg

    def test_server_reply_decodes_to_entry_dicts(self):
        rng = np.random.default_rng(9)
        pool = PromptPool()
        for i in range(6):
            pool.insert(rng.normal(size=8), TokenPrompt(rng.normal(scale=0.05, size=(2, 8))),
                        timestamp=i, agent_id=f"uav-{i}")
        pool.refine()
        server = MecServer(pool, oracle=None, distill_config=None)
        query = Query(query=tuple(rng.normal(size=8)), n=3, request_id=1)
        hits = pool.query_topn(np.asarray(query.query), 3)
        for client in (InprocClient(server), StreamClient(server)):
            response = client.request(query)
            assert list(response.entries) == [e.to_dict() for e in hits]

    def test_float32_upload_costs_at_most_15_bytes_per_value(self):
        rng = np.random.default_rng(10)
        key = rng.normal(size=48)
        msg = upload_of(TokenPrompt(rng.normal(scale=0.05, size=(64, 48))),
                        key=key / np.linalg.norm(key))
        assert len(encode_message(msg)) / (64 * 48) <= 15.0


prompt_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.builds(lambda v, dtype: TokenPrompt(np.array(v).reshape(1, -1), dtype=dtype),
                st.lists(st.floats(-6e4, 6e4), max_size=5), st.sampled_from(["f32", "f16"]))
    | st.builds(lambda v: np.array(v, dtype=np.float64), st.lists(st.floats(), max_size=5)),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4) | st.integers(), inner, max_size=4),
    max_leaves=8,
)


def plain(obj):
    if isinstance(obj, TokenPrompt):
        return obj.to_dict()
    if isinstance(obj, np.ndarray):
        return vector_text(obj)
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [plain(v) for v in obj]
    return obj


class TestCompactJson:
    @given(prompt_json_values)
    @settings(max_examples=200, deadline=None)
    def test_equals_json_dumps_of_plain_data(self, obj):
        assert compact_json(obj) == json.dumps(plain(obj), separators=(",", ":"))


# -- cached reply decode -------------------------------------------------------


def outcome(frame: bytes, entries=None):
    """What decoding gives: the message's repr or the ProtocolError's text and offset.

    repr tells 1 from 1.0 and True, -0.0 from 0.0, and shows key order; NaN
    entries compare by text.
    """
    try:
        return repr(decode_message(frame, entries=entries))
    except ProtocolError as exc:
        return ("ProtocolError", str(exc), exc.offset)


def compact_frame(payload) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    return struct.pack(">I", len(body)) + body


def raw_frame(text: str | bytes) -> bytes:
    body = text.encode() if isinstance(text, str) else text
    return struct.pack(">I", len(body)) + body


def served_reply() -> QueryResponse:
    rng = np.random.default_rng(12)
    pool = PromptPool()
    for i in range(3):
        pool.insert(rng.normal(size=8), TokenPrompt(rng.normal(scale=0.05, size=(2, 8))),
                    timestamp=i, agent_id=f"uav-{i}")
    pool.refine()
    server = MecServer(pool, oracle=None, distill_config=None)
    return server.handle(Query(query=tuple(rng.normal(size=8)), n=3, request_id=7))


# No entry is a bare {"entry_id": N}, a back-reference (json_values' keys
# are at most 6 characters long).
entry_dicts = st.fixed_dictionaries(
    {"entry_id": st.integers(0, 4) | st.integers(-2, 2**64) | json_values},
    optional={name: json_values for name in ("key", "value", "agent_id")},
).filter(lambda e: list(e) != ["entry_id"])
reply_payloads = st.fixed_dictionaries({
    "type": st.just("query_response"),
    "request_id": st.integers(0, 9) | st.integers(-2**64, 2**64) | json_values,
    "entries": st.lists(entry_dicts | json_values, max_size=4) | json_values,
})


class TestCachedDecode:
    """A receiver's entry table changes neither the messages nor the errors
    of frames that hold no back-reference; a repeated entry goes by id."""

    def test_repeated_entries_come_from_the_cache(self):
        reply = served_reply()
        sent, held = OrderedDict(), OrderedDict()
        counts = {"in_full": 0, "referenced": 0}
        frame = encode_message(reply, sent=sent)
        assert frame == encode_message(reply)
        first = decode_message(frame, entries=held, counts=counts)
        again_frame = encode_message(reply, sent=sent)
        ids = [d["entry_id"] for d in reply.entries]
        assert json.loads(again_frame[4:])["entries"] == [{"entry_id": i} for i in ids]
        again = decode_message(again_frame, entries=held, counts=counts)
        assert again == first == decode_message(frame)
        assert all(a is b for a, b in zip(again.entries, first.entries))
        assert list(sent) == list(held) == ids
        assert counts == {"in_full": 3, "referenced": 3}

    def test_a_new_object_under_a_held_id_goes_in_full(self):
        deferred = PoolEntry(4, np.array([0.6, 0.8]), DeferredMarker("uav-2"), 2, "uav-2")
        resolved = dataclasses.replace(deferred, value=TokenPrompt(np.ones((1, 2))))
        plain = resolved.to_dict()  # not an EncodedDict: never sent by reference
        sent, held = OrderedDict(), OrderedDict()
        for entry, by_reference in [(deferred, False), (deferred, True), (resolved, False),
                                    (resolved, True)]:
            text = EncodedDict(entry.wire_dict()) if not by_reference else sent[4]
            frame = encode_message(QueryResponse(1, (text,)), sent=sent)
            assert (frame == encode_message(QueryResponse(1, ({"entry_id": 4},)))) is by_reference
            (got,) = decode_message(frame, entries=held).entries
            assert got is held[4] == entry.to_dict()
        for _ in range(2):
            frame = encode_message(QueryResponse(1, (plain,)), sent=sent)
            assert frame == encode_message(QueryResponse(1, (plain,)))
            assert decode_message(frame, entries=held).entries[0] is held[4] == plain

    @pytest.mark.parametrize("entry_id, table", [
        pytest.param(5, "held", id="id-not-held"),
        pytest.param(0, None, id="no-table"),
        pytest.param("0", "held", id="string-id"),
        pytest.param(0.0, "held", id="float-id"),
        pytest.param(True, "held", id="boolean-id"),
        pytest.param(None, "held", id="null-id"),
    ])
    def test_unresolvable_back_references_are_protocol_errors(self, entry_id, table):
        held = OrderedDict()
        decode_message(encode_message(served_reply()), entries=held)  # ids 0, 1, 2
        frame = compact_frame({"type": "query_response", "request_id": 1,
                               "entries": [{"entry_id": entry_id}]})
        with pytest.raises(ProtocolError) as err:
            decode_message(frame, entries=held if table else None)
        assert err.value.offset == 4

    def test_a_reply_with_a_malformed_request_id_leaves_the_table_unchanged(self):
        held = OrderedDict()
        decode_message(encode_message(QueryResponse(1, served_reply().entries[:2])),
                       entries=held)  # ids 0, 1
        before = list(held.items())
        full = [GOLDEN_ENTRY.wire_dict(), *served_reply().entries]  # ids 4, 0, 1, 2
        frame = compact_frame({"type": "query_response", "request_id": "7",
                               "entries": [json.loads(compact_json(e)) for e in full]})
        with pytest.raises(ProtocolError) as err:
            decode_message(frame, entries=held)
        assert err.value.offset == 4
        assert list(held.items()) == before

    def test_cache_is_an_lru_bounded_by_the_constant(self, monkeypatch):
        monkeypatch.setattr(messages, "REPLY_CACHE_ENTRIES", 2)
        reply = served_reply()
        a, b, c = reply.entries
        cache = OrderedDict()
        for entries, held in [((a, b), [0, 1]), ((a,), [1, 0]), ((c,), [0, 2])]:
            frame = encode_message(QueryResponse(1, entries))
            assert outcome(frame, cache) == outcome(frame)
            assert [reply.entries[i]["entry_id"] for i in held] == list(cache)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda t: t.replace(',"entries":[', ', "entries": ['), id="whitespace"),
        pytest.param(lambda t: t.replace('},{', '}, {', 1), id="space-between-entries"),
        pytest.param(lambda t: t.replace('},{', '}{', 1), id="missing-comma"),
        pytest.param(lambda t: t[:-1] + ' }', id="space-before-brace"),
        pytest.param(lambda t: '{"request_id":7,"type":"query_response",'
                     + t[t.index('"entries"'):], id="reordered-keys"),
        pytest.param(lambda t: t[:-1] + ',"request_id":8}', id="duplicate-request-id"),
        pytest.param(lambda t: t[:-1] + ',"entries":[]}', id="duplicate-entries"),
        pytest.param(lambda t: t.replace('{"entry_id":', '{"entry_id":5,"entry_id":', 1),
                     id="duplicate-entry-id"),
        pytest.param(lambda t: t + '{}', id="trailing-json"),
        pytest.param(lambda t: t[:-1] + ',]}', id="trailing-comma"),
        pytest.param(lambda t: t[:-2], id="truncated-list"),
        pytest.param(lambda t: t[: len(t) // 2], id="truncated-entry"),
        pytest.param(lambda t: t.replace('"request_id":7', f'"request_id":{2**63}'),
                     id="request-id-above-int64"),
        pytest.param(lambda t: t.replace('"request_id":7', f'"request_id":{-2**63 - 1}'),
                     id="request-id-below-int64"),
        pytest.param(lambda t: t.replace('"request_id":7', '"request_id":7.0'),
                     id="request-id-float"),
        pytest.param(lambda t: t.replace('"request_id":7', '"request_id":' + "7" * 5000),
                     id="request-id-beyond-int-digits"),
        pytest.param(lambda t: t.replace('[{', '[[1],{', 1), id="non-object-entry"),
        pytest.param(lambda t: t.replace('"agent_id":"uav-', '"agent_id":"UAV-'),
                     id="cached-id-text-changed"),
        pytest.param(lambda t: t.replace('"agent_id":"uav-', '"agent_id" : "uav-', 1),
                     id="cached-id-whitespace-inside"),
        pytest.param(lambda t: t.replace('"domain_tag":null', '"domain_tag":null,"x":1'),
                     id="cached-id-extra-field"),
        pytest.param(lambda t: t.replace('[{', '[' + '[' * 100000, 1), id="deep-nesting"),
    ])
    def test_non_canonical_frames_decode_as_without_cache(self, edit):
        canonical = encode_message(served_reply())
        frame = raw_frame(edit(canonical[4:].decode()))
        assert frame != canonical
        cache = OrderedDict()
        decode_message(canonical, entries=cache)  # every entry id is cached
        assert outcome(frame, cache) == outcome(frame)
        assert outcome(frame, cache) == outcome(frame, OrderedDict())

    @pytest.mark.parametrize("frame", [
        pytest.param(raw_frame(b'{"type":"query_response","request_id":1,"entries":[\xff]}'),
                     id="invalid-utf8"),
        pytest.param(raw_frame('{"type":"query_response","request_id":1,"entries":[]}')[:-3],
                     id="truncated-frame"),
        pytest.param(raw_frame('{"type":"query_response","request_id":1,"entries":[]}') + b" ",
                     id="trailing-bytes"),
        pytest.param(raw_frame('{"type":"query_response","request_id":1,"entries":{}}'),
                     id="entries-not-a-list"),
    ])
    def test_malformed_frames_raise_the_same_error(self, frame):
        cache = OrderedDict()
        decode_message(encode_message(served_reply()), entries=cache)
        with pytest.raises(ProtocolError):
            decode_message(frame)
        assert outcome(frame, cache) == outcome(frame)

    @pytest.mark.parametrize("text", ['{"type":"query","query":[' + "1" * 5000 + '],"n":1}',
                                      '{"type":"query","query":' + "[" * 100000 + "}"])
    def test_json_beyond_parser_limits_is_a_protocol_error(self, text):
        with pytest.raises(ProtocolError) as err:
            decode_message(raw_frame(text))
        assert err.value.offset == 4

    @given(st.lists(reply_payloads, min_size=1, max_size=4), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_replies_without_back_references_decode_as_without_a_table(self, payloads,
                                                                       canonical):
        held = OrderedDict()
        decode_message(encode_message(served_reply()), entries=held)  # ids 0, 1, 2
        write = compact_frame if canonical else frame_of
        for payload in payloads:
            frame = write(payload)
            assert outcome(frame, held) == outcome(frame)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_messages_decode_as_without_cache(self, seed):
        rng = np.random.default_rng(seed)
        cache = OrderedDict()
        for _ in range(4):
            frame = encode_message(random_message(rng))
            assert outcome(frame, cache) == outcome(frame)


# -- vector codec -----------------------------------------------------------------


F64_EDGES = np.array([
    0.0, -0.0, 5e-324, -5e-324,                       # smallest subnormals
    np.uint64(0x000FFFFFFFFFFFFF).view(np.float64),  # largest subnormal
    np.finfo(np.float64).tiny, np.finfo(np.float64).max, -np.finfo(np.float64).max,
    1.0, -1.0, 0.1, 1.0 / 3.0,
])


def f64_patterns(seed: int, size: int) -> np.ndarray:
    """Random finite float64 bit patterns, every edge value included."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=2 * size, dtype=np.uint64)
    values = bits.view(np.float64)
    return np.concatenate([F64_EDGES, values[np.isfinite(values)][: size - F64_EDGES.size]])


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def vector_messages(vec: np.ndarray) -> list:
    prompt = TokenPrompt(np.ones((1, 2)))
    return [
        UploadPrompt(key=tuple(vec), value=prompt, timestamp=3, agent_id="uav-1"),
        RegisterDeferred(query=tuple(vec), agent_id="uav-2", timestamp=4, domain_tag="fog"),
        Query(query=tuple(vec), n=2, request_id=9),
    ]


def vector_of(msg) -> tuple:
    return msg.key if isinstance(msg, UploadPrompt) else msg.query


class TestVectorCodec:
    """Keys and queries travel as base64 of their float64 bytes, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_request_vectors_round_trip_bit_for_bit(self, seed):
        vec = f64_patterns(seed, 512)
        for msg in vector_messages(vec):
            frame = encode_message(msg)
            back = decode_message(frame)
            assert back == msg and encode_message(back) == frame
            assert bits(vector_of(back)) == bits(vec)

    def test_reply_vectors_round_trip_bit_for_bit(self):
        vec = f64_patterns(4, 256)
        concrete = PoolEntry(3, vec, TokenPrompt(np.ones((1, 2))), 1, "uav-1")
        deferred = PoolEntry(4, vec[::-1].copy(), DeferredMarker("uav-2"), 2, "uav-2",
                             domain_tag="fog")
        reply = QueryResponse(request_id=5, entries=(concrete.wire_dict(), deferred.wire_dict()))
        frame = encode_message(reply)
        for cache in (None, OrderedDict()):
            got = decode_message(frame, entries=cache)
            assert list(got.entries) == [concrete.to_dict(), deferred.to_dict()]
            assert bits(got.entries[0]["key"]) == bits(vec)
            assert bits(got.entries[1]["key"]) == bits(vec[::-1])

    def test_served_reply_keys_are_the_pool_keys(self):
        reply = served_reply()
        for client_cache in (None, OrderedDict(), OrderedDict()):
            got = decode_message(encode_message(reply), entries=client_cache)
            for sent, entry in zip(got.entries, reply.entries):
                assert bits(sent["key"]) == entry["key"].tobytes()

    def test_query_frame_of_48_values_fits_600_bytes(self):
        rng = np.random.default_rng(13)
        q = rng.normal(size=48)
        frame = encode_message(Query(query=tuple(q / np.linalg.norm(q)), n=2,
                                     request_id=2**31))
        assert len(frame) <= 600
        assert json.loads(frame[4:])["query"] == vector_text(q / np.linalg.norm(q))

    def test_decimal_list_frames_decode_to_the_same_messages(self):
        vec = f64_patterns(5, 48)
        for msg in vector_messages(vec):
            payload = json.loads(encode_message(msg)[4:])
            name = "key" if isinstance(msg, UploadPrompt) else "query"
            payload[name] = vec.tolist()  # as frames carried vectors before
            assert decode_message(frame_of(payload)) == msg
        reply = served_reply()
        decimal = {"type": "query_response", "request_id": 7,
                   "entries": [json.loads(d.text) for d in reply.entries]}
        for entry in decimal["entries"]:
            entry["key"] = number_vector(entry["key"], "key").tolist()
        for cache in (None, OrderedDict()):
            assert (decode_message(frame_of(decimal), entries=cache)
                    == decode_message(encode_message(reply)))

    @pytest.mark.parametrize("text", [
        pytest.param(lambda t: t[:5] + "!" + t[6:], id="non-base64-character"),
        pytest.param(lambda t: t[:-1], id="bad-padding"),
        pytest.param(lambda t: t[:8] + " " + t[8:], id="embedded-space"),
        pytest.param(lambda t: t[:8] + "\n" + t[8:], id="embedded-newline"),
        pytest.param(lambda t: t[:-4], id="not-whole-float64-values"),
        pytest.param(lambda t: "AAAAAA==", id="four-bytes"),
        pytest.param(lambda t: t[:5] + "é" + t[6:], id="non-ascii"),
        pytest.param(lambda t: 5, id="number"),
        pytest.param(lambda t: {"v": t}, id="object"),
        pytest.param(lambda t: None, id="null"),
        pytest.param(lambda t: True, id="boolean"),
    ])
    def test_malformed_vectors_are_typed_errors(self, tmp_path, text):
        good = vector_text(np.array([0.6, 0.8]))
        bad = text(good)
        for msg in vector_messages(np.array([0.6, 0.8])):
            payload = json.loads(encode_message(msg)[4:])
            payload["key" if isinstance(msg, UploadPrompt) else "query"] = bad
            with pytest.raises(ProtocolError) as err:
                decode_message(frame_of(payload))
            assert err.value.offset == 4
        entry = PoolEntry(0, np.array([0.6, 0.8]), TokenPrompt(np.ones((1, 2))), 0, "a")
        marker = PoolEntry(1, np.array([0.6, 0.8]), DeferredMarker("a"), 0, "a")
        for line in ({**entry.to_dict(), "key": bad}, {**marker.to_dict(), "key": bad}):
            reply = {"type": "query_response", "request_id": 1, "entries": [line]}
            for cache in (None, OrderedDict()):
                if isinstance(bad, str):
                    with pytest.raises(ProtocolError) as err:
                        decode_message(compact_frame(reply), entries=cache)
                    assert err.value.offset == 4
                else:  # reply entries are checked where they are used, as before
                    (sent,) = decode_message(compact_frame(reply), entries=cache).entries
                    with pytest.raises(AdaptflyError):
                        PoolEntry.from_dict(sent)
            path = tmp_path / "pool.jsonl"
            path.write_text('{"next_id":2}\n' + json.dumps(line) + "\n")
            with pytest.raises(PoolFormatError) as err:
                PromptPool.load(path)
            assert err.value.line == 2


# -- frame writer -----------------------------------------------------------------


def payload_frame(msg, sent: OrderedDict | None = None) -> bytes:
    """The frame as a payload dict written whole by ``compact_json``: the
    reference for ``encode_message``, which writes from the field table."""
    payload = {"type": {cls: kind for kind, cls in messages._TYPES.items()}[type(msg)]}
    for name, write, _ in messages._FIELDS[type(msg)]:
        payload[name] = write(getattr(msg, name))
    if sent is not None and isinstance(msg, QueryResponse):
        payload["entries"] = messages._sent_entries(msg.entries, sent)
    body = compact_json(payload).encode("utf-8")
    return struct.pack(">I", len(body)) + body


# Served entries: the same EncodedDict objects recur, so a table sends them
# again as back-references. Non-ASCII ids and tags, and null tags.
SERVED = [EncodedDict(PoolEntry(i, np.array([0.6, -0.8]), value, i, agent, tag).wire_dict())
          for i, (value, agent, tag) in enumerate([
              (TokenPrompt(np.array([[0.5, -0.25]])), "uav-1", None),
              (TokenPrompt(np.array([[1e-7, 3.0]]), dtype="f16"), "ドローン", "雾"),
              (DeferredMarker("uav-ß"), "uav-ß", None)])]
texts = st.text(max_size=6)  # any non-surrogate code point
vectors = st.lists(st.floats(), max_size=4).map(tuple)
token_prompts = st.builds(lambda v, dtype: TokenPrompt(np.array(v).reshape(1, -1), dtype=dtype),
                          st.lists(st.floats(-6e4, 6e4), max_size=4),
                          st.sampled_from(["f32", "f16"]))
fleet_messages = st.one_of(
    st.builds(UploadPrompt, vectors, token_prompts, st.integers(), texts, st.none() | texts),
    st.builds(RegisterDeferred, vectors, texts, st.integers(), st.none() | texts),
    st.builds(Query, vectors, st.integers(), st.integers()),
    st.builds(QueryResponse, st.integers(),
              st.lists(st.sampled_from(SERVED) | entry_dicts, max_size=4).map(tuple)),
    st.just(RefineTick()),
)


class TestFrameWriter:
    @given(st.lists(fleet_messages, min_size=1, max_size=6), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_frames_are_compact_json_of_the_payload(self, msgs, with_table):
        # Each end of the comparison keeps its own table; both must touch
        # the same entries in the same order.
        sent, ref = (OrderedDict(), OrderedDict()) if with_table else (None, None)
        for msg in msgs:
            assert encode_message(msg, sent=sent) == payload_frame(msg, ref)
        if with_table:
            assert list(sent) == list(ref)
            assert all(a is b for a, b in zip(sent.values(), ref.values()))

    def test_back_references_and_empty_replies(self):
        sent, ref = OrderedDict(), OrderedDict()
        for entries in [tuple(SERVED), (), (SERVED[1], SERVED[0]), (SERVED[2],)]:
            msg = QueryResponse(3, entries)
            assert encode_message(msg, sent=sent) == payload_frame(msg, ref)
        assert json.loads(encode_message(QueryResponse(3, tuple(SERVED)), sent=sent)[4:]) == {
            "type": "query_response", "request_id": 3,
            "entries": [{"entry_id": 0}, {"entry_id": 1}, {"entry_id": 2}]}
