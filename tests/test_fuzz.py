"""Seeded boundary fuzz: malformed input leaves only as an ``AdaptflyError``.

A fixed corpus of valid inputs of every boundary (wire frames, pool.jsonl
lines, metrics.csv rows, configs and ``--set`` values) is mutated with a
fixed seed: one to three byte edits, or one number replaced by an extreme
literal. Each mutant must be accepted or rejected with an ``AdaptflyError``,
with numpy warnings raised as errors, so a warning cannot cross a boundary
either.
"""

import base64
import json
import re
import struct
import warnings
from collections import OrderedDict

import numpy as np

from adaptfly.cli import _apply_override, main
from adaptfly.distill import DistillConfig
from adaptfly.errors import AdaptflyError, ConfigError, MetricsFormatError, parse_json
from adaptfly.fleet import metrics_csv, reference_config
from adaptfly.fleet.agents import StepRecord
from adaptfly.fleet.config import ScenarioConfig
from adaptfly.fleet.mec import MecServer, ProvenanceLog
from adaptfly.fleet.messages import (
    Query,
    RefineTick,
    RegisterDeferred,
    UploadPrompt,
    decode_message,
    encode_message,
)
from adaptfly.memory import PoolConfig, PromptPool
from adaptfly.oracle import make_toy_oracle
from adaptfly.prompts import TokenPrompt

MUTANTS_PER_INPUT = 150
EDIT_BYTES = b"0123456789eE+-.,:\"[]{}nNaItfx \\\xff"
EXTREMES = (b"1e200", b"-1e200", b"1e39", b"-3.5e38", b"1e-320", b"1e309", b"0", b"-0.0",
            b"NaN", b"Infinity", b"-Infinity", b"9" * 400, b"1.5", b"true", b"null", b'"x"')
NUMBER = re.compile(rb"-?\d+(\.\d+)?([eE][+-]?\d+)?")


def mutate(rng: np.random.Generator, text: bytes) -> bytes:
    """One mutant of ``text``: 1-3 byte edits, or a number made extreme."""
    numbers = [m.span() for m in NUMBER.finditer(text)]
    if numbers and rng.random() < 0.3:
        start, end = numbers[rng.integers(len(numbers))]
        return text[:start] + EXTREMES[rng.integers(len(EXTREMES))] + text[end:]
    out = bytearray(text)
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, len(out) + 1))
        byte = EDIT_BYTES[rng.integers(len(EDIT_BYTES))]
        edit = rng.integers(3)
        if edit == 0 and i < len(out):
            out[i] = byte
        elif edit == 1 and i < len(out):
            del out[i]
        else:
            out.insert(i, byte)
    return bytes(out)


def frame(payload: dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    return struct.pack(">I", len(body)) + body


def with_number_lists(encoded: bytes) -> bytes:
    """The frame with its base64 vectors written as number lists, as older frames were."""
    payload = json.loads(encoded[4:])
    for name in ("key", "query"):
        if isinstance(payload.get(name), str):
            payload[name] = np.frombuffer(base64.b64decode(payload[name]), "<f8").tolist()
    return frame(payload)


def expect_adaptfly_error(run, text: bytes) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            run(text)
        except AdaptflyError:
            pass
        except Exception as exc:  # the failure names the mutant
            raise AssertionError(f"{type(exc).__name__}: {exc} from {text[:300]!r}") from exc


def fuzz(run, seeds: list[bytes], rng: np.random.Generator) -> None:
    for text in seeds:
        run(text)  # the seed itself is valid
        for _ in range(MUTANTS_PER_INPUT):
            expect_adaptfly_error(run, mutate(rng, text))


def test_malformed_boundary_inputs_raise_only_adaptfly_errors(tmp_path):
    rng = np.random.default_rng(20260)
    oracle = make_toy_oracle(seed=7, height=8, width=8)
    dim = oracle.token_dim
    keys = np.linalg.qr(rng.standard_normal((dim, 2)))[0].T
    prompt = TokenPrompt(rng.normal(0.0, 0.05, size=(2, dim)))

    # Wire frames: each decoded message is also handled by a fresh server.
    def server() -> MecServer:
        pool = PromptPool(PoolConfig(capacity=8))
        pool.insert(keys[0], prompt, timestamp=0, agent_id="uav-h1")
        pool.refine()
        return MecServer(pool, oracle, DistillConfig(rows=2), ProvenanceLog())

    served = server().handle(Query(query=tuple(keys[0]), n=2, request_id=1))
    messages = [
        UploadPrompt(key=tuple(keys[1]), value=prompt, timestamp=3, agent_id="uav-h1",
                     domain_tag="dusk"),
        RegisterDeferred(query=tuple(keys[1]), agent_id="uav-h1", timestamp=4, domain_tag=None),
        Query(query=tuple(keys[0]), n=2, request_id=7),
        RefineTick(),
    ]
    frames = [encode_message(m) for m in messages]
    frames += [with_number_lists(f) for f in frames[:3]]

    def run_frame(text: bytes) -> None:
        msg = decode_message(text)
        server().handle(msg)

    fuzz(run_frame, frames, rng)

    reply = encode_message(served)

    def run_reply(text: bytes) -> None:  # as a limited agent reads a reply
        msg = decode_message(text, entries=OrderedDict())
        for entry in getattr(msg, "entries", ()):
            entry.entry

    fuzz(run_reply, [reply], rng)

    # pool.jsonl lines: the snapshot with one line mutated.
    pool = server().pool
    pool.insert(keys[1], prompt, timestamp=2, agent_id="uav-h2", domain_tag="fog")
    pool.refine()
    saved = tmp_path / "pool.jsonl"
    pool.save(saved)
    lines = saved.read_bytes().splitlines()
    assert lines[0] == b'{"next_id":2}'
    entry = json.loads(lines[1])
    entry["entry_id"] = 2
    entry["key"] = keys[0].tolist()  # a key written as numbers, as older snapshots did
    lines.append(json.dumps(entry).encode())
    lines[0] = b'{"next_id":3}'
    path = tmp_path / "mutant.jsonl"

    for index in range(len(lines)):
        def run_pool(text: bytes, index=index) -> None:
            path.write_bytes(b"\n".join(lines[:index] + [text] + lines[index + 1:]))
            PromptPool.load(path)

        fuzz(run_pool, [lines[index]], rng)

    # metrics.csv rows: the table with one row mutated.
    records = [StepRecord(step=t, agent_id="uav-l1", domain="dusk", drift_score=0.25 * t,
                          shift_flag=t == 1, mean_entropy=0.5 + 1e-3 * t,
                          adaptation_event="retrieve" if t == 1 else "none",
                          bytes_sent=120 * t, bytes_received=4096, retrieved=t % 2)
               for t in range(3)]
    metrics = tmp_path / "metrics.csv"

    def run_metrics(text: bytes) -> None:  # as ``adaptfly report`` reads the file
        metrics.write_bytes(text)
        if main(["report", "--metrics", str(metrics)]) == 2:
            raise MetricsFormatError("rejected")

    fuzz(run_metrics, [metrics_csv(records).encode()], rng)

    # Configs: the scenario's JSON text mutated, then checked as the CLI does.
    config = reference_config(seed=3)
    for agent in config["agents"]:
        agent["schedule"] = agent["schedule"][:2]
    config["faults"] = [{"agent": "uav-l1", "step": 3}]
    config_text = json.dumps(config).encode()

    def run_config(text: bytes) -> None:
        d = parse_json(text, ConfigError, "config")
        if not isinstance(d, dict):
            raise ConfigError("config must hold a JSON object")
        ScenarioConfig.from_dict(d)

    fuzz(run_config, [config_text], rng)

    # --set values: a mutated value at each of these paths.
    overrides = {
        "seed": b"11", "transport": b"stream", "pool.capacity": b"64", "pool.eta": b"0.5",
        "agents.0.rho": b"0.05", "agents.0.delta_refresh": b"0.5", "agents.0.cma.sigma0": b"0.3",
        "agents.1.n": b"2",
        "domains.1.gain": b"[0.8, 0.7, 0.9]", "domains.2.noise_scale": b"0.01",
        "faults": b'[{"agent": "uav-l2", "step": 4}]', "oracle.temperature": b"0.08",
        "oracle.height": b"32", "calibration.quantile": b"0.99",
    }
    for dotted, value in overrides.items():
        def run_set(text: bytes, dotted=dotted) -> None:
            d = json.loads(config_text)
            _apply_override(d, f"{dotted}={text.decode('utf-8', 'replace')}")
            ScenarioConfig.from_dict(d)

        fuzz(run_set, [value], rng)
