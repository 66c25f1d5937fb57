"""The benchmark workloads: inputs, one closed-loop round, checks.

Every round of a workload repeats exactly the same operations on the same
inputs, so its outputs (digest, wire bytes, entropy) are identical from
round to round; the harness compares each round's digest with the
checked first round. A round records, per op, the time from the previous
op's completion to this one's, less the time the benchmark's own checks
took in between.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

import adaptfly.fleet.mec as mec_mod
import adaptfly.fleet.transport as transport_mod
from adaptfly.distill import (
    DistillConfig,
    closed_form_solution,
    distill_iterative,
    distill_objective,
)
from adaptfly.fleet import (
    LimitedAgent,
    MassiveAgent,
    ProvenanceLog,
    Query,
    RefineTick,
    RegisterDeferred,
    StreamClient,
    UploadPrompt,
    metrics_csv,
    reference_config,
    run_scenario,
)
from adaptfly.memory import PoolConfig, PoolEntry, PromptPool, assemble
from adaptfly.oracle import (
    make_toy_oracle,
    mean_entropy,
    planted_correction,
    random_domain_spec,
    render_frame,
)
from adaptfly.prompts import TokenPrompt, place_mask, sparsity_budget

import checks
from tracing import patch_function, patch_method, unpatch

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# pool_service's domains are drawn once from a fixed stream, so that --seed
# varies noise, frames, keys and op order but not which shifts exist.
GEOGRAPHY_SEED = 0


def geography(count: int):
    rng = np.random.default_rng(GEOGRAPHY_SEED)
    return [random_domain_spec(rng, f"d{i}") for i in range(count)]


@dataclass
class Round:
    gaps: list          # per op: seconds since the previous op completed
    probes: list        # host_probe() seconds, before the first op and every PROBE_EVERY
    failed: int
    wire_bytes: int
    entropy: float
    digest: str
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.gaps)


# The host's speed drifts: the same work runs up to 2x slower for minutes
# at a time. Each round therefore times this fixed probe every PROBE_EVERY
# ops, off the op clock, and the harness scales op times to a fixed probe
# time (run.PROBE_REF_S).
PROBE_EVERY = 50

_probe_rng = np.random.default_rng(2511)
_PROBE_KEYS = list(_probe_rng.standard_normal((300, 48)))
_PROBE_SYM = _probe_rng.standard_normal((60, 60))
_PROBE_SYM = _PROBE_SYM + _PROBE_SYM.T
_PROBE_FLOATS = [float(x) for x in _probe_rng.standard_normal(1500)]
_PROBE_IMAGE = _probe_rng.random((32, 32, 3))
_PROBE_PROTOS = _probe_rng.random((5, 3))


def host_probe() -> float:
    """Seconds for a fixed mix of the kinds of work the library does.

    Interpreter loops over small arrays and a sort (as in retrieval), a JSON
    round trip of floats (as in the codec), a small eigendecomposition (as
    in CMA-ES) and an einsum (as in the oracle). It calls nothing from
    adaptfly, so it measures only how fast the host runs just then.
    """
    t0 = time.perf_counter()
    q = _PROBE_KEYS[0]
    sims = [float(q @ k) for k in _PROBE_KEYS]
    sorted(range(len(sims)), key=lambda i: (-sims[i], i))
    json.loads(json.dumps(_PROBE_FLOATS))
    np.linalg.eigh(_PROBE_SYM)
    np.einsum("ijc,kc->kij", _PROBE_IMAGE, _PROBE_PROTOS)
    return time.perf_counter() - t0


class OpClock:
    """Completion times of ops, with checks and probes taken off the clock."""

    def __init__(self):
        self.paused = 0.0
        self.marks: list[float] = []
        self.probes = [host_probe()]
        self.start = self.now()

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def mark(self) -> None:
        self.marks.append(self.now())
        if len(self.marks) % PROBE_EVERY == 0:
            t0 = time.perf_counter()
            self.probes.append(host_probe())
            self.paused += time.perf_counter() - t0

    def gaps(self) -> list[float]:
        return list(np.diff([self.start] + self.marks))


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8") if isinstance(p, str) else repr(p).encode("utf-8"))
    return h.hexdigest()


def _mark_steps(clock: OpClock, undo: list) -> None:
    """Each agent step is one op of the scenario workloads."""
    def wrapper(fn):
        def step(*args, **kwargs):
            out = fn(*args, **kwargs)
            clock.mark()
            return out

        return step

    patch_method(LimitedAgent, "step", wrapper, undo)
    patch_method(MassiveAgent, "step", wrapper, undo)


def _capture_searches(searches: list, undo: list) -> None:
    def make(fn):
        def optimize(oracle, x, coords, config, *args, **kwargs):
            result = fn(oracle, x, coords, config, *args, **kwargs)
            searches.append((oracle, np.array(x), np.array(coords), result))
            return result

        return optimize

    patch_function("adaptfly.cmaes", "optimize_svp", make, undo)


class _WireChecks:
    """Checks on the live wire and server; their time is kept off the clock."""

    def __init__(self, clock: OpClock):
        self.clock = clock
        self.reader = checks.FrameReader()
        self.failures: list[str] = []
        self.resolved: list = []  # (agent_id, timestamp, TokenPrompt)
        self.replies = 0
        self.ticks = 0

    def install(self, undo: list) -> None:
        clock, reader = self.clock, self.reader

        def pipe_write(fn):
            def write(pipe, data):
                t0 = time.perf_counter()
                reader.feed(id(pipe), data)
                clock.paused += time.perf_counter() - t0
                return fn(pipe, data)

            return write

        def handle(fn):
            def wrapped(server, msg):
                response = fn(server, msg)
                t0 = time.perf_counter()
                pool = server.pool
                if isinstance(msg, Query):
                    refined = pool.entries()[: pool.refined_size]
                    self.failures += checks.check_reply(
                        refined, msg.query, msg.n, response.entries
                    )
                    self.replies += 1
                elif isinstance(msg, RefineTick):
                    self.failures += checks.check_capacity(
                        pool.refined_size, pool.pending_size, pool.config.capacity
                    )
                    self.ticks += 1
                clock.paused += time.perf_counter() - t0
                return response

            return wrapped

        def resolve(fn):
            def wrapped(pool, entry_id, distiller):
                entry = pool.get(entry_id)
                who = (entry.value.agent_id, entry.timestamp) if entry.is_deferred else None
                out = fn(pool, entry_id, distiller)
                if who is not None:
                    self.resolved.append((*who, out.value))
                return out

            return wrapped

        patch_method(transport_mod.BytePipe, "write", pipe_write, undo)
        patch_method(mec_mod.MecServer, "handle", handle, undo)
        patch_method(PromptPool, "resolve_deferred", resolve, undo)

    def finish(self, accounted_bytes: int, controller_types) -> list[str]:
        failures = self.failures + self.reader.finish(accounted_bytes, controller_types)
        if not self.replies or not self.ticks:
            failures.append("checked round saw no query reply or no refine tick")
        return failures


def _shifted(config: dict) -> list[str]:
    return [d["id"] for d in config["domains"]
            if tuple(d["gain"]) != (1.0, 1.0, 1.0) or tuple(d["bias"]) != (0.0, 0.0, 0.0)]


def _limited(config: dict) -> list[str]:
    return [a["id"] for a in config["agents"] if a["kind"] == "limited"]


# -- reference ----------------------------------------------------------------


class Reference:
    """reference_config for five consecutive seeds under inproc."""

    name = "reference"

    def __init__(self, tiny: bool = False):
        self.seeds = 1 if tiny else 5

    def prepare(self, seed: int) -> None:
        pass

    def setup(self, seed: int) -> dict:
        return {"seed": seed, "configs": [reference_config(seed + i) for i in range(self.seeds)]}

    def warmup(self, st: dict) -> None:
        """Rerun the first seed under ``stream``, checking the wire as it goes.

        This transport check doubles as the warm-up pass; it is not timed.
        """
        clock, undo = OpClock(), []
        wire = _WireChecks(clock)
        try:
            wire.install(undo)
            res = run_scenario(reference_config(st["seed"], transport="stream"))
        finally:
            unpatch(undo)
        st["stream_csv"] = metrics_csv(res.records)
        st["wire_failures"] = wire.finish(
            sum(r.bytes_sent + r.bytes_received for r in res.records),
            controller_types=("refine_tick",),
        )

    def round(self, st: dict, check: bool) -> Round:
        configs = st["configs"]
        undo: list = []
        searches: list = []
        clock = OpClock()
        try:
            _mark_steps(clock, undo)
            if check:
                _capture_searches(searches, undo)
            clock.start = clock.now()
            results = [run_scenario(c) for c in configs]
        finally:
            unpatch(undo)
        records = [r for res in results for r in res.records]
        shifted = set().union(*(_shifted(c) for c in configs))
        csvs = [metrics_csv(res.records) for res in results]
        rnd = Round(
            gaps=clock.gaps(),
            probes=clock.probes,
            failed=sum(r.degraded for r in records),
            wire_bytes=sum(r.bytes_sent + r.bytes_received for r in records),
            entropy=float(np.mean([r.mean_entropy for r in records if r.domain in shifted])),
            digest=_digest(csvs),
            extra={"results": results, "searches": searches},
        )
        if check:
            rnd.failures += checks.check_searches(searches)
            for cfg, res in zip(configs, results):
                rnd.failures += checks.check_adaptation(
                    res.records, _limited(cfg), _shifted(cfg)
                )
            if csvs[0] != st["stream_csv"]:
                rnd.failures.append(f"seed {st['seed']}: stream metrics.csv differs from inproc")
            rnd.failures += st["wire_failures"]
        return rnd


# -- pool_service -------------------------------------------------------------

LIVE_PER_DOMAIN = 4
PROMPT_ROWS = 4
TOKEN_DIM = 48
PROVENANCE_WINDOW = 400
# One block: 15 queries, 2 uploads (one merging into a live domain, one with
# a fresh key that overflows capacity), 1 deferred registration and 2 ticks.
# The order is the same for every seed, so the seed changes what the ops
# carry but not which writes precede each tick, whose cost depends on them.
BLOCK = (["query"] * 4 + ["upload_merge"] + ["query"] * 4 + ["tick"] + ["query"] * 3
         + ["upload_new", "deferred"] + ["query"] * 4 + ["tick"])


class PoolService:
    """One client drives MecServer over a restored pool of thousands."""

    name = "pool_service"

    def __init__(self, tiny: bool = False):
        self.stale, self.live_domains, self.blocks = (200, 2, 3) if tiny else (2000, 8, 50)
        self.distill = DistillConfig(rows=PROMPT_ROWS, steps=8, frames=3, precision="f32")

    def _prompt(self, oracle, domain, index: int, coords):
        frames = [render_frame(oracle, domain, index + j) for j in range(self.distill.frames)]
        svp = planted_correction(oracle, domain, index, coords)
        return frames, svp, distill_iterative(oracle, frames, svp, self.distill)

    def _domains(self, oracle, seed: int):
        domains = [replace(d, seed=(d.seed + 7919 * seed) % (2**31))
                   for d in geography(self.live_domains)]
        h, w = oracle.frame_shape
        k = sparsity_budget(0.05, h, w)
        masks = [place_mask(oracle.uncertainty_map(render_frame(oracle, d, 0), 1, 0.0, 0), k)
                 for d in domains]
        return domains, masks

    @staticmethod
    def _path(seed: int) -> str:
        # Private to this process, which removes it when it exits: the file
        # is about 10 MB and later rounds restore the pool from it.
        return os.path.join(OUT_DIR, f"pool-{seed}-{os.getpid()}.jsonl")

    def prepare(self, seed: int) -> None:
        """Persist the pool the server restores: stale entries plus live ones.

        Written once per run, before set-up is timed: serializing it is the
        benchmark's work, restoring it (PromptPool.load) is the program's.
        """
        rng = np.random.default_rng([seed, 1])
        oracle = make_toy_oracle(seed=7)
        domains, masks = self._domains(oracle, seed)
        entries = []
        for j in range(self.stale):
            entries.append(PoolEntry(
                entry_id=j, key=_unit(rng.standard_normal(TOKEN_DIM)),
                value=TokenPrompt(rng.normal(scale=0.05, size=(PROMPT_ROWS, TOKEN_DIM))),
                timestamp=int(rng.integers(0, 1000)), agent_id=f"stale-{j % 50}",
            ))
        for di, d in enumerate(domains):
            for c in range(LIVE_PER_DOMAIN):
                frames, _, prompt = self._prompt(oracle, d, -(1 + 8 * len(entries)), masks[di])
                entries.append(PoolEntry(
                    entry_id=len(entries), key=oracle.query_embedding(frames[0]),
                    value=prompt, timestamp=1000 + len(entries), agent_id=f"uav-h{c}",
                    domain_tag=d.id,
                ))
        os.makedirs(OUT_DIR, exist_ok=True)
        atexit.register(os.remove, self._path(seed))
        with open(self._path(seed), "w", encoding="utf-8") as f:
            for e in entries:
                f.write(json.dumps(e.to_dict(), separators=(",", ":")) + "\n")

    def setup(self, seed: int) -> dict:
        """Oracle, the op schedule with its rendered frames, and the restored pool."""
        rng = np.random.default_rng(seed)
        oracle = make_toy_oracle(seed=7)
        domains, masks = self._domains(oracle, seed)
        next_frame = iter(range(1, 10**9, 8))
        # Each kind of op visits the domains equally often, in seeded order:
        # domains differ in entropy, so an unbalanced mix would move
        # entropy_nats from seed to seed.
        visits = {kind: iter(rng.permutation(np.resize(np.arange(len(domains)),
                                                       self.blocks * BLOCK.count(kind))))
                  for kind in dict.fromkeys(BLOCK)}
        ops, query_frames, provenance = [], [], {}
        for b in range(self.blocks):
            for kind in BLOCK:
                t = len(ops)
                d_i = int(next(visits[kind]))
                d = domains[d_i]
                if kind == "query":
                    frame = render_frame(oracle, d, next(next_frame))
                    query_frames.append(frame)
                    ops.append(("query", Query(query=tuple(oracle.query_embedding(frame)),
                                               n=2, request_id=len(query_frames)), None))
                elif kind == "upload_merge":
                    frames, _, prompt = self._prompt(oracle, d, next(next_frame), masks[d_i])
                    ops.append(("send", UploadPrompt(
                        key=tuple(oracle.query_embedding(frames[0])), value=prompt,
                        timestamp=1000 + t, agent_id="uav-up", domain_tag=d.id), None))
                elif kind == "upload_new":
                    value = TokenPrompt(rng.normal(scale=0.05, size=(PROMPT_ROWS, TOKEN_DIM)))
                    ops.append(("send", UploadPrompt(
                        key=tuple(_unit(rng.standard_normal(TOKEN_DIM))), value=value,
                        timestamp=1000 + t, agent_id="uav-new"), None))
                elif kind == "deferred":
                    frames, svp, _ = self._prompt(oracle, d, next(next_frame), masks[d_i])
                    # An expired registration names a step that left the
                    # provenance window long ago, so nothing is recorded.
                    expired = b % 3 == 2
                    stamp = 1000 + t - (2 * PROVENANCE_WINDOW if expired else 0)
                    record = None if expired else ("uav-def", stamp, frames, svp)
                    if record is not None:
                        provenance[("uav-def", stamp)] = (frames, svp)
                    ops.append(("send", RegisterDeferred(
                        query=tuple(oracle.query_embedding(frames[0])), agent_id="uav-def",
                        timestamp=stamp, domain_tag=d.id), record))
                else:
                    ops.append(("send", RefineTick(), None))
        st = {"seed": seed, "oracle": oracle, "path": self._path(seed),
              "capacity": self.stale + LIVE_PER_DOMAIN * len(domains),
              "ops": ops, "query_frames": query_frames, "provenance": provenance}
        st["fresh_pool"] = self.load_pool(st)
        return st

    def load_pool(self, st: dict) -> PromptPool:
        return PromptPool.load(st["path"], PoolConfig(capacity=st["capacity"]))

    def warmup(self, st: dict) -> None:
        pass

    def round(self, st: dict, check: bool) -> Round:
        pool = st.pop("fresh_pool", None) or self.load_pool(st)
        log = ProvenanceLog(window=PROVENANCE_WINDOW)
        server = mec_mod.MecServer(pool, st["oracle"], self.distill, log)
        client = StreamClient(server)
        undo: list = []
        clock = OpClock()
        wire = _WireChecks(clock) if check else None
        replies = []
        try:
            if wire is not None:
                wire.install(undo)
            clock.start = clock.now()
            for kind, msg, record in st["ops"]:
                if kind == "query":
                    replies.append(client.request(msg).entries)
                else:
                    if record is not None:
                        agent, stamp, frames, svp = record
                        log.record(agent, stamp, frames, svp)
                    client.send(msg)
                clock.mark()
        finally:
            unpatch(undo)
        rnd = Round(
            gaps=clock.gaps(), probes=clock.probes, failed=0,
            wire_bytes=client.bytes_sent + client.bytes_received, entropy=0.0,
            digest=_digest([tuple(e["entry_id"] for e in r) for r in replies]
                           + [client.bytes_sent, client.bytes_received, pool.size]),
        )
        if wire is not None:
            rnd.entropy = self._entropy(st, replies)
            rnd.failures += wire.finish(rnd.wire_bytes, controller_types=())
            rnd.failures += self._check_resolved(st, wire.resolved)
            if not wire.resolved:
                rnd.failures.append("checked round resolved no deferred entry")
        return rnd

    def _entropy(self, st: dict, replies) -> float:
        oracle = st["oracle"]
        values = []
        for frame, entries in zip(st["query_frames"], replies):
            prompt = assemble([PoolEntry.from_dict(e) for e in entries])
            values.append(mean_entropy(oracle.predict(frame, prompt if prompt.rows else None)))
        return float(np.mean(values))

    def _check_resolved(self, st: dict, resolved) -> list[str]:
        oracle, n = st["oracle"], self.distill.frames
        failures = []
        for agent, stamp, prompt in resolved:
            if (agent, stamp) not in st["provenance"]:
                failures.append(f"resolved {agent}@{stamp} without provenance")
                continue
            frames, svp = st["provenance"][(agent, stamp)]
            failures += checks.check_resolution(
                lambda fr, s, v: distill_objective(oracle, fr[:n], s, v),
                lambda fr, s, rows: closed_form_solution(oracle, fr[:n], s, rows),
                frames, svp, self.distill.rows, prompt.values,
            )
        return failures


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


WORKLOADS = {w.name: w for w in (Reference, PoolService)}
