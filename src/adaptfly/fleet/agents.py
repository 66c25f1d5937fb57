"""Per-agent adaptation loops.

Each agent applies at most one prompt on a frame, held in ``prompt``: an
adopted token-prompt assembly, a searched sparse visual prompt, or None
for an unprompted model.

Limited agents are forward-only: on detected drift they fetch the most
similar token prompts from the server, assemble them, and keep predicting
with the adopted assembly until the next drift. They never optimize.

Massive agents, on drift or on a refresh, first query the pool the same
way and adopt a relevant assembly that lowers the frame's entropy; only
when none is adopted do they optimize a sparse visual prompt, distill it
into a token prompt (or register a deferred marker) and upload it. On
quiet frames they keep predicting with an adopted assembly, or warp the
searched prompt along the known camera motion, refreshing when the warp
sheds too many pixels or the uncertainty map moves materially.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from ..cmaes import optimize_svp
from ..distill import DistillConfig, distill_iterative
from ..drift import DriftTracker, detect, reset_reference
from ..memory import PoolEntry, assemble
from ..prompts import SparseVisualPrompt, TokenPrompt, place_mask, warp_svp
from .config import AgentSpec, LimitedSpec, MassiveSpec
from .mec import ProvenanceLog
from .messages import Query, RegisterDeferred, UploadPrompt
from .transport import TransportFailure

__all__ = ["StepRecord", "LimitedAgent", "MassiveAgent", "RECORD_COLUMNS", "ADAPTATION_EVENTS"]

ADAPTATION_EVENTS = ("none", "retrieve", "optimize", "warp")


@dataclass(slots=True)
class StepRecord:
    """One row of the metrics table: what one agent did at one step.

    The fields, in order, are the table's columns (``RECORD_COLUMNS``).
    """

    step: int
    agent_id: str
    domain: str
    drift_score: float
    shift_flag: bool
    mean_entropy: float
    adaptation_event: str  # one of ADAPTATION_EVENTS
    bytes_sent: int
    bytes_received: int
    pool_size: int = 0
    retrieved: int = 0
    degraded: bool = False

    def as_row(self) -> list:
        return [getattr(self, c) for c in RECORD_COLUMNS]


RECORD_COLUMNS = tuple(f.name for f in fields(StepRecord))


class _Agent:
    """What both agent kinds share: a step senses, decides, then records.

    ``_sense`` marks the client's byte counters and runs drift detection on
    the frame; each kind's ``step`` makes its own decision, retrieving
    through ``_query`` and ``_try_adopt``; ``_record`` builds the step's
    metrics row with the bytes moved since ``_sense``. ``step`` stays in
    each kind's own body, so the two kinds' steps can be wrapped and timed
    apart. ``prompt`` is the prompt in use, None when unprompted, and
    ``_entropy`` the frame's mean entropy under it.
    """

    # A retrieved assembly is adopted only when the best hit's key actually
    # matches the query this closely AND the assembly lowers entropy on the
    # current frame. Below the floor the hit is some other domain's prompt;
    # the detector then stays hot and the retrieval is retried, so an
    # irrelevant early hit cannot disarm adaptation before the right prompt
    # reaches the pool.
    ADOPT_SIMILARITY_FLOOR = 0.9

    def __init__(self, spec: AgentSpec, oracle, client, tracker: DriftTracker):
        self.spec = spec
        self.oracle = oracle
        self.client = client
        self.tracker = tracker
        self.prompt: TokenPrompt | SparseVisualPrompt | None = None
        self._request_id = 0

    def _sense(self, frame: np.ndarray):
        """``(stats, shift, score)`` of the frame; starts the step's byte window."""
        self._sent0 = self.client.bytes_sent
        self._received0 = self.client.bytes_received
        stats = self.oracle.stem_stats(frame)
        shift, score, _ = detect(self.tracker, stats)
        return stats, shift, score

    def _query(self, q: np.ndarray, n: int) -> list[PoolEntry]:
        """The pool's ``n`` entries nearest ``q``; raises TransportFailure if
        the query is dropped."""
        self._request_id += 1
        response = self.client.request(Query(query=tuple(q), n=n, request_id=self._request_id))
        return [d.entry for d in response.entries]

    def _try_adopt(self, frame: np.ndarray, q: np.ndarray, entries: list[PoolEntry],
                   baseline: float | None = None):
        """The assembly of ``entries`` if adopted on ``frame``, else None, and
        the frame's entropy if the check predicted it: prompted if adopted,
        unprompted if not. Only a relevant retrieval is assembled and checked;
        ``baseline`` is the frame's unprompted mean entropy when the caller
        already has it."""
        if not (entries and float(q @ entries[0].key) >= self.ADOPT_SIMILARITY_FLOOR):
            return None, None
        candidate = assemble(entries)
        if baseline is None:
            baseline = float(self.oracle.entropy_map(frame).mean())
        adapted = float(self.oracle.entropy_map(frame, candidate).mean())
        if adapted < baseline - 1e-9 * (1.0 + baseline):
            return candidate, adapted
        return None, baseline

    def _entropy(self, frame: np.ndarray, base: np.ndarray | None = None) -> float:
        """Mean entropy of ``frame`` under ``self.prompt``. ``base`` is the
        frame's unprompted entropy map when the caller already has it; a
        sparse prompt re-scores only its pixels on it, which equals the full
        prompted map bit for bit."""
        p = self.prompt
        if isinstance(p, TokenPrompt):
            return float(self.oracle.entropy_map(frame, p).mean())
        if p is not None:
            return float(self.oracle.svp_scorer(frame, p.coords, base)(p.offsets[None])[0])
        return float((self.oracle.entropy_map(frame) if base is None else base).mean())

    def _record(self, t: int, domain_tag: str | None, shift: bool, score: float,
                event: str, entropy: float, **outcome) -> StepRecord:
        return StepRecord(
            step=t,
            agent_id=self.spec.id,
            domain=domain_tag or "",
            drift_score=score,
            shift_flag=shift,
            mean_entropy=entropy,
            adaptation_event=event,
            bytes_sent=self.client.bytes_sent - self._sent0,
            bytes_received=self.client.bytes_received - self._received0,
            **outcome,
        )


class LimitedAgent(_Agent):
    """Forward-only retrieval adaptation, run from a LimitedSpec."""

    def __init__(self, spec: LimitedSpec, oracle, client, tracker: DriftTracker):
        super().__init__(spec, oracle, client, tracker)
        self._adopted_ids: tuple[int, ...] = ()

    def step(
        self, t: int, frame: np.ndarray, motion=(0, 0), domain_tag: str | None = None
    ) -> StepRecord:
        stats, shift, score = self._sense(frame)
        event, retrieved, degraded = "none", 0, False
        entropy = None  # set when the retrieval check already predicted the frame

        if shift:
            event = "retrieve"
            q = self.oracle.query_embedding(frame)
            try:
                entries = self._query(q, self.spec.retrieval_n)
                adopted, entropy = self._try_adopt(frame, q, entries)
                # A detected shift expires the stale assembly: it was selected
                # for the previous domain. Without an adoption the agent
                # predicts unprompted until a relevant prompt can be adopted.
                ids = () if adopted is None else tuple(e.entry_id for e in entries)
                if ids and ids != self._adopted_ids:
                    # Genuinely new content: re-arm detection for the next
                    # shift. Re-pulling the same entries (a tail score on a
                    # quiet stream) must not re-anchor, or the settling
                    # window could blind the detector across a real boundary.
                    reset_reference(self.tracker, stats)
                self.prompt, self._adopted_ids, retrieved = adopted, ids, len(ids)
            except TransportFailure:
                degraded = True  # previous assembly stays in use

        if entropy is None:
            entropy = self._entropy(frame)
        return self._record(t, domain_tag, shift, score, event, entropy,
                            retrieved=retrieved, degraded=degraded)


class MassiveAgent(_Agent):
    """Pool reuse, else sparse-prompt search, warp propagation and uploads,
    run from a MassiveSpec."""

    # A pool query asks for as many entries as a limited agent's by default.
    RETRIEVAL_N = LimitedSpec.retrieval_n

    def __init__(self, spec: MassiveSpec, oracle, client, tracker: DriftTracker,
                 distill_config: DistillConfig, provenance: ProvenanceLog, seed: int):
        super().__init__(spec, oracle, client, tracker)
        self.search = spec.search_config(*oracle.frame_shape)  # each search sets its seed
        self.distill_config = distill_config
        self.provenance = provenance
        self.seed = seed
        self.ref_umap: np.ndarray | None = None
        self._domain_window: list[np.ndarray] = []
        self._retry_queue: list = []

    # Per-step deterministic seed streams.
    def _mc_seed(self, t: int) -> int:
        return (self.seed * 1_000_003 + t) % (2**31)

    def _cma_seed(self, t: int) -> int:
        return (self.seed * 7_777_777 + t + 1) % (2**31)

    def _flush_retries(self) -> bool:
        degraded = False
        still_pending = []
        for msg in self._retry_queue:
            try:
                self.client.send(msg)
            except TransportFailure:
                degraded = True
                still_pending.append(msg)
        self._retry_queue = still_pending
        return degraded

    def _optimize(self, t: int, frame: np.ndarray, domain_tag: str | None,
                  umap: np.ndarray, key: np.ndarray) -> tuple[float, bool]:
        """Full adaptation: place mask, search offsets, publish.

        ``umap`` is the frame's entropy map; it becomes the refresh
        reference and the search's unprompted base. ``key``, the frame's
        query embedding, keys the upload.
        The searched prompt replaces any adopted assembly. Returns the
        search's best entropy and whether the upload was dropped (and
        queued for retry).
        """
        mc_map = self.oracle.uncertainty_map(
            frame, self.spec.mc_passes, self.spec.dropout_rate, self._mc_seed(t)
        )
        coords = place_mask(mc_map, self.search.dimension // 3)  # three offsets per pixel
        config = replace(self.search, seed=self._cma_seed(t))
        result = optimize_svp(self.oracle, frame, coords, config, base=umap)
        self.prompt, self.ref_umap = result.prompt, umap

        if self.spec.defer_distill:  # the server distills on demand, from this record
            self.provenance.record(self.spec.id, t, self._domain_window, result.prompt)
            msg = RegisterDeferred(
                query=tuple(key), agent_id=self.spec.id, timestamp=t,
                domain_tag=domain_tag,
            )
        else:
            prompt = distill_iterative(
                self.oracle, self._domain_window, result.prompt, self.distill_config
            )
            msg = UploadPrompt(
                key=tuple(key), value=prompt, timestamp=t, agent_id=self.spec.id,
                domain_tag=domain_tag,
            )
        try:
            self.client.send(msg)
        except TransportFailure:
            self._retry_queue.append(msg)
            return float(result.best_fitness), True
        return float(result.best_fitness), False

    def step(
        self, t: int, frame: np.ndarray, motion=(0, 0), domain_tag: str | None = None
    ) -> StepRecord:
        stats, shift, score = self._sense(frame)
        degraded = self._flush_retries()

        if shift:
            self._domain_window = [frame]
        else:
            self._domain_window.append(frame)
            self._domain_window = self._domain_window[-self.distill_config.frames :]

        if isinstance(self.prompt, TokenPrompt) and not shift:
            # An adopted assembly has no sparse prompt to warp: the prompted
            # map is the step's one forward pass.
            return self._record(t, domain_tag, shift, score, "none", self._entropy(frame),
                                degraded=degraded)

        # The frame's one unprompted forward pass, noise-free so the refresh
        # trigger compares scene change rather than Monte-Carlo jitter. It is
        # also the adoption check's baseline, the search's base, the entropy
        # of every pixel a warped prompt leaves alone, and the step's entropy
        # when nothing adapts.
        umap = self.oracle.entropy_map(frame)
        if shift:
            event = "optimize"
            reset_reference(self.tracker, stats)  # re-arm detection for the next shift
        elif self.prompt is not None:
            warped, refresh = warp_svp(self.prompt, motion)
            ref = self.ref_umap
            moved = float(np.abs(umap - ref).sum()) / max(float(np.abs(ref).sum()), 1e-12)
            event = "optimize" if refresh or moved > self.spec.delta_refresh else "warp"
        else:
            event = "none"

        retrieved = 0
        if event == "optimize":
            # Reuse before search: a pooled assembly for this domain (most
            # often this agent's own earlier upload) replaces the search,
            # its distillation and its upload.
            key = self.oracle.query_embedding(frame)
            try:
                entries = self._query(key, self.RETRIEVAL_N)
                adopted, entropy = self._try_adopt(frame, key, entries, float(umap.mean()))
            except TransportFailure:
                adopted, degraded = None, True
            if adopted is not None:
                event, retrieved, self.prompt = "retrieve", len(entries), adopted
            else:
                entropy, dropped = self._optimize(t, frame, domain_tag, umap, key)
                degraded |= dropped
        else:
            if event == "warp":
                self.prompt = warped
            entropy = self._entropy(frame, umap)
        return self._record(t, domain_tag, shift, score, event, entropy,
                            retrieved=retrieved, degraded=degraded)
