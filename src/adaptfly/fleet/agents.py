"""Per-agent adaptation loops.

Limited agents are forward-only: on detected drift they fetch the most
similar token prompts from the server, assemble them, and keep predicting
with the cached assembly until the next drift. They never optimize.

Massive agents optimize a sparse visual prompt on drift, distill it into a
token prompt (or register a deferred marker), upload it, and on quiet
frames warp the previous prompt along the known camera motion,
re-optimizing only when the warp sheds too many pixels or the uncertainty
map moves materially.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields, replace

import numpy as np

from ..cmaes import optimize_svp
from ..distill import DistillConfig, distill_iterative
from ..drift import DriftTracker, detect, reset_reference
from ..memory import PoolEntry, assemble
from ..oracle import mean_entropy
from ..prompts import SparseVisualPrompt, TokenPrompt, place_mask, warp_svp
from .config import AgentSpec
from .mec import ProvenanceLog
from .messages import REPLY_CACHE_ENTRIES, Query, RegisterDeferred, UploadPrompt
from .transport import TransportFailure

__all__ = ["StepRecord", "LimitedAgent", "MassiveAgent", "RECORD_COLUMNS"]


@dataclass
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
    adaptation_event: str  # none | retrieve | optimize | warp
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
    the frame; each kind's ``step`` makes its own decision; ``_record``
    builds the step's metrics row with the bytes moved since ``_sense``.
    ``step`` stays in each kind's own body, so the two kinds' steps can be
    wrapped and timed apart.
    """

    def __init__(self, spec: AgentSpec, oracle, client, tracker: DriftTracker):
        self.spec = spec
        self.oracle = oracle
        self.client = client
        self.tracker = tracker

    def _sense(self, frame: np.ndarray):
        """``(stats, shift, score)`` of the frame; starts the step's byte window."""
        self._sent0 = self.client.bytes_sent
        self._received0 = self.client.bytes_received
        stats = self.oracle.stem_stats(frame)
        shift, score, _ = detect(self.tracker, stats)
        return stats, shift, score

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
    """Forward-only retrieval adaptation, run from a limited ``AgentSpec``."""

    # A retrieved assembly is adopted only when the best hit's key actually
    # matches the query this closely AND the assembly lowers entropy on the
    # current frame. Below the floor the hit is some other domain's prompt;
    # the detector then stays hot and the retrieval is retried, so an
    # irrelevant early hit cannot disarm adaptation before the right prompt
    # reaches the pool.
    ADOPT_SIMILARITY_FLOOR = 0.9

    def __init__(self, spec: AgentSpec, oracle, client, tracker: DriftTracker):
        super().__init__(spec, oracle, client, tracker)
        self.cached = TokenPrompt(np.zeros((0, 0)))
        self._adopted_ids: tuple[int, ...] = ()
        self._request_id = 0
        # entry id -> (reply dict, its PoolEntry), least recently replied first
        self._entries: OrderedDict = OrderedDict()

    def _pool_entry(self, d: dict) -> PoolEntry:
        """The ``PoolEntry`` of reply entry ``d``, parsed once per held dict.

        A back-reference hands back the very dict the client's entry table
        holds, so that dict's entry is reused; a replaced or merged entry
        arrives as a new dict and is parsed again. At most
        ``REPLY_CACHE_ENTRIES`` entries are kept, as in that table.
        """
        entry_id = d.get("entry_id")
        held = self._entries.pop(entry_id, None) if type(entry_id) is int else None
        if held is None or held[0] is not d:
            held = (d, PoolEntry.from_dict(d))
        self._entries[held[1].entry_id] = held
        if len(self._entries) > REPLY_CACHE_ENTRIES:
            self._entries.popitem(last=False)
        return held[1]

    def _try_adopt(self, frame: np.ndarray, q: np.ndarray, entries: list[PoolEntry]):
        """The assembly of ``entries`` if adopted on ``frame``, else None, and
        the frame's entropy if the check predicted it: prompted if adopted,
        unprompted if not. Only a relevant retrieval is assembled and checked."""
        if not (entries and float(q @ entries[0].key) >= self.ADOPT_SIMILARITY_FLOOR):
            return None, None
        candidate = assemble(entries)
        baseline = mean_entropy(self.oracle.predict(frame))
        adapted = mean_entropy(
            self.oracle.predict(frame, candidate if candidate.rows else None)
        )
        if adapted < baseline - 1e-9 * (1.0 + baseline):
            return candidate, adapted
        return None, baseline

    def step(
        self, t: int, frame: np.ndarray, motion=(0, 0), domain_tag: str | None = None
    ) -> StepRecord:
        stats, shift, score = self._sense(frame)
        event, retrieved, degraded = "none", 0, False
        entropy = None  # set when the retrieval check already predicted the frame

        if shift:
            event = "retrieve"
            q = self.oracle.query_embedding(frame)
            self._request_id += 1
            try:
                response = self.client.request(
                    Query(query=tuple(q), n=self.spec.retrieval_n, request_id=self._request_id)
                )
                entries = [self._pool_entry(d) for d in response.entries]
                adopted, entropy = self._try_adopt(frame, q, entries)
                if adopted is not None:
                    self.cached = adopted
                    retrieved = len(entries)
                    ids = tuple(e.entry_id for e in entries)
                    if ids != self._adopted_ids:
                        # Genuinely new content: re-arm detection for the
                        # next shift. Re-pulling the same entries (a tail
                        # score on a quiet stream) must not re-anchor, or
                        # the settling window could blind the detector
                        # across a real boundary.
                        self._adopted_ids = ids
                        reset_reference(self.tracker, stats)
                else:
                    # A detected shift expires the stale assembly: it was
                    # selected for the previous domain. The agent predicts
                    # unprompted until a relevant prompt can be adopted.
                    self.cached = TokenPrompt(np.zeros((0, 0)))
                    self._adopted_ids = ()
            except TransportFailure:
                degraded = True  # previous assembly stays in use

        if entropy is None:
            prompt = self.cached if self.cached.rows else None
            entropy = mean_entropy(self.oracle.predict(frame, prompt))
        return self._record(t, domain_tag, shift, score, event, entropy,
                            retrieved=retrieved, degraded=degraded)


class MassiveAgent(_Agent):
    """Sparse-prompt search, warp propagation and uploads, run from a massive ``AgentSpec``."""

    def __init__(self, spec: AgentSpec, oracle, client, tracker: DriftTracker,
                 distill_config: DistillConfig, provenance: ProvenanceLog, seed: int):
        super().__init__(spec, oracle, client, tracker)
        self.search = spec.search_config(*oracle.frame_shape)  # each search sets its seed
        self.distill_config = distill_config
        self.provenance = provenance
        self.seed = seed
        self.current_svp = SparseVisualPrompt.zeros(
            np.zeros((0, 2), dtype=np.int64), oracle.frame_shape
        )
        self.ref_umap: np.ndarray | None = None
        self._domain_window: list[np.ndarray] = []
        self._retry_queue: list = []
        self.last_result = None

    # Per-step deterministic seed streams.
    def _mc_seed(self, t: int) -> int:
        return (self.seed * 1_000_003 + t) % (2**31)

    def _cma_seed(self, t: int) -> int:
        return (self.seed * 7_777_777 + t + 1) % (2**31)

    def _uncertainty(self, t: int, frame: np.ndarray) -> np.ndarray:
        return self.oracle.uncertainty_map(
            frame, self.spec.mc_passes, self.spec.dropout_rate, self._mc_seed(t)
        )

    def _trigger_map(self, frame: np.ndarray) -> np.ndarray:
        # Deterministic predictive entropy: noise-free, so the refresh
        # trigger compares scene change rather than Monte-Carlo jitter.
        return self.oracle.uncertainty_map(frame, 1, 0.0, 0)

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

    def _optimize(self, t: int, frame: np.ndarray, domain_tag: str | None = None,
                  trigger: np.ndarray | None = None) -> bool:
        """Full adaptation: place mask, search offsets, publish. Returns degraded.

        ``trigger`` is the frame's ``_trigger_map`` when the step has it; it
        becomes the refresh reference and the search's unprompted base.
        """
        if trigger is None:
            trigger = self._trigger_map(frame)
        umap = self._uncertainty(t, frame)
        coords = place_mask(umap, self.search.dimension // 3)  # three offsets per pixel
        config = replace(self.search, seed=self._cma_seed(t))
        result = optimize_svp(self.oracle, frame, coords, config, base=trigger)
        self.current_svp = result.prompt
        self.ref_umap = trigger
        self.last_result = result

        self.provenance.record(self.spec.id, t, self._domain_window, result.prompt)
        key = self.oracle.query_embedding(frame)
        if self.spec.defer_distill:
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
            return False
        except TransportFailure:
            self._retry_queue.append(msg)
            return True

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

        # The frame's one unprompted forward pass is its trigger map: the
        # refresh reference, the search's base, and the entropy of every
        # pixel a warped prompt leaves alone.
        if shift:
            event = "optimize"
            degraded |= self._optimize(t, frame, domain_tag)
            # Local adaptation done; re-arm detection for the next shift.
            reset_reference(self.tracker, stats)
        elif self.current_svp.size:
            warped, refresh = warp_svp(self.current_svp, motion)
            umap = self._trigger_map(frame)
            ref_mass = float(np.abs(self.ref_umap).sum()) if self.ref_umap is not None else 0.0
            map_moved = (
                self.ref_umap is not None
                and float(np.abs(umap - self.ref_umap).sum()) / max(ref_mass, 1e-12)
                > self.spec.delta_refresh
            )
            if refresh or map_moved:
                event = "optimize"
                degraded |= self._optimize(t, frame, domain_tag, umap)
            else:
                event = "warp"
                self.current_svp = warped
                score_warped = self.oracle.svp_scorer(frame, warped.coords, umap)
                entropy = float(score_warped(warped.offsets[None])[0])
        else:
            event = "none"
            entropy = mean_entropy(self.oracle.predict(frame))

        if event == "optimize":
            entropy = float(self.last_result.best_fitness)
        return self._record(t, domain_tag, shift, score, event, entropy, degraded=degraded)
