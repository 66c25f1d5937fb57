"""Consolidation server: hosts the prompt pool and resolves deferred entries.

The server is the single writer of the pool. Uploads and registrations
append to the pending set; refine ticks consolidate; queries are served
from the whole pool, materializing deferred entries on demand through the
shared frozen oracle. Entries whose provenance has expired are removed so
queries stop serving them.

Many agents pull the same few entries, so the server encodes each served
entry once and sends that text until the entry changes: reply entries are
read-only ``EncodedDict``s. The texts belong to the server, not the pool,
and those of entries that left the pool are pruned at each refine tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..distill import DistillConfig, distill_iterative
from ..errors import EmptyPoolError, ProtocolError, ResolutionError
from ..memory import DeferredMarker, PoolEntry, PromptPool
from ..prompts import EncodedDict, SparseVisualPrompt
from .messages import (
    FleetMessage,
    Query,
    QueryResponse,
    RefineTick,
    RegisterDeferred,
    UploadPrompt,
)

__all__ = ["ProvenanceLog", "MecServer"]


@dataclass
class ProvenanceLog:
    """Rolling record of each agent's optimization outputs.

    Deferred entries are resolved from here: the registering agent's
    frames and sparse prompt must still be inside the window, otherwise
    the provenance has expired.
    """

    window: int = 64
    _records: dict = field(default_factory=dict)
    _clock: int = 0

    def record(
        self, agent_id: str, step: int, frames: list[np.ndarray], svp: SparseVisualPrompt
    ) -> None:
        self._records.setdefault(agent_id, []).append(
            {"step": int(step), "frames": [f.copy() for f in frames], "svp": svp}
        )
        self.advance(step)

    def advance(self, step: int) -> None:
        """Move the clock forward and prune records older than the window."""
        self._clock = max(self._clock, int(step))
        horizon = self._clock - self.window
        for agent_id in list(self._records):
            kept = [r for r in self._records[agent_id] if r["step"] >= horizon]
            if kept:
                self._records[agent_id] = kept
            else:
                del self._records[agent_id]

    def lookup(self, agent_id: str, step: int):
        """Record the agent logged at exactly ``step``, or None."""
        for r in self._records.get(agent_id, ()):
            if r["step"] == int(step):
                return r
        return None


class MecServer:
    """Shared-memory host mediating uploads, retrievals and consolidation."""

    def __init__(
        self,
        pool: PromptPool,
        oracle,
        distill_config: DistillConfig,
        provenance: ProvenanceLog | None = None,
    ):
        self.pool = pool
        self.oracle = oracle
        self.distill_config = distill_config
        self.provenance = provenance or ProvenanceLog()
        self._ops = 0  # server-local clock for retrieval recency
        # entry_id -> (key, value, (timestamp, agent_id, domain_tag), text)
        self._texts: dict[int, tuple] = {}

    def handle(self, msg: FleetMessage) -> FleetMessage | None:
        self._ops += 1
        if isinstance(msg, UploadPrompt):
            self.pool.insert(
                key=np.asarray(msg.key),
                value=msg.value,
                timestamp=msg.timestamp,
                agent_id=msg.agent_id,
                domain_tag=msg.domain_tag,
            )
            return None
        if isinstance(msg, RegisterDeferred):
            self.pool.insert(
                key=np.asarray(msg.query),
                value=DeferredMarker(np.asarray(msg.query), msg.agent_id),
                timestamp=msg.timestamp,
                agent_id=msg.agent_id,
                domain_tag=msg.domain_tag,
            )
            return None
        if isinstance(msg, Query):
            return QueryResponse(
                request_id=msg.request_id, entries=tuple(self._query(msg))
            )
        if isinstance(msg, RefineTick):
            self.pool.refine()
            cached = np.fromiter(self._texts, np.int64, len(self._texts))
            live = cached[np.isin(cached, self.pool.entry_ids())]
            self._texts = {i: self._texts[i] for i in live.tolist()}
            return None
        raise ProtocolError(f"server cannot handle {type(msg).__name__}")

    def _query(self, msg: Query) -> list[dict]:
        """Top-N retrieval; deferred hits are distilled on demand or dropped.

        Entries are the hits' ``PoolEntry.wire_dict``s, each encoded once
        (``_encoded``): the pool's own prompts, which the codec writes at
        their stored precision.
        """
        q = np.asarray(msg.query)
        while True:
            try:
                hits = self.pool.query_topn(q, msg.n, step=self._ops)
            except EmptyPoolError:
                return []
            deferred = [e for e in hits if e.is_deferred]
            if not deferred:
                return [self._encoded(e) for e in hits]
            entry = deferred[0]
            try:
                self.pool.resolve_deferred(entry.entry_id, self._distiller(entry))
            except ResolutionError:
                pass  # resolve_deferred already dropped the entry; re-rank

    def _encoded(self, entry: PoolEntry) -> EncodedDict:
        """The entry's ``wire_dict`` with its text, re-encoded only on change.

        The text stays valid while every field ``wire_dict`` writes does: a
        merge or a resolution assigns a new key or value object (keys are
        read-only arrays and TokenPrompts frozen), so those compare by
        identity. ``last_retrieved`` is not on the wire.
        """
        fields = (entry.timestamp, entry.agent_id, entry.domain_tag)
        cached = self._texts.get(entry.entry_id)
        if (cached is None or cached[0] is not entry.key or cached[1] is not entry.value
                or cached[2] != fields):
            cached = (entry.key, entry.value, fields, EncodedDict(entry.wire_dict()))
            self._texts[entry.entry_id] = cached
        return cached[3]

    def _distiller(self, entry):
        def distiller(marker: DeferredMarker):
            record = self.provenance.lookup(marker.agent_id, entry.timestamp)
            if record is None:
                raise ResolutionError(
                    f"provenance for agent {marker.agent_id} at step "
                    f"{entry.timestamp} has expired"
                )
            return distill_iterative(
                self.oracle, record["frames"], record["svp"], self.distill_config
            )

        return distiller
