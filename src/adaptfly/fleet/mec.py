"""Consolidation server: hosts the prompt pool and resolves deferred entries.

The server is the single writer of the pool. Uploads and registrations
take the same insert into the pending set, a registration with a
``DeferredMarker`` in place of the prompt; refine ticks consolidate;
queries are served from the whole pool, materializing deferred entries on
demand through the shared frozen oracle from the ``ProvenanceLog`` record
at the entry's (agent, step). Entries whose provenance has expired are
removed so queries stop serving them.

Many agents pull the same few entries, so the server encodes each served
entry once and sends that text again: reply entries are read-only
``EncodedDict``s. Pool entries are never changed in place (a merge or a
resolution stores a new entry), so a text stays valid for as long as its
entry lives. The texts are weakly keyed by entry: one that leaves the
pool drops its text, and all of them go with the server. Recency is the
pool's: the server adds no clock of its own.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ..distill import DistillConfig, distill_iterative
from ..errors import EmptyPoolError, ProtocolError, ResolutionError
from ..memory import DeferredMarker, PoolEntry, PromptPool
from ..prompts import EncodedDict, SparseVisualPrompt, TokenPrompt
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
    the provenance has expired. Records are keyed by ``(agent_id, step)``;
    the first one an agent logs at a step is the one kept.
    """

    window: int = 64
    _records: dict = field(default_factory=dict)  # (agent_id, step) -> record
    _clock: int = 0

    def record(
        self, agent_id: str, step: int, frames: list[np.ndarray], svp: SparseVisualPrompt
    ) -> None:
        self._records.setdefault(
            (agent_id, int(step)), {"frames": [f.copy() for f in frames], "svp": svp}
        )
        self.advance(step)

    def advance(self, step: int) -> None:
        """Move the clock forward and prune records older than the window."""
        self._clock = max(self._clock, int(step))
        horizon = self._clock - self.window
        for key in [key for key in self._records if key[1] < horizon]:
            del self._records[key]

    def lookup(self, agent_id: str, step: int):
        """Record the agent logged at exactly ``step``, or None."""
        return self._records.get((agent_id, int(step)))


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
        self._texts = weakref.WeakKeyDictionary()  # PoolEntry -> its EncodedDict

    def handle(self, msg: FleetMessage) -> FleetMessage | None:
        if isinstance(msg, Query):
            return QueryResponse(
                request_id=msg.request_id, entries=tuple(self._query(msg))
            )
        if isinstance(msg, RefineTick):
            self.pool.refine()
            return None
        if isinstance(msg, (UploadPrompt, RegisterDeferred)):
            deferred = isinstance(msg, RegisterDeferred)
            self.pool.insert(
                key=np.asarray(msg.query if deferred else msg.key),
                value=DeferredMarker(msg.agent_id) if deferred else msg.value,
                timestamp=msg.timestamp,
                agent_id=msg.agent_id,
                domain_tag=msg.domain_tag,
            )
            return None
        raise ProtocolError(f"server cannot handle {type(msg).__name__}")

    def _query(self, msg: Query) -> list[EncodedDict]:
        """Top-N retrieval; deferred hits are distilled on demand or dropped.

        Entries are the hits' ``PoolEntry.wire_dict``s, each encoded once:
        the pool's own prompts, which the codec writes at their stored
        precision.
        """
        q = np.asarray(msg.query)
        while True:
            try:
                hits = self.pool.query_topn(q, msg.n)
            except EmptyPoolError:
                return []
            deferred = [e for e in hits if e.is_deferred]
            if not deferred:
                return [self._text(e) for e in hits]
            try:
                self.pool.resolve_deferred(deferred[0].entry_id, self._distill)
            except ResolutionError:
                pass  # resolve_deferred already dropped the entry; re-rank

    def _text(self, entry: PoolEntry) -> EncodedDict:
        text = self._texts.get(entry)
        if text is None:
            text = self._texts[entry] = EncodedDict(entry.wire_dict())
        return text

    def _distill(self, entry: PoolEntry) -> TokenPrompt:
        """The prompt of a deferred entry, from its agent's frames at its step."""
        agent_id = entry.value.agent_id
        record = self.provenance.lookup(agent_id, entry.timestamp)
        if record is None:
            raise ResolutionError(
                f"provenance for agent {agent_id} at step {entry.timestamp} has expired"
            )
        return distill_iterative(
            self.oracle, record["frames"], record["svp"], self.distill_config
        )
