"""Global key-value prompt pool.

Agents append entries to a pending set (grow phase); a consolidation pass
merges sufficiently similar pending entries into the refined set with EMA
weighting and enforces capacity by evicting the least recently retrieved
entries (refine phase). Queries rank entries by cosine similarity between
unit keys, so similarity reduces to a dot product.

The pool supports many concurrent readers and serialized writers: insert
only appends to the pending list, refine runs as an exclusive batch.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import compress

import numpy as np

from .errors import (
    AdaptflyError,
    CompositionError,
    ConfigError,
    DeferredNotResolvedError,
    DegenerateKeyError,
    EmptyPoolError,
    PoolFormatError,
    ResolutionError,
    parse_json,
)
from .prompts import TokenPrompt, compact_json, number_vector

__all__ = [
    "PoolConfig",
    "DeferredMarker",
    "PoolEntry",
    "PromptPool",
    "assemble",
]


_INT64 = range(-(2**63), 2**63)

# A stored key or deferred query is a unit vector up to rounding; snapshots
# and replies carry its float64 bytes (``vector_text``, base64), and older
# snapshots decimal numbers that round-trip float64, so a reload keeps it
# bit for bit.
_KEY_NORM_TOLERANCE = 1e-9


def _unit(key: np.ndarray) -> np.ndarray:
    key = np.asarray(key, dtype=np.float64).ravel()
    norm = float(np.linalg.norm(key))
    if norm == 0.0 or not np.isfinite(norm):
        raise DegenerateKeyError("key/query vector must be nonzero and finite")
    out = key / norm
    out.setflags(write=False)
    return out


def _stored_unit(values, what: str) -> np.ndarray:
    """A unit vector read from a snapshot or reply, kept bit for bit."""
    try:
        vec = number_vector(values, what)
    except CompositionError as exc:
        raise PoolFormatError(str(exc)) from exc
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= _KEY_NORM_TOLERANCE:  # also rejects NaN and inf
        raise PoolFormatError(
            f"{what} must be a finite unit vector (norm within "
            f"{_KEY_NORM_TOLERANCE:g} of 1), got norm {norm!r}"
        )
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True)
class PoolConfig:
    """Pool sizing and consolidation knobs."""

    capacity: int = 256
    merge_threshold: float = 0.95
    merge_weight: float = 0.3

    def __post_init__(self):
        if self.capacity < 1:
            raise ConfigError("capacity must be at least 1")
        if not (0.0 < self.merge_threshold <= 1.0):
            raise ConfigError("merge threshold must lie in (0, 1]")
        if not (0.0 < self.merge_weight <= 1.0):
            raise ConfigError("merge weight must lie in (0, 1]")


@dataclass(frozen=True)
class DeferredMarker:
    """Placeholder value: a domain query embedding awaiting distillation.

    The query is normalized unless ``normalize=False``, which keeps a query
    that is already unit (one read back by ``PoolEntry.from_dict``) as is.
    """

    query: np.ndarray
    agent_id: str
    normalize: InitVar[bool] = True

    def __post_init__(self, normalize: bool):
        if normalize:
            object.__setattr__(self, "query", _unit(self.query))


@dataclass
class PoolEntry:
    """One key-value record. ``agent_id`` holds all contributors, comma-joined."""

    entry_id: int
    key: np.ndarray
    value: TokenPrompt | DeferredMarker
    timestamp: int
    agent_id: str
    domain_tag: str | None = None
    last_retrieved: int = 0

    @property
    def is_deferred(self) -> bool:
        return isinstance(self.value, DeferredMarker)

    def wire_dict(self) -> dict:
        """``to_dict`` with the key, a deferred query and a value left as objects.

        ``compact_json`` writes the key and a deferred query (the pool's
        read-only float64 arrays) as the base64 of their bytes, and a
        prompt's values directly at their stored precision; server replies
        and ``PromptPool.save`` use it, and ``decode_message`` reads a
        reply entry back as its ``to_dict()``. The server encodes it once
        per change of the entry (``MecServer``), so a served one is
        read-only.
        """
        d = {
            "entry_id": self.entry_id,
            "key": self.key,
            "timestamp": self.timestamp,
            "agent_id": self.agent_id,
            "domain_tag": self.domain_tag,
        }
        if self.is_deferred:
            d["deferred"] = {"query": self.value.query, "agent_id": self.value.agent_id}
        else:
            d["value"] = self.value
        return d

    def to_dict(self) -> dict:
        """Plain JSON types: vectors as number lists, prompt values at stored precision."""
        d = self.wire_dict()
        d["key"] = self.key.tolist()
        if self.is_deferred:
            d["deferred"]["query"] = self.value.query.tolist()
        else:
            d["value"] = self.value.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PoolEntry":
        """Parse ``to_dict`` output; PoolFormatError names the first bad field.

        An optional ``last_retrieved`` (written by ``PromptPool.save``, never
        sent on the wire) defaults to ``timestamp``. The key and a deferred
        query, number lists or the base64 text ``compact_json`` writes, are
        kept bit for bit: each must already be a unit vector, to
        ``_KEY_NORM_TOLERANCE``.
        """
        if not isinstance(d, dict):
            raise PoolFormatError("pool entry must be an object")
        d = {"last_retrieved": d.get("timestamp"), **d}
        for name in ("entry_id", "timestamp", "last_retrieved"):
            if type(d.get(name)) is not int or d[name] not in _INT64:
                raise PoolFormatError(f"pool entry {name} must be a 64-bit integer")
        if d["entry_id"] < 0:
            raise PoolFormatError("pool entry entry_id must be non-negative")
        if not isinstance(d.get("agent_id"), str):
            raise PoolFormatError("pool entry agent_id must be a string")
        if not isinstance(d.get("domain_tag"), (str, type(None))):
            raise PoolFormatError("pool entry domain_tag must be a string or null")
        key = _stored_unit(d.get("key"), "pool entry key")
        if "deferred" in d:
            marker = d["deferred"]
            if not isinstance(marker, dict) or not isinstance(marker.get("agent_id"), str):
                raise PoolFormatError("pool entry deferred must hold a query and an agent_id")
            query = _stored_unit(marker.get("query"), "deferred query")
            value = DeferredMarker(query, marker["agent_id"], normalize=False)
        elif "value" in d:
            try:
                value = TokenPrompt.from_dict(d["value"])
            except AdaptflyError as exc:
                raise PoolFormatError(f"pool entry value: {exc}") from exc
        else:
            raise PoolFormatError("pool entry needs a value or a deferred marker")
        return cls(
            entry_id=d["entry_id"],
            key=key,
            value=value,
            timestamp=d["timestamp"],
            agent_id=d["agent_id"],
            domain_tag=d.get("domain_tag"),
            last_retrieved=d["last_retrieved"],
        )


def assemble(entries: list[PoolEntry]) -> TokenPrompt:
    """Concatenate retrieved prompts row-wise in the given (similarity) order.

    All entries must be concrete and share the token dimension. An empty
    list yields the empty prompt, which composes as the identity.
    """
    if not entries:
        return TokenPrompt(np.zeros((0, 0)))
    blocks = []
    dim = None
    for e in entries:
        if e.is_deferred:
            raise DeferredNotResolvedError(
                f"entry {e.entry_id} is deferred; resolve it before assembly"
            )
        if dim is None:
            dim = e.value.dim
        elif e.value.dim != dim:
            raise CompositionError(
                f"entry {e.entry_id} dim {e.value.dim} != expected {dim}"
            )
        blocks.append(np.asarray(e.value.values, dtype=np.float64))
    return TokenPrompt(np.vstack(blocks))


class PromptPool:
    """Grow-and-refine prompt memory. One writer at a time; readers free.

    The refined keys are mirrored, in list order, in one (R, d) matrix with
    matching int64 vectors of entry ids, ``last_retrieved`` and
    ``timestamp`` stamps, so ranking is one matrix-vector product and
    eviction one sort. Every change to the refined set updates the mirror
    in place.
    """

    def __init__(self, config: PoolConfig | None = None):
        self.config = config or PoolConfig()
        self._refined: list[PoolEntry] = []
        self._pending: list[PoolEntry] = []
        self._next_id = 0
        # Rows [0, refined_size) mirror the refined entries; the rest is
        # growth room, doubled when full. The first key fixes the width.
        self._keys = np.empty((0, 0))
        self._ids = np.empty(0, dtype=np.int64)
        self._last = np.empty(0, dtype=np.int64)
        self._times = np.empty(0, dtype=np.int64)

    # -- sizes ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._refined) + len(self._pending)

    @property
    def refined_size(self) -> int:
        return len(self._refined)

    @property
    def pending_size(self) -> int:
        return len(self._pending)

    def entries(self) -> list[PoolEntry]:
        return self._refined + self._pending

    def entry_ids(self) -> np.ndarray:
        """Ids of ``entries()``, in the same order, as an int64 vector."""
        pending = np.fromiter((e.entry_id for e in self._pending), np.int64, len(self._pending))
        return np.concatenate([self._ids[: len(self._refined)], pending])

    def get(self, entry_id: int) -> PoolEntry | None:
        hit = np.flatnonzero(self._ids[: len(self._refined)] == entry_id)
        if hit.size:
            return self._refined[hit[0]]
        return next((e for e in self._pending if e.entry_id == entry_id), None)

    # -- key matrix -------------------------------------------------------

    def _check_dim(self, key: np.ndarray, what: str) -> None:
        dim = self._keys.shape[1]
        if dim == 0:
            self._keys = np.empty((0, key.size))
        elif key.size != dim:
            raise CompositionError(
                f"{what} has dimension {key.size}, pool keys have dimension {dim}"
            )

    def _append_refined(self, entry: PoolEntry) -> None:
        n = len(self._refined)
        if n == len(self._ids):
            size = max(2 * n, 16)
            keys = np.empty((size, self._keys.shape[1]))
            keys[:n] = self._keys[:n]
            stamps = np.empty((3, size), dtype=np.int64)
            stamps[:, :n] = self._ids[:n], self._last[:n], self._times[:n]
            self._keys = keys
            self._ids, self._last, self._times = stamps
        self._keys[n] = entry.key
        self._ids[n] = entry.entry_id
        self._last[n] = entry.last_retrieved
        self._times[n] = entry.timestamp
        self._refined.append(entry)

    def _keep_refined(self, keep: np.ndarray) -> None:
        """Drop the refined entries where ``keep`` is False, keeping order."""
        n, m = len(self._refined), int(keep.sum())
        for mirror in (self._keys, self._ids, self._last, self._times):
            mirror[:m] = mirror[:n][keep]
        self._refined = list(compress(self._refined, keep.tolist()))

    def _near_best(self, key: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows that can rank among the top n by ``float(key @ e.key)``.

        A BLAS matrix-vector product rounds differently from a per-row dot
        product, even for two identical rows, so it only screens. For unit
        vectors the two differ by at most d * eps, so a row of the true top
        n lies within 2 * d * eps of the screened n-th largest value; rows
        within twice that are rescored with the per-row dot. Exact ties stay
        exact and every ranking matches the per-entry definition. Returns
        the row indices (ascending) and their per-row scores.
        """
        count = len(self._refined)
        sims = self._keys[:count] @ key
        floor = np.partition(sims, count - n)[count - n] if n < count else sims.min()
        rows = np.flatnonzero(sims >= floor - 4.0 * key.size * np.finfo(np.float64).eps)
        return rows, np.array([float(key @ self._refined[i].key) for i in rows])

    # -- grow -----------------------------------------------------------

    def insert(
        self,
        key: np.ndarray,
        value: TokenPrompt | DeferredMarker,
        timestamp: int,
        agent_id: str,
        domain_tag: str | None = None,
    ) -> PoolEntry:
        """Append an entry to the pending set; capacity is enforced at refine."""
        entry = PoolEntry(
            entry_id=self._next_id,
            key=_unit(key),
            value=value,
            timestamp=int(timestamp),
            agent_id=agent_id,
            domain_tag=domain_tag,
            last_retrieved=int(timestamp),
        )
        self._check_dim(entry.key, "key")
        self._next_id += 1
        self._pending.append(entry)
        return entry

    # -- retrieve ---------------------------------------------------------

    def query_topn(self, q: np.ndarray, n: int, step: int = 0) -> list[PoolEntry]:
        """Refined entries by descending cosine similarity, ties by entry id.

        Returns min(n, refined size) entries and stamps their last_retrieved
        with ``step``. Pending entries become visible only after the next
        refine pass: queries serve the consolidated view of the pool.
        """
        if self.size == 0:
            raise EmptyPoolError("query against an empty pool")
        qn = _unit(q)
        self._check_dim(qn, "query")
        n = min(max(0, n), len(self._refined))
        if n == 0:
            return []
        rows, sims = self._near_best(qn, n)
        order = rows[np.lexsort((self._ids[rows], -sims))[:n]]
        hits = []
        for i in order.tolist():
            e = self._refined[i]
            e.last_retrieved = max(e.last_retrieved, int(step))
            self._last[i] = e.last_retrieved
            hits.append(e)
        return hits

    # -- refine -----------------------------------------------------------

    def _merge_target(self, entry: PoolEntry) -> tuple[int, float] | None:
        if not self._refined:
            return None
        rows, sims = self._near_best(entry.key, 1)
        best = int(np.argmax(sims))  # first max: earliest refined entry wins ties
        return int(rows[best]), float(sims[best])

    @staticmethod
    def _mergeable(old: PoolEntry, new: PoolEntry) -> bool:
        # Deferred markers never participate in value averaging.
        if old.is_deferred or new.is_deferred:
            return False
        return (old.value.rows, old.value.dim) == (new.value.rows, new.value.dim)

    def refine(self) -> None:
        """Consolidate pending entries, then enforce capacity.

        Pending entries fold in serialized (timestamp, entry_id) order so
        any interleaving of inserts and refine calls yields the same pool.
        Capacity evicts the least recently retrieved entries, ties broken
        by (timestamp, entry_id).
        """
        eta = self.config.merge_weight
        pending = sorted(self._pending, key=lambda e: (e.timestamp, e.entry_id))
        self._pending = []
        for entry in pending:
            target = self._merge_target(entry)
            if target is not None:
                idx, sim = target
                old = self._refined[idx]
                if sim >= self.config.merge_threshold and self._mergeable(old, entry):
                    merged_values = (1.0 - eta) * np.asarray(
                        old.value.values, dtype=np.float64
                    ) + eta * np.asarray(entry.value.values, dtype=np.float64)
                    old.value = TokenPrompt(merged_values, dtype=old.value.dtype)
                    old.key = _unit((1.0 - eta) * old.key + eta * entry.key)
                    self._keys[idx] = old.key
                    old.timestamp = max(old.timestamp, entry.timestamp)
                    old.last_retrieved = max(old.last_retrieved, entry.last_retrieved)
                    self._times[idx], self._last[idx] = old.timestamp, old.last_retrieved
                    contributors = set(old.agent_id.split(",")) | set(
                        entry.agent_id.split(",")
                    )
                    old.agent_id = ",".join(sorted(contributors))
                    if old.domain_tag is None:
                        old.domain_tag = entry.domain_tag
                    continue
            self._append_refined(entry)
        n = len(self._refined)
        excess = n - self.config.capacity
        if excess > 0:
            keep = np.ones(n, dtype=bool)
            keep[np.lexsort((self._ids[:n], self._times[:n], self._last[:n]))[:excess]] = False
            self._keep_refined(keep)

    # -- deferred resolution ----------------------------------------------

    def resolve_deferred(self, entry_id: int, distiller) -> PoolEntry:
        """Materialize a deferred entry via ``distiller(marker) -> TokenPrompt``.

        Resolving an already-concrete entry is a no-op. If the distiller
        raises ResolutionError (lost provenance), the entry is removed from
        the pool so queries stop serving it, and the error propagates.
        """
        entry = self.get(entry_id)
        if entry is None:
            raise ResolutionError(f"no entry {entry_id} in pool")
        if not entry.is_deferred:
            return entry
        try:
            prompt = distiller(entry.value)
        except ResolutionError:
            self.drop(entry_id)
            raise
        if not isinstance(prompt, TokenPrompt):
            raise ResolutionError(f"distiller returned {type(prompt).__name__}")
        entry.value = prompt
        return entry

    def drop(self, entry_id: int) -> None:
        self._keep_refined(self._ids[: len(self._refined)] != entry_id)
        self._pending = [e for e in self._pending if e.entry_id != entry_id]

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        """Write the id high-water mark, then one line per refined entry.

        Pending entries flush first. The first line is ``{"next_id": N}``,
        the id the next insert gets, so a reload never reissues the id of
        an entry evicted or dropped before the save. Each further line is
        an entry's ``wire_dict`` plus its ``last_retrieved`` stamp, so a
        reload keeps the eviction order, written by ``compact_json`` as on
        the wire: keys and deferred queries as the base64 of their float64
        bytes, prompt values at their stored precision.
        """
        self.refine()
        with open(path, "w", encoding="utf-8") as f:
            f.write(compact_json({"next_id": self._next_id}) + "\n")
            for e in sorted(self._refined, key=lambda e: e.entry_id):
                line = {**e.wire_dict(), "last_retrieved": e.last_retrieved}
                f.write(compact_json(line) + "\n")

    @classmethod
    def load(cls, path, config: PoolConfig | None = None) -> "PromptPool":
        """Restore a ``save`` snapshot; PoolFormatError names a malformed line.

        A snapshot without the ``next_id`` line (one written before it
        existed, or plain ``to_dict`` lines) continues ids after the largest
        stored one. A mark at or below a stored id is malformed. Keys and
        deferred queries written as decimal number lists, as before they
        travelled as base64, load bit for bit too.
        """
        pool = cls(config)
        entries = []
        mark = None
        with open(path, "rb") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                obj = parse_json(line, PoolFormatError, f"{path} line {lineno}", line=lineno)
                try:
                    if lineno == 1 and isinstance(obj, dict) and set(obj) == {"next_id"}:
                        mark = obj["next_id"]
                        if type(mark) is not int or not 0 <= mark < 2**63:
                            raise PoolFormatError("next_id must be a non-negative 64-bit integer")
                        continue
                    entry = PoolEntry.from_dict(obj)
                    pool._check_dim(entry.key, "key")
                    if mark is not None and entry.entry_id >= mark:
                        raise PoolFormatError(
                            f"entry_id {entry.entry_id} is not below next_id {mark}"
                        )
                except AdaptflyError as exc:
                    raise PoolFormatError(f"{path} line {lineno}: {exc}", line=lineno) from exc
                entries.append(entry)
                pool._next_id = max(pool._next_id, entry.entry_id + 1)
        pool._next_id = max(pool._next_id, mark or 0)
        for entry in sorted(entries, key=lambda e: e.entry_id):
            pool._append_refined(entry)
        return pool
