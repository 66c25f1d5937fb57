"""Global key-value prompt pool.

Agents append entries to a pending set (grow phase); a consolidation pass
merges sufficiently similar pending entries into the refined set with EMA
weighting and enforces capacity by evicting the least recently used
entries (refine phase). Queries rank entries by cosine similarity between
unit keys, so similarity reduces to a dot product.

Entries never change: a merge or a resolution stores a new entry in the
old one's place. Recency is the pool's own clock, which every insert and
every query advances; it stamps the new entry or the query's hits.

The pool supports many concurrent readers and serialized writers: insert
only appends to the pending list, refine runs as an exclusive batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


# The range of every integer a snapshot or a frame carries.
INT64 = range(-(2**63), 2**63)

# A stored key is a unit vector up to rounding; snapshots and replies carry
# its float64 bytes (``vector_text``, base64), and older snapshots decimal
# numbers that round-trip float64, so a reload keeps it bit for bit.
_KEY_NORM_TOLERANCE = 1e-9


def _scaled_norm(vec: np.ndarray) -> tuple[float, float]:
    """``(s, n)``: n is the Euclidean norm of vec / s, so s * n is vec's.

    vec is a 1-D float64 array. s is 1 and n the plain norm, bit for bit
    ``np.linalg.norm``'s (the square root of ``vec.dot(vec)``), wherever
    the squared norm lies in [1e-300, 1e300]. Outside it the squares may
    have overflowed or underflowed, so s is vec's largest magnitude, and
    0, inf or NaN (with n = 1) for a zero or non-finite vec.
    """
    with np.errstate(over="ignore"):
        sq = float(vec.dot(vec))
    if 1e-300 <= sq <= 1e300:
        return 1.0, math.sqrt(sq)
    s = float(np.abs(vec).max(initial=0.0))
    return s, float(np.linalg.norm(vec / s)) if 0.0 < s < np.inf else 1.0


def _unit(key: np.ndarray) -> np.ndarray:
    key = np.asarray(key, dtype=np.float64).ravel()
    s, norm = _scaled_norm(key)
    if not 0.0 < s < np.inf:
        raise DegenerateKeyError("key/query vector must be nonzero and finite")
    out = key / norm if s == 1.0 else (key / s) / norm
    out.setflags(write=False)
    return out


def _stored_unit(values, what: str) -> np.ndarray:
    """A unit vector read from a snapshot or reply, kept bit for bit."""
    try:
        vec = number_vector(values, what)
    except CompositionError as exc:
        raise PoolFormatError(str(exc)) from exc
    s, n = _scaled_norm(vec)
    norm = s * n
    if not abs(norm - 1.0) <= _KEY_NORM_TOLERANCE:  # also rejects NaN and inf
        raise PoolFormatError(
            f"{what} must be a finite unit vector (norm within "
            f"{_KEY_NORM_TOLERANCE:g} of 1), got norm {norm!r}"
        )
    vec.setflags(write=False)
    return vec


def _int64(value, name: str) -> int:
    if type(value) is not int or value not in INT64:
        raise PoolFormatError(f"pool entry {name} must be a 64-bit integer")
    return value


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
    """Placeholder value: a prompt to distill from the agent's provenance
    at the entry's timestamp; the entry's key is the domain query."""

    agent_id: str


@dataclass(frozen=True, eq=False)
class PoolEntry:
    """One key-value record. ``agent_id`` holds all contributors, comma-joined.

    Never changed, only replaced, so an entry is its own identity (it
    compares and hashes as itself) and text encoded from it stays valid.
    """

    entry_id: int
    key: np.ndarray
    value: TokenPrompt | DeferredMarker
    timestamp: int
    agent_id: str
    domain_tag: str | None = None

    @property
    def is_deferred(self) -> bool:
        return isinstance(self.value, DeferredMarker)

    def wire_dict(self) -> dict:
        """``to_dict`` with the key and a prompt value left as objects.

        ``compact_json`` writes the key (a read-only float64 array) as the
        base64 of its bytes and a prompt's values directly at their stored
        precision; server replies and ``PromptPool.save`` use it, and
        ``decode_message`` reads a reply entry back as its ``to_dict()``.
        """
        d = {
            "entry_id": self.entry_id,
            "key": self.key,
            "timestamp": self.timestamp,
            "agent_id": self.agent_id,
            "domain_tag": self.domain_tag,
        }
        if self.is_deferred:
            d["deferred"] = {"agent_id": self.value.agent_id}
        else:
            d["value"] = self.value
        return d

    def to_dict(self) -> dict:
        """Plain JSON types: the key as a number list, prompt values at stored precision."""
        d = self.wire_dict()
        d["key"] = self.key.tolist()
        if not self.is_deferred:
            d["value"] = self.value.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PoolEntry":
        """Parse ``to_dict`` output; PoolFormatError names the first bad field.

        The key, a number list or the base64 text ``compact_json`` writes,
        is kept bit for bit: it must already be a unit vector, to
        ``_KEY_NORM_TOLERANCE``. A deferred marker written with a
        ``query``, as markers were before, loads; the query is not read.
        """
        if not isinstance(d, dict):
            raise PoolFormatError("pool entry must be an object")
        entry_id = _int64(d.get("entry_id"), "entry_id")
        timestamp = _int64(d.get("timestamp"), "timestamp")
        if entry_id < 0:
            raise PoolFormatError("pool entry entry_id must be non-negative")
        if not isinstance(d.get("agent_id"), str):
            raise PoolFormatError("pool entry agent_id must be a string")
        if not isinstance(d.get("domain_tag"), (str, type(None))):
            raise PoolFormatError("pool entry domain_tag must be a string or null")
        key = _stored_unit(d.get("key"), "pool entry key")
        if "deferred" in d:
            marker = d["deferred"]
            if not isinstance(marker, dict) or not isinstance(marker.get("agent_id"), str):
                raise PoolFormatError("pool entry deferred must hold an agent_id")
            value = DeferredMarker(marker["agent_id"])
        elif "value" in d:
            try:
                value = TokenPrompt.from_dict(d["value"])
            except AdaptflyError as exc:
                raise PoolFormatError(f"pool entry value: {exc}") from exc
        else:
            raise PoolFormatError("pool entry needs a value or a deferred marker")
        return cls(
            entry_id=entry_id,
            key=key,
            value=value,
            timestamp=timestamp,
            agent_id=d["agent_id"],
            domain_tag=d.get("domain_tag"),
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
    matching int64 vectors of entry ids, recency stamps and timestamps, so
    ranking is one matrix-vector product and eviction one sort. Every
    change to the refined set updates the mirror in place. The stamps are
    the only record of recency: ``_clock`` is the last stamp handed out.
    """

    def __init__(self, config: PoolConfig | None = None):
        self.config = config or PoolConfig()
        self._refined: list[PoolEntry] = []
        # entry_id -> (entry, recency stamp), in insertion order
        self._pending: dict[int, tuple[PoolEntry, int]] = {}
        self._next_id = 0
        self._clock = 0
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
        return self._refined + [e for e, _ in self._pending.values()]

    def _row(self, entry_id: int) -> int | None:
        hit = np.flatnonzero(self._ids[: len(self._refined)] == entry_id)
        return int(hit[0]) if hit.size else None

    def get(self, entry_id: int) -> PoolEntry | None:
        row = self._row(entry_id)
        if row is not None:
            return self._refined[row]
        pending = self._pending.get(entry_id)
        return pending[0] if pending else None

    # -- key matrix -------------------------------------------------------

    def _check_dim(self, key: np.ndarray, what: str) -> None:
        dim = self._keys.shape[1]
        if dim == 0:
            self._keys = np.empty((0, key.size))
        elif key.size != dim:
            raise CompositionError(
                f"{what} has dimension {key.size}, pool keys have dimension {dim}"
            )

    def _append_refined(self, entry: PoolEntry, stamp: int) -> None:
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
        self._last[n] = stamp
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
        )
        self._check_dim(entry.key, "key")
        self._next_id += 1
        self._clock += 1
        self._pending[entry.entry_id] = (entry, self._clock)
        return entry

    # -- retrieve ---------------------------------------------------------

    def query_topn(self, q: np.ndarray, n: int) -> list[PoolEntry]:
        """Refined entries by descending cosine similarity, ties by entry id.

        Returns min(n, refined size) entries and stamps them with the next
        tick of the pool's clock. Pending entries become visible only after
        the next refine pass: queries serve the consolidated view of the
        pool.
        """
        if self.size == 0:
            raise EmptyPoolError("query against an empty pool")
        qn = _unit(q)
        self._check_dim(qn, "query")
        self._clock += 1
        n = min(max(0, n), len(self._refined))
        if n == 0:
            return []
        rows, sims = self._near_best(qn, n)
        order = rows[np.lexsort((self._ids[rows], -sims))[:n]]
        self._last[order] = self._clock
        return [self._refined[i] for i in order.tolist()]

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
        A merge keeps the later of the two recency stamps. Capacity evicts
        the least recently used entries, ties broken by (timestamp,
        entry_id).
        """
        eta = self.config.merge_weight
        pending = sorted(self._pending.values(), key=lambda p: (p[0].timestamp, p[0].entry_id))
        self._pending = {}
        for entry, stamp in pending:
            target = self._merge_target(entry)
            if target is not None:
                idx, sim = target
                old = self._refined[idx]
                if sim >= self.config.merge_threshold and self._mergeable(old, entry):
                    merged_values = (1.0 - eta) * np.asarray(
                        old.value.values, dtype=np.float64
                    ) + eta * np.asarray(entry.value.values, dtype=np.float64)
                    contributors = set(old.agent_id.split(",")) | set(
                        entry.agent_id.split(",")
                    )
                    merged = replace(
                        old,
                        key=_unit((1.0 - eta) * old.key + eta * entry.key),
                        value=TokenPrompt(merged_values, dtype=old.value.dtype),
                        timestamp=max(old.timestamp, entry.timestamp),
                        agent_id=",".join(sorted(contributors)),
                        domain_tag=entry.domain_tag if old.domain_tag is None else old.domain_tag,
                    )
                    self._refined[idx] = merged
                    self._keys[idx] = merged.key
                    self._times[idx] = merged.timestamp
                    self._last[idx] = max(self._last[idx], stamp)
                    continue
            self._append_refined(entry, stamp)
        n = len(self._refined)
        excess = n - self.config.capacity
        if excess > 0:
            keep = np.ones(n, dtype=bool)
            keep[np.lexsort((self._ids[:n], self._times[:n], self._last[:n]))[:excess]] = False
            self._keep_refined(keep)

    # -- deferred resolution ----------------------------------------------

    def resolve_deferred(self, entry_id: int, distiller) -> PoolEntry:
        """Materialize a deferred entry via ``distiller(entry) -> TokenPrompt``.

        The resolved entry takes the deferred one's place and is returned.
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
            prompt = distiller(entry)
        except ResolutionError:
            self.drop(entry_id)
            raise
        if not isinstance(prompt, TokenPrompt):
            raise ResolutionError(f"distiller returned {type(prompt).__name__}")
        resolved = replace(entry, value=prompt)
        if entry_id in self._pending:
            self._pending[entry_id] = (resolved, self._pending[entry_id][1])
        else:
            self._refined[self._row(entry_id)] = resolved
        return resolved

    def drop(self, entry_id: int) -> None:
        self._keep_refined(self._ids[: len(self._refined)] != entry_id)
        self._pending.pop(entry_id, None)

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        """Write the id high-water mark, then one line per refined entry.

        Pending entries flush first. The first line is ``{"next_id": N}``,
        the id the next insert gets, so a reload never reissues the id of
        an entry evicted or dropped before the save. Each further line is
        an entry's ``wire_dict`` plus its ``last_retrieved`` recency stamp,
        so a reload keeps the eviction order, written by ``compact_json``
        as on the wire: keys as the base64 of their float64 bytes, prompt
        values at their stored precision.
        """
        self.refine()
        with open(path, "w", encoding="utf-8") as f:
            f.write(compact_json({"next_id": self._next_id}) + "\n")
            for i in np.argsort(self._ids[: len(self._refined)]).tolist():
                line = {**self._refined[i].wire_dict(), "last_retrieved": int(self._last[i])}
                f.write(compact_json(line) + "\n")

    @classmethod
    def load(cls, path, config: PoolConfig | None = None) -> "PromptPool":
        """Restore a ``save`` snapshot; PoolFormatError names a malformed line.

        An entry's ``last_retrieved`` stamp defaults to its ``timestamp``
        and must lie below 2**62; the clock resumes after the largest stamp. A snapshot without
        the ``next_id`` line (one written before it existed, or plain
        ``to_dict`` lines) continues ids after the largest stored one. A
        mark at or below a stored id is malformed. Keys written as decimal
        number lists, as before they travelled as base64, load bit for bit
        too.
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
                    stamp = _int64(obj.get("last_retrieved", entry.timestamp), "last_retrieved")
                    if stamp >= 2**62:  # the int64 clock must have room to run on
                        raise PoolFormatError(
                            f"pool entry last_retrieved {stamp} is not below 2**62"
                        )
                    pool._check_dim(entry.key, "key")
                    if mark is not None and entry.entry_id >= mark:
                        raise PoolFormatError(
                            f"entry_id {entry.entry_id} is not below next_id {mark}"
                        )
                except AdaptflyError as exc:
                    raise PoolFormatError(f"{path} line {lineno}: {exc}", line=lineno) from exc
                entries.append((entry, stamp))
                pool._next_id = max(pool._next_id, entry.entry_id + 1)
        pool._next_id = max(pool._next_id, mark or 0)
        for entry, stamp in sorted(entries, key=lambda p: p[0].entry_id):
            pool._append_refined(entry, stamp)
        pool._clock = max((stamp for _, stamp in entries), default=0)
        return pool
