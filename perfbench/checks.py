"""Output checks computed apart from the library.

Each check returns a list of failure strings (empty when the output is
right). The self-test feeds them deliberately corrupted outputs.
"""

from __future__ import annotations

import json

import numpy as np

FITNESS_TOL = 1e-9
RESOLVE_REL_TOL = 1e-3
TIE_TOL = 1e-12

MESSAGE_FIELDS = {
    "upload_prompt": ("key", "value", "timestamp", "agent_id"),
    "register_deferred": ("query", "agent_id", "timestamp"),
    "query": ("query", "n", "request_id"),
    "query_response": ("request_id", "entries"),
    "refine_tick": (),
}


# -- entropy of the Gaussian-posterior classifier -------------------------


def own_mean_entropy(prototypes: np.ndarray, temperature: float, x: np.ndarray) -> float:
    """Mean per-pixel class entropy of the toy model, from its prototypes."""
    pix = np.asarray(x, dtype=np.float64).reshape(-1, 3)
    logits = (2.0 * pix @ prototypes.T - np.sum(prototypes**2, axis=1)) / temperature
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(p > 0.0, -p * np.log(p), 0.0)
    return float(h.sum(axis=1).mean())


def own_apply(x: np.ndarray, coords: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=np.float64)
    r, c = coords[:, 0], coords[:, 1]
    out[r, c, :] = np.clip(out[r, c, :] + offsets, 0.0, 1.0)
    return out


def check_searches(searches) -> list[str]:
    """Every search beats or ties its baseline and reports its true entropy.

    ``searches`` holds (oracle, frame, coords, result) for each call of
    optimize_svp.
    """
    failures = []
    for i, (oracle, x, coords, result) in enumerate(searches):
        protos, temp = np.asarray(oracle.prototypes), float(oracle.temperature)
        base = own_mean_entropy(protos, temp, x)
        prompt = result.prompt
        if not np.array_equal(np.asarray(prompt.coords), np.asarray(coords)):
            failures.append(f"search {i}: prompt coords differ from the mask")
            continue
        best = own_mean_entropy(protos, temp, own_apply(x, np.asarray(coords), prompt.offsets))
        if not result.best_fitness <= result.baseline_fitness:
            failures.append(f"search {i}: best {result.best_fitness} > baseline "
                            f"{result.baseline_fitness}")
        if abs(base - result.baseline_fitness) > FITNESS_TOL:
            failures.append(f"search {i}: baseline {result.baseline_fitness} != own {base}")
        if abs(best - result.best_fitness) > FITNESS_TOL:
            failures.append(f"search {i}: best fitness {result.best_fitness} != own {best}")
    return failures


def check_adaptation(records, limited_ids, shifted) -> list[str]:
    """Each limited agent's entropy drops after its first adoption per domain."""
    failures = []
    for agent in limited_ids:
        for dom in shifted:
            rows = [r for r in records if r.agent_id == agent and r.domain == dom]
            first = next((r.step for r in rows if r.retrieved > 0), None)
            pre = [r.mean_entropy for r in rows if first is None or r.step < first]
            post = [r.mean_entropy for r in rows if first is not None and r.step >= first]
            if not pre or not post or not np.mean(post) < np.mean(pre):
                failures.append(f"{agent} on {dom}: pre {pre and np.mean(pre)} "
                                f"post {post and np.mean(post)}")
    return failures


# -- wire frames ----------------------------------------------------------


class FrameReader:
    """Splits byte streams into frames: 4-byte big-endian length + JSON."""

    def __init__(self):
        self._buffers: dict[int, bytearray] = {}
        self.frames = 0
        self.bytes = 0
        self.bytes_by_type: dict[str, int] = {}
        self.failures: list[str] = []

    def feed(self, stream_id: int, data: bytes) -> None:
        buf = self._buffers.setdefault(stream_id, bytearray())
        buf.extend(data)
        while len(buf) >= 4:
            size = int.from_bytes(buf[:4], "big")
            if len(buf) < 4 + size:
                break
            payload = bytes(buf[4 : 4 + size])
            del buf[: 4 + size]
            self._frame(payload, 4 + size)

    def _frame(self, payload: bytes, total: int) -> None:
        self.frames += 1
        self.bytes += total
        try:
            msg = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            self.failures.append(f"frame {self.frames}: unparsable payload ({exc})")
            return
        kind = msg.get("type") if isinstance(msg, dict) else None
        if kind not in MESSAGE_FIELDS:
            self.failures.append(f"frame {self.frames}: unknown type {kind!r}")
            return
        missing = [f for f in MESSAGE_FIELDS[kind] if f not in msg]
        if missing:
            self.failures.append(f"frame {self.frames}: {kind} lacks {missing}")
            return
        prompts = [msg["value"]] if kind == "upload_prompt" else []
        if kind == "query_response":
            prompts = [e["value"] for e in msg["entries"] if "value" in e]
        for p in prompts:
            if len(p["values"]) != p["rows"] * p["dim"]:
                self.failures.append(f"frame {self.frames}: prompt size mismatch")
        self.bytes_by_type[kind] = self.bytes_by_type.get(kind, 0) + total

    def finish(self, accounted_bytes: int, controller_types=("refine_tick",)) -> list[str]:
        """Failures, including leftovers and a byte total that disagrees.

        ``accounted_bytes`` is what the clients recorded for agent traffic;
        frames of ``controller_types`` are sent by the scenario controller.
        """
        failures = list(self.failures)
        for sid, buf in self._buffers.items():
            if buf:
                failures.append(f"stream {sid}: {len(buf)} bytes left outside any frame")
        agent_bytes = self.bytes - sum(self.bytes_by_type.get(t, 0) for t in controller_types)
        if agent_bytes != accounted_bytes:
            failures.append(f"frames carry {agent_bytes} bytes, clients recorded "
                            f"{accounted_bytes}")
        return failures


# -- retrieval and consolidation --------------------------------------------


def brute_topn(entries, query, n: int) -> list[int]:
    """Entry ids of the n most cosine-similar keys, ties by entry id."""
    if not entries:
        return []
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    keys = np.array([np.asarray(e.key, dtype=np.float64) for e in entries])
    keys = keys / np.linalg.norm(keys, axis=1, keepdims=True)
    ids = np.array([e.entry_id for e in entries])
    order = np.lexsort((ids, -(keys @ q)))
    return [int(i) for i in ids[order[:n]]]


def check_reply(refined, query, n: int, reply_entries) -> list[str]:
    """A reply equals the brute-force top-n over the refined entries.

    Near-ties (within TIE_TOL in cosine) may rank either way.
    """
    expected = brute_topn(refined, query, n)
    got = [int(d["entry_id"]) for d in reply_entries]
    by_id = {e.entry_id: e for e in refined}
    if got == expected:
        bad = [i for i, d in zip(got, reply_entries)
               if not np.array_equal(np.asarray(d["key"]), np.asarray(by_id[i].key))]
        return [f"reply key of entry {i} differs from the pool" for i in bad]
    if len(got) != len(expected) or any(i not in by_id for i in got):
        return [f"reply {got} != brute-force top-{n} {expected}"]
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    sim = {i: float(np.asarray(by_id[i].key) @ q) for i in set(got) | set(expected)}
    if all(abs(sim[a] - sim[b]) <= TIE_TOL for a, b in zip(got, expected)):
        return []
    return [f"reply {got} != brute-force top-{n} {expected}"]


def check_capacity(refined_size: int, pending_size: int, capacity: int) -> list[str]:
    if refined_size > capacity or pending_size:
        return [f"after a tick: {refined_size} refined / {pending_size} pending, "
                f"capacity {capacity}"]
    return []


def check_resolution(objective, closed_form, frames, svp, rows: int, values) -> list[str]:
    """A resolved deferred entry is within RESOLVE_REL_TOL of the optimum."""
    f_iter = objective(frames, svp, np.asarray(values, dtype=np.float64))
    f_best = objective(frames, svp, closed_form(frames, svp, rows))
    rel = (f_iter - f_best) / max(f_best, 1e-300)
    if rel > RESOLVE_REL_TOL:
        return [f"resolved prompt objective {f_iter} is {rel:.2e} above optimum {f_best}"]
    return []
