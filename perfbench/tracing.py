"""In-memory spans around calls into adaptfly, reduced to per-layer metrics.

Wrappers are installed from here, never inside the library: a wrapped call
is either a module function (patched in every adaptfly module that bound
it by name) or a class attribute. Each call records one span (name, start,
end, parent index). A layer's self time is its spans' duration minus the
time covered by their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# Span name -> metric prefix. Self time of each span name is reported as
# "<metric>_s"; agent steps are additionally reported per call in ms.
MODULE_TARGETS = {
    "adaptfly.cmaes": {
        "optimize_svp": "cmaes.optimize",
        "cma_ask": "cmaes.ask",
        "cma_tell": "cmaes.tell",
    },
    "adaptfly.oracle": {"render_frame": "oracle.render"},
    "adaptfly.prompts": {
        "apply_svp": "prompts.apply_svp",
        "place_mask": "prompts.place_mask",
        "warp_svp": "prompts.warp",
    },
    "adaptfly.drift": {"compute_stats": "drift.stats", "detect": "drift.detect"},
    "adaptfly.distill": {"distill_iterative": "distill"},
    "adaptfly.fleet.messages": {
        "encode_message": "messages.encode",
        "decode_message": "messages.decode",
    },
}

CLASS_TARGETS = {
    ("adaptfly.oracle", "ToyOracle"): {
        "predict": "oracle.predict",
        "uncertainty_map": "oracle.umap",
        "stem_features": "oracle.stem",
        "query_embedding": "oracle.embed",
    },
    ("adaptfly.memory", "PromptPool"): {
        "query_topn": "memory.query",
        "refine": "memory.refine",
        "resolve_deferred": "memory.resolve",
    },
    ("adaptfly.fleet.mec", "MecServer"): {"handle": "mec.handle"},
    ("adaptfly.fleet.agents", "LimitedAgent"): {"step": "agents.limited_step"},
    ("adaptfly.fleet.agents", "MassiveAgent"): {"step": "agents.massive_step"},
}

# Every client class of the transport module that defines these methods.
TRANSPORT_METHODS = {"send": "transport.send", "request": "transport.request"}

PER_LAYER = (
    "cmaes.optimize_s", "cmaes.ask_s", "cmaes.tell_s", "cmaes.evals",
    "cmaes.generations", "cmaes.improved_ratio",
    "oracle.predict_calls", "oracle.predict_s", "oracle.umap_s", "oracle.stem_s",
    "oracle.embed_s", "oracle.render_s",
    "prompts.apply_svp_s", "prompts.place_mask_s", "prompts.warp_s",
    "drift.stats_s", "drift.detect_s", "drift.detections",
    "distill.calls", "distill.s",
    "memory.query_calls", "memory.query_s", "memory.refine_calls", "memory.refine_s",
    "memory.merges", "memory.evictions", "memory.entries_max", "memory.resolve_s",
    "memory.expired",
    "messages.frames", "messages.bytes", "messages.encode_s", "messages.decode_s",
    "transport.send_s", "transport.request_s", "transport.pipe_bytes",
    "mec.handle_calls", "mec.handle_s",
    "agents.limited_step_ms", "agents.massive_step_ms", "agents.retrievals",
    "agents.adoptions", "agents.adopt_ratio", "agents.optimizations", "agents.warps",
    "agents.step_self_s",
    "trace.spans", "trace.attributed_pct", "trace.unattributed_s", "trace.overhead_pct",
)


NOT_TOTALS = {
    "cmaes.improved_ratio", "agents.adopt_ratio", "memory.entries_max",
    "agents.limited_step_ms", "agents.massive_step_ms",
    "trace.attributed_pct", "trace.overhead_pct",
}


def adaptfly_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "adaptfly" or name.startswith("adaptfly."))]


def patch_function(module_name: str, attr: str, make_wrapper, undo: list) -> None:
    """Replace a module function in every adaptfly module that bound it."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = make_wrapper(original)
    for mod in adaptfly_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
                undo.append((mod, name, original))


def patch_method(cls, attr: str, make_wrapper, undo: list) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, make_wrapper(original))
    undo.append((cls, attr, original))


def unpatch(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
    undo.clear()


class Tracer:
    """Span recorder plus the event counters observed at the same boundaries."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            if observe is not None:
                observe(args, result, None)
            return result

        return wrapper

    def install(self) -> None:
        import adaptfly.fleet  # noqa: F401  (loads every module patched below)
        import adaptfly.fleet.transport as transport

        observers = {
            "cmaes.optimize": self._on_optimize,
            "drift.detect": self._on_detect,
            "memory.resolve": self._on_resolve,
            "mec.handle": self._on_handle,
            "messages.encode": self._on_encode,
            "agents.limited_step": self._on_limited,
            "agents.massive_step": self._on_massive,
        }
        for module_name, attrs in MODULE_TARGETS.items():
            for attr, name in attrs.items():
                patch_function(
                    module_name, attr,
                    lambda fn, n=name: self._wrap(n, fn, observers.get(n)), self._undo,
                )
        for (module_name, cls_name), attrs in CLASS_TARGETS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            for attr, name in attrs.items():
                if name == "memory.refine":
                    patch_method(cls, attr, self._refine_wrapper, self._undo)
                    continue
                patch_method(
                    cls, attr,
                    lambda fn, n=name: self._wrap(n, fn, observers.get(n)), self._undo,
                )
        for cls in vars(transport).values():
            if not isinstance(cls, type) or cls.__module__ != transport.__name__:
                continue
            for attr, name in TRANSPORT_METHODS.items():
                if attr in cls.__dict__:
                    patch_method(cls, attr, lambda fn, n=name: self._wrap(n, fn), self._undo)
            if "write" in cls.__dict__:
                patch_method(cls, "write", self._pipe_wrapper, self._undo)

    def uninstall(self) -> None:
        unpatch(self._undo)

    # -- observers ---------------------------------------------------------

    def _on_optimize(self, args, result, exc):
        if result is not None:
            self.counts["searches"] += 1
            self.counts["cmaes.evals"] += result.evaluations
            self.counts["cmaes.generations"] += len(result.history)
            self.counts["improved"] += result.best_fitness < result.baseline_fitness

    def _on_detect(self, args, result, exc):
        if result is not None and result[0]:
            self.counts["drift.detections"] += 1

    def _on_resolve(self, args, result, exc):
        from adaptfly.errors import ResolutionError

        if isinstance(exc, ResolutionError):
            self.counts["memory.expired"] += 1

    def _on_handle(self, args, result, exc):
        server = args[0]
        self.counts["memory.entries_max"] = max(
            self.counts["memory.entries_max"], server.pool.size
        )

    def _on_encode(self, args, result, exc):
        if result is not None:
            self.counts["messages.frames"] += 1
            self.counts["messages.bytes"] += len(result)

    def _on_limited(self, args, record, exc):
        if record is not None:
            self.counts["agents.retrievals"] += record.adaptation_event == "retrieve"
            self.counts["agents.adoptions"] += record.retrieved > 0

    def _on_massive(self, args, record, exc):
        if record is not None:
            self.counts["agents.optimizations"] += record.adaptation_event == "optimize"
            self.counts["agents.warps"] += record.adaptation_event == "warp"

    def _pipe_wrapper(self, fn):
        def write(pipe, data):
            self.counts["transport.pipe_bytes"] += len(data)
            return fn(pipe, data)

        return write

    def _refine_wrapper(self, fn):
        """Refine in two passes, so merges and evictions count apart.

        The first pass folds pending entries with capacity lifted, which is
        exactly the merge phase of one refine; the second pass has nothing
        pending and runs only the capacity-eviction loop.
        """
        import dataclasses

        timed = self._wrap("memory.refine", fn)

        def refine(pool):
            config = pool.config
            before = pool.size
            pool.config = dataclasses.replace(config, capacity=max(before, 1))
            try:
                timed(pool)
            finally:
                pool.config = config
            merged = pool.refined_size
            timed(pool)
            self.counts["memory.refine_calls"] += 1
            self.counts["memory.merges"] += before - merged
            self.counts["memory.evictions"] += merged - pool.refined_size

        return refine

    # -- reduction ---------------------------------------------------------

    def reduce(self, wall_s: float, overhead_pct: float, rounds: int) -> dict:
        """Per-layer metrics from the spans and counters, per round.

        Totals (counts, seconds) are divided by the number of traced rounds,
        which repeat the same operations; ratios and per-call times are not.
        """
        n = len(self.spans)
        child = np.zeros(n)
        dur = np.empty(n)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur[i] = end - start
            if parent >= 0:
                child[parent] += dur[i]
            else:
                top += dur[i]
        for i, (name, _, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            incl_s[name] += dur[i]

        c = self.counts
        searches = c["searches"]
        out = {
            "cmaes.optimize_s": self_s["cmaes.optimize"],
            "cmaes.ask_s": self_s["cmaes.ask"],
            "cmaes.tell_s": self_s["cmaes.tell"],
            "cmaes.evals": c["cmaes.evals"],
            "cmaes.generations": c["cmaes.generations"],
            "cmaes.improved_ratio": c["improved"] / searches if searches else 0.0,
            "oracle.predict_calls": calls["oracle.predict"],
            "oracle.predict_s": self_s["oracle.predict"],
            "oracle.umap_s": self_s["oracle.umap"],
            "oracle.stem_s": self_s["oracle.stem"],
            "oracle.embed_s": self_s["oracle.embed"],
            "oracle.render_s": self_s["oracle.render"],
            "prompts.apply_svp_s": self_s["prompts.apply_svp"],
            "prompts.place_mask_s": self_s["prompts.place_mask"],
            "prompts.warp_s": self_s["prompts.warp"],
            "drift.stats_s": self_s["drift.stats"],
            "drift.detect_s": self_s["drift.detect"],
            "drift.detections": c["drift.detections"],
            "distill.calls": calls["distill"],
            "distill.s": self_s["distill"],
            "memory.query_calls": calls["memory.query"],
            "memory.query_s": self_s["memory.query"],
            "memory.refine_calls": c["memory.refine_calls"],
            "memory.refine_s": self_s["memory.refine"],
            "memory.merges": c["memory.merges"],
            "memory.evictions": c["memory.evictions"],
            "memory.entries_max": c["memory.entries_max"],
            "memory.resolve_s": self_s["memory.resolve"],
            "memory.expired": c["memory.expired"],
            "messages.frames": c["messages.frames"],
            "messages.bytes": c["messages.bytes"],
            "messages.encode_s": self_s["messages.encode"],
            "messages.decode_s": self_s["messages.decode"],
            "transport.send_s": self_s["transport.send"],
            "transport.request_s": self_s["transport.request"],
            "transport.pipe_bytes": c["transport.pipe_bytes"],
            "mec.handle_calls": calls["mec.handle"],
            "mec.handle_s": self_s["mec.handle"],
            "agents.limited_step_ms": _per_call_ms(incl_s, calls, "agents.limited_step"),
            "agents.massive_step_ms": _per_call_ms(incl_s, calls, "agents.massive_step"),
            "agents.retrievals": c["agents.retrievals"],
            "agents.adoptions": c["agents.adoptions"],
            "agents.adopt_ratio": (
                c["agents.adoptions"] / c["agents.retrievals"] if c["agents.retrievals"] else 0.0
            ),
            "agents.optimizations": c["agents.optimizations"],
            "agents.warps": c["agents.warps"],
            "agents.step_self_s": self_s["agents.limited_step"] + self_s["agents.massive_step"],
            "trace.spans": n,
            "trace.attributed_pct": 100.0 * top / wall_s if wall_s > 0 else 0.0,
            "trace.unattributed_s": wall_s - top,
            "trace.overhead_pct": overhead_pct,
        }
        return {name: out[name] if name in NOT_TOTALS else out[name] / rounds
                for name in PER_LAYER}

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, start, end, parent]) + "\n")


def _per_call_ms(incl_s, calls, name) -> float:
    return 1000.0 * incl_s[name] / calls[name] if calls[name] else 0.0


PER_LAYER_UNITS = {
    name: (
        "ms" if name.endswith("_ms")
        else "s" if name.endswith("_s") or name == "distill.s"
        else "bytes" if name.endswith("bytes")
        else "ratio" if name.endswith("_ratio")
        else "%" if name.endswith("_pct")
        else "count"
    )
    for name in PER_LAYER
}
