"""Lockstep scenario orchestration and metrics.

All agents advance one frame per step; agents interact only through the
consolidation server, which receives a refine tick every
``pool.refine_period`` steps and a final flush at the end. Every random
draw comes from a per-agent seeded stream, so the metrics table is a pure
function of (config, seed) regardless of the transport.
"""

from __future__ import annotations

import io
import logging
import math
import re
import typing
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..drift import DriftTracker, calibrate_threshold, detect
from ..errors import MetricsFormatError
from ..memory import PromptPool
from ..oracle import ToyOracle, make_toy_oracle, render_frame
from .agents import ADAPTATION_EVENTS, RECORD_COLUMNS, LimitedAgent, MassiveAgent, StepRecord
from .config import AgentSpec, LimitedSpec, ScenarioConfig
from .mec import MecServer, ProvenanceLog
from .messages import RefineTick
from .transport import InprocClient, StreamClient

log = logging.getLogger(__name__)

__all__ = [
    "ScenarioResult",
    "run_scenario",
    "adaptation_summary",
    "metrics_csv",
    "parse_metrics_csv",
    "calibrate_scenario",
]


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    records: list[StepRecord]
    pool: PromptPool
    summary: dict


def _tracker(spec: AgentSpec, threshold: float = 1.0) -> DriftTracker:
    return DriftTracker(smoothing=spec.smoothing, threshold=threshold, warmup=spec.warmup)


def _frame_stream(oracle: ToyOracle, domains: dict, spec: AgentSpec, agent_index: int):
    """(segment, frame) for each step of an agent's schedule.

    From the second step on, the camera offset accumulates the motion of
    the segment the step falls in.
    """
    t, dx, dy = 0, 0, 0
    for seg in spec.schedule:
        for _ in range(seg.frames):
            if t > 0:
                dx, dy = dx + seg.motion[0], dy + seg.motion[1]
            frame = render_frame(
                oracle, domains[seg.domain],
                frame_index=agent_index * 1_000_003 + t, offset=(dx, dy),
            )
            yield seg, frame
            t += 1


def _thresholds(cfg: ScenarioConfig, oracle: ToyOracle, domains: dict,
                specs: typing.Iterable[AgentSpec]) -> tuple[dict, int]:
    """The threshold ``z: "auto"`` calibrates for each of ``specs``, by id,
    and the number of clean streams rendered.

    Besides the run's own settings (calibration frames and quantile,
    oracle), a calibrated threshold depends only on the first domain, the
    smoothing and the warmup, so specs that share all three share one
    stream: frames -1 ... -``calibration.frames`` of that domain, whose
    negative indices keep it disjoint from the scenario's own frames. Its
    scores after warmup, against a fresh tracker, give the threshold at
    ``calibration.quantile``.
    """
    sharing: dict[tuple[str, float, int], list[AgentSpec]] = {}
    for spec in specs:
        sharing.setdefault((spec.schedule[0].domain, spec.smoothing, spec.warmup), []).append(spec)
    thresholds = {}
    for (domain, smoothing, warmup), group in sharing.items():
        tracker, scores = _tracker(group[0]), []
        for i in range(cfg.calibration_frames):
            frame = render_frame(oracle, domains[domain], frame_index=-(i + 1))
            scores.append(detect(tracker, oracle.stem_stats(frame))[1])
        z = calibrate_threshold(scores[warmup:], cfg.calibration_quantile)
        log.info("calibrated z=%r on domain %s (lambda=%r, warmup=%d, %d frames) for %s",
                 z, domain, smoothing, warmup, cfg.calibration_frames,
                 ", ".join(s.id for s in group))
        thresholds.update((s.id, z) for s in group)
    return thresholds, len(sharing)


def run_scenario(config: dict | ScenarioConfig) -> ScenarioResult:
    """Run a scenario to completion; deterministic given the config."""
    cfg = ScenarioConfig.from_dict(config) if isinstance(config, dict) else config
    oracle = make_toy_oracle(**vars(cfg.oracle))
    domains = {d.id: d for d in cfg.domains}
    pool = PromptPool(cfg.pool)
    provenance = ProvenanceLog(window=cfg.provenance_window)
    server = MecServer(pool, oracle, cfg.distill, provenance)

    clock = {"t": -1}
    fault_set = set(cfg.faults)

    def client_for(agent_id: str | None):
        """An agent's client, which drops what it sends at the steps its
        faults name; with None, the refine-tick controller's, which no fault
        names, even when an agent's id is "__controller__"."""
        def fault_hook(_msg):
            return (agent_id, clock["t"]) in fault_set

        client = StreamClient if cfg.transport == "stream" else InprocClient
        return client(server, None if agent_id is None else fault_hook)

    controller = client_for(None)

    auto = [spec for spec in cfg.agents if spec.threshold == "auto"]
    thresholds, streams = _thresholds(cfg, oracle, domains, auto)
    thresholds = {spec.id: thresholds.get(spec.id, spec.threshold) for spec in cfg.agents}
    agents, reply_counts = [], {}
    for idx, spec in enumerate(cfg.agents):
        tracker = _tracker(spec, thresholds[spec.id])
        client = client_for(spec.id)
        reply_counts[spec.id] = client.reply_counts
        if isinstance(spec, LimitedSpec):
            agent = LimitedAgent(spec, oracle, client, tracker)
        else:
            agent = MassiveAgent(spec, oracle, client, tracker, cfg.distill, provenance,
                                 seed=cfg.seed * 10_007 + idx + 1)
        agents.append((agent, _frame_stream(oracle, domains, spec, idx)))

    records: list[StepRecord] = []
    for t in range(cfg.total_frames):
        clock["t"] = t
        for agent, frames in agents:
            seg, frame = next(frames)
            record = agent.step(t, frame, motion=seg.motion, domain_tag=seg.domain)
            record.pool_size = pool.size
            records.append(record)
        provenance.advance(t)
        if (t + 1) % cfg.refine_period == 0:
            controller.send(RefineTick())
    controller.send(RefineTick())  # final flush of pending entries

    summary = _summarize(cfg, records, pool, thresholds, streams, reply_counts)
    return ScenarioResult(config=cfg, records=records, pool=pool, summary=summary)


def adaptation_summary(records: list[StepRecord]) -> dict[str, dict[str, dict]]:
    """Per agent and domain: frames, mean entropy, and its split at the first
    adaptation, in first-seen order.

    The first adaptation is the first ``optimize`` step, or the first
    ``retrieve`` step that adopted entries (``retrieved > 0``). Steps before
    it are "pre", the rest "post"; an empty side is None.
    """
    steps: dict[str, dict[str, list[StepRecord]]] = {}
    for r in records:
        steps.setdefault(r.agent_id, {}).setdefault(r.domain, []).append(r)
    out: dict[str, dict[str, dict]] = {}
    for agent_id, domains in steps.items():
        out[agent_id] = {}
        for dom, rows in domains.items():
            first = next((r.step for r in rows if r.adaptation_event == "optimize"
                          or (r.adaptation_event == "retrieve" and r.retrieved > 0)), None)
            pre = [r.mean_entropy for r in rows if first is None or r.step < first]
            post = [r.mean_entropy for r in rows if first is not None and r.step >= first]
            out[agent_id][dom] = {
                "frames": len(rows),
                "mean_entropy": float(np.mean([r.mean_entropy for r in rows])),
                "first_adaptation_step": first,
                "pre_adaptation_mean_entropy": float(np.mean(pre)) if pre else None,
                "post_adaptation_mean_entropy": float(np.mean(post)) if post else None,
            }
    return out


def _summarize(cfg: ScenarioConfig, records: list[StepRecord], pool: PromptPool,
               thresholds: dict, streams: int, reply_counts: dict) -> dict:
    split = adaptation_summary(records)
    agents = {}
    for spec in cfg.agents:
        rows = [r for r in records if r.agent_id == spec.id]
        counts: dict[str, int] = {}
        for r in rows:
            counts[r.adaptation_event] = counts.get(r.adaptation_event, 0) + 1
        agents[spec.id] = {
            "kind": spec.kind,
            "threshold": thresholds[spec.id],
            "adaptation_counts": counts,
            "bytes_sent": int(sum(r.bytes_sent for r in rows)),
            "bytes_received": int(sum(r.bytes_received for r in rows)),
            "degraded_steps": int(sum(r.degraded for r in rows)),
            "reply_entries": dict(reply_counts[spec.id]),
            "domains": split.get(spec.id, {}),
        }
    return {
        "seed": cfg.seed,
        "transport": cfg.transport,
        "frames": cfg.total_frames,
        "agents": agents,
        "pool_size": pool.size,
        "calibration_streams": streams,
    }


def _csv_field(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    return repr(v) if isinstance(v, float) else str(v)


def metrics_csv(records: list[StepRecord]) -> str:
    """Render records as CSV, one row per (step, agent)."""
    out = io.StringIO()
    out.write(",".join(RECORD_COLUMNS) + "\n")
    for r in records:
        out.write(",".join(map(_csv_field, r.as_row())) + "\n")
    return out.getvalue()


# The forms metrics_csv writes a number in: ASCII digits, no "_" or spaces.
_NUMBER_FORMS = {int: re.compile(r"-?[0-9]+"),
                 float: re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")}


def _one_of(choices: tuple, text: str) -> str:
    if text not in choices:
        raise ValueError(f"expected {' or '.join(choices)}, got {text!r}")
    return text


def _finite(kind: type, text: str):
    value = kind(text) if _NUMBER_FORMS[kind].fullmatch(text) else math.inf
    if abs(value) == math.inf:  # an int of any size compares without overflow
        raise ValueError(f"expected a finite {kind.__name__}, got {text!r}")
    return value


_TYPE_PARSERS = {bool: lambda text: _one_of(("0", "1"), text) == "1", str: str,
                 int: partial(_finite, int), float: partial(_finite, float)}
_COLUMN_PARSERS = tuple(
    partial(_one_of, ADAPTATION_EVENTS) if column == "adaptation_event" else _TYPE_PARSERS[t]
    for column, t in typing.get_type_hints(StepRecord).items()
)


def parse_metrics_csv(text: str, source: str = "metrics.csv") -> list[StepRecord]:
    """Inverse of ``metrics_csv``: one StepRecord per data row.

    Each column is read only in the form ``metrics_csv`` writes for its
    StepRecord field's type: ASCII integers (no ``_`` or spaces), finite
    decimal numbers, booleans as 0 or 1, events from ADAPTATION_EVENTS.
    MetricsFormatError names ``source`` and the 1-based line.
    """
    lines = text.splitlines()
    if not lines or lines[0].split(",") != list(RECORD_COLUMNS):
        raise MetricsFormatError(f"{source} does not start with the metrics header")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(RECORD_COLUMNS):
            raise MetricsFormatError(f"{source} line {i}: expected {len(RECORD_COLUMNS)} fields")
        try:
            records.append(StepRecord(*(parse(p) for parse, p in zip(_COLUMN_PARSERS, parts))))
        except ValueError as exc:
            raise MetricsFormatError(f"{source} line {i}: {exc}") from exc
    return records


def calibrate_scenario(config: dict | ScenarioConfig) -> dict:
    """The threshold ``z: "auto"`` calibrates for each agent, whatever its
    own ``z``, and the quantile it is taken at: ``{"z": {agent_id: z},
    "quantile": q}``. Each value, set as that agent's ``z``, runs the
    detector ``"auto"`` runs.
    """
    cfg = ScenarioConfig.from_dict(config) if isinstance(config, dict) else config
    oracle = make_toy_oracle(**vars(cfg.oracle))
    thresholds = _thresholds(cfg, oracle, {d.id: d for d in cfg.domains}, cfg.agents)[0]
    return {"z": thresholds, "quantile": cfg.calibration_quantile}
