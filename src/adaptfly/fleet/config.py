"""Scenario configuration: parsing, validation, and the reference scenario.

Configs are plain JSON-compatible dicts with a strictly validated key set;
unknown keys are rejected so typos fail fast instead of silently using
defaults, and every value is checked for type, length and range, so a
malformed config raises ConfigError naming the field. See README for the
full schema.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from ..cmaes import CmaConfig
from ..distill import DistillConfig
from ..errors import ConfigError
from ..oracle import DomainSpec

__all__ = [
    "SegmentSpec",
    "AgentSpec",
    "OracleSettings",
    "PoolSettings",
    "ScenarioConfig",
    "reference_config",
    "clean_config",
]

TRANSPORTS = ("inproc", "stream")
KINDS = ("limited", "massive")


_REQUIRED = object()
_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _take(d: dict, allowed: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _check(value, name: str, kind: type, lo=None, hi=None, positive=False):
    """One value of the given JSON kind, within [lo, hi] (and > 0 if positive).

    ``float`` accepts any finite JSON number and returns a float; ``int``
    accepts integers only. Booleans are never numbers.
    """
    ok = type(value) is kind
    if kind is float and type(value) in (int, float):
        number = float(value) if abs(value) <= sys.float_info.max else math.inf  # and NaN
        ok = math.isfinite(number)
    if not ok:
        raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float:
        value = number
    if (lo is not None and value < lo) or (hi is not None and value > hi) or (
        positive and value <= 0
    ):
        if positive:
            bounds = "positive" if hi is None else f"in (0, {hi}]"
        else:
            bounds = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name} must be {bounds}, got {value!r}")
    return value


def _field(d: dict, key: str, where: str, kind: type, default=_REQUIRED, *,
           lo=None, hi=None, positive=False, length=None):
    """``d[key]`` (or ``default`` when absent) checked by ``_check``.

    With ``length`` the value must be a list of that many such values and
    is returned as a tuple.
    """
    name = f"{where}.{key}"
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"{name} is required")
        return default
    value = d[key]
    if length is None:
        return _check(value, name, kind, lo, hi, positive)
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"{name} must be a list of {length} values, got {value!r}")
    return tuple(_check(v, f"{name}[{i}]", kind, lo, hi, positive) for i, v in enumerate(value))


def _objects(d: dict, key: str, where: str) -> list:
    value = d.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{where}.{key} must be a list")
    return value


# Value checks of the optional agent cma and scenario distill objects.
_CMA_FIELDS = {
    "population": dict(kind=int, lo=1), "elite": dict(kind=int, lo=1),
    "generations": dict(kind=int, lo=1), "sigma0": dict(kind=float, positive=True),
    "mode": dict(kind=str), "cov_floor": dict(kind=float, positive=True, hi=1.0),
}
_DISTILL_FIELDS = {
    "rows": dict(kind=int, lo=1), "steps": dict(kind=int, lo=1),
    "frames": dict(kind=int, lo=1), "precision": dict(kind=str),
}


def _options(d: dict, fields: dict, where: str) -> dict:
    """A checked copy of an options object; null values are left out (defaults)."""
    _take(d, set(fields), where)
    return {k: _field(d, k, where, **fields[k]) for k, v in d.items() if v is not None}


def _domain(d: dict, where: str) -> DomainSpec:
    _take(d, {"id", "gain", "bias", "noise_scale", "seed"}, where)
    return DomainSpec(
        id=_field(d, "id", where, str),
        gain=_field(d, "gain", where, float, (1.0, 1.0, 1.0), positive=True, length=3),
        bias=_field(d, "bias", where, float, (0.0, 0.0, 0.0), length=3),
        noise_scale=_field(d, "noise_scale", where, float, 0.0, lo=0.0),
        seed=_field(d, "seed", where, int, 0, lo=0),
    )


@dataclass(frozen=True)
class SegmentSpec:
    """One stretch of an agent's stream: a domain, a length, a camera motion."""

    domain: str
    frames: int
    motion: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.frames < 1:
            raise ConfigError("segment frame count must be at least 1")

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "SegmentSpec":
        _take(d, {"domain", "frames", "motion"}, where)
        return cls(
            domain=_field(d, "domain", where, str),
            frames=_field(d, "frames", where, int, lo=1),
            motion=_field(d, "motion", where, int, (0, 0), lo=-(2**31), hi=2**31, length=2),
        )


@dataclass(frozen=True)
class AgentSpec:
    """Static description of one agent."""

    id: str
    kind: str
    schedule: tuple[SegmentSpec, ...]
    smoothing: float = 0.1
    threshold: float | str = "auto"   # positive number, or "auto" to calibrate
    warmup: int = 10
    retrieval_n: int = 2              # limited only
    rho: float = 0.05                 # massive only
    mc_passes: int = 4
    dropout_rate: float = 0.1
    delta_refresh: float = 0.1
    defer_distill: bool = False
    cma: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"agent kind must be one of {KINDS}, got {self.kind!r}")
        if not self.schedule:
            raise ConfigError(f"agent {self.id} needs a schedule")

    @property
    def total_frames(self) -> int:
        return sum(s.frames for s in self.schedule)

    def cma_options(self) -> dict:
        options = dict(self.cma)
        CmaConfig(dimension=3, **options)  # validate values eagerly
        return options

    @classmethod
    def from_dict(cls, d: dict) -> "AgentSpec":
        where = f"agents[{d.get('id', '?')}]" if isinstance(d, dict) else "agents[]"
        _take(
            d,
            {
                "id", "kind", "schedule", "lambda", "z", "warmup", "n", "rho",
                "mc_passes", "dropout_rate", "delta_refresh", "defer_distill", "cma",
            },
            where,
        )
        schedule = tuple(
            SegmentSpec.from_dict(s, f"{where}.schedule[{i}]")
            for i, s in enumerate(_objects(d, "schedule", where))
        )
        threshold = d.get("z", "auto")
        if threshold != "auto":
            threshold = _field(d, "z", where, float, positive=True)
        return cls(
            id=_field(d, "id", where, str),
            kind=_field(d, "kind", where, str),
            schedule=schedule,
            smoothing=_field(d, "lambda", where, float, 0.1, lo=0.0, hi=1.0),
            threshold=threshold,
            warmup=_field(d, "warmup", where, int, 10, lo=0),
            retrieval_n=_field(d, "n", where, int, 2, lo=1),
            rho=_field(d, "rho", where, float, 0.05, lo=0.0, hi=1.0),
            mc_passes=_field(d, "mc_passes", where, int, 4, lo=1),
            dropout_rate=_field(d, "dropout_rate", where, float, 0.1, lo=0.0, hi=1.0),
            delta_refresh=_field(d, "delta_refresh", where, float, 0.1, lo=0.0),
            defer_distill=_field(d, "defer_distill", where, bool, False),
            cma=_options(d.get("cma", {}), _CMA_FIELDS, f"{where}.cma"),
        )


@dataclass(frozen=True)
class OracleSettings:
    seed: int = 7
    classes: int = 5
    height: int = 32
    width: int = 32
    stem_channels: int = 8
    patch: int = 4
    temperature: float = 0.08

    @classmethod
    def from_dict(cls, d: dict) -> "OracleSettings":
        _take(
            d,
            {"seed", "classes", "height", "width", "stem_channels", "patch", "temperature"},
            "oracle",
        )
        ints = {"seed": 0, "classes": 2, "height": 1, "width": 1, "stem_channels": 1, "patch": 1}
        values = {k: _field(d, k, "oracle", int, lo=lo) for k, lo in ints.items() if k in d}
        if "temperature" in d:
            values["temperature"] = _field(d, "temperature", "oracle", float, positive=True)
        return cls(**values)


@dataclass(frozen=True)
class PoolSettings:
    capacity: int = 256
    tau_merge: float = 0.95
    eta: float = 0.3
    refine_period: int = 2

    def __post_init__(self):
        if self.refine_period < 1:
            raise ConfigError("refine period must be at least 1")

    @classmethod
    def from_dict(cls, d: dict) -> "PoolSettings":
        _take(d, {"capacity", "tau_merge", "eta", "refine_period"}, "pool")
        return cls(
            capacity=_field(d, "capacity", "pool", int, 256, lo=1),
            tau_merge=_field(d, "tau_merge", "pool", float, 0.95, lo=-1.0, hi=1.0),
            eta=_field(d, "eta", "pool", float, 0.3, lo=0.0, hi=1.0),
            refine_period=_field(d, "refine_period", "pool", int, 2, lo=1),
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; run with fleet.run_scenario."""

    seed: int
    oracle: OracleSettings
    domains: tuple[DomainSpec, ...]
    agents: tuple[AgentSpec, ...]
    pool: PoolSettings = PoolSettings()
    transport: str = "inproc"
    kl_variant: str = "standard"
    distill: dict = field(default_factory=dict)
    calibration_frames: int = 120
    calibration_quantile: float = 0.99
    provenance_window: int = 64
    faults: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.transport not in TRANSPORTS:
            raise ConfigError(f"transport must be one of {TRANSPORTS}")
        if self.kl_variant not in ("standard", "simplified"):
            raise ConfigError("kl_variant must be 'standard' or 'simplified'")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ConfigError("agent ids must be unique")
        if not self.agents:
            raise ConfigError("scenario needs at least one agent")
        lengths = {a.total_frames for a in self.agents}
        if len(lengths) != 1:
            raise ConfigError(
                f"all agents must stream the same number of frames, got {sorted(lengths)}"
            )
        known = {d.id for d in self.domains}
        if len(known) != len(self.domains):
            raise ConfigError("domain ids must be unique")
        for a in self.agents:
            for seg in a.schedule:
                if seg.domain not in known:
                    raise ConfigError(f"agent {a.id} references unknown domain {seg.domain!r}")

    @property
    def total_frames(self) -> int:
        return self.agents[0].total_frames

    def distill_config(self, default_rows: int) -> DistillConfig:
        d = dict(self.distill)
        d.setdefault("rows", default_rows)
        return DistillConfig(**d)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        _take(
            d,
            {
                "seed", "oracle", "domains", "agents", "pool", "transport",
                "kl_variant", "distill", "calibration", "provenance_window", "faults",
            },
            "scenario",
        )
        calibration = d.get("calibration", {})
        _take(calibration, {"frames", "quantile"}, "calibration")
        faults = []
        for f in _objects(d, "faults", "scenario"):
            _take(f, {"agent", "step"}, "faults[]")
            faults.append((_field(f, "agent", "faults[]", str),
                           _field(f, "step", "faults[]", int)))
        return cls(
            seed=_field(d, "seed", "scenario", int, 0),
            oracle=OracleSettings.from_dict(d.get("oracle", {})),
            domains=tuple(
                _domain(x, f"domains[{i}]")
                for i, x in enumerate(_objects(d, "domains", "scenario"))
            ),
            agents=tuple(AgentSpec.from_dict(x) for x in _objects(d, "agents", "scenario")),
            pool=PoolSettings.from_dict(d.get("pool", {})),
            transport=_field(d, "transport", "scenario", str, "inproc"),
            kl_variant=_field(d, "kl_variant", "scenario", str, "standard"),
            distill=_options(d.get("distill", {}), _DISTILL_FIELDS, "distill"),
            calibration_frames=_field(calibration, "frames", "calibration", int, 120, lo=1),
            calibration_quantile=_field(calibration, "quantile", "calibration", float, 0.99,
                                        lo=0.0, hi=1.0),
            provenance_window=_field(d, "provenance_window", "scenario", int, 64, lo=1),
            faults=tuple(faults),
        )


def reference_config(seed: int = 0, transport: str = "inproc") -> dict:
    """The three-domain reference scenario: one massive scout, two limited.

    All agents stream base -> dusk -> fog -> rain in lockstep. The massive
    agent optimizes and uploads at each boundary; after the next
    consolidation tick the limited agents retrieve the distilled prompt
    and their entropy on that domain drops.
    """
    def schedule() -> list[dict]:
        return [
            {"domain": dom, "frames": 20, "motion": [0, 0]}
            for dom in ("base", "dusk", "fog", "rain")
        ]

    def agent_common() -> dict:
        # fresh nested objects per agent: callers may mutate their copy
        return {"lambda": 0.1, "z": "auto", "warmup": 6, "schedule": schedule()}
    # The three shifts raise mean entropy well clear of the source level and
    # their domain embeddings are nearly orthogonal, so retrieval separates
    # them cleanly. delta_refresh sits above the deterministic map jitter
    # (~0.15) and below the cross-domain change (~0.9).
    return {
        "seed": seed,
        "oracle": {"seed": 7, "classes": 5, "height": 32, "width": 32, "stem_channels": 8},
        "domains": [
            {"id": "base", "gain": [1.0, 1.0, 1.0], "bias": [0.0, 0.0, 0.0],
             "noise_scale": 0.01, "seed": 101 + seed},
            {"id": "dusk", "gain": [0.834, 0.765, 0.798], "bias": [-0.248, 0.22, 0.202],
             "noise_scale": 0.01, "seed": 202 + seed},
            {"id": "fog", "gain": [0.715, 0.733, 0.84], "bias": [0.145, -0.289, 0.282],
             "noise_scale": 0.01, "seed": 303 + seed},
            {"id": "rain", "gain": [0.625, 0.895, 0.619], "bias": [0.142, -0.154, -0.118],
             "noise_scale": 0.01, "seed": 404 + seed},
        ],
        "agents": [
            {"id": "uav-h1", "kind": "massive", "rho": 0.05, "mc_passes": 4,
             "dropout_rate": 0.1, "delta_refresh": 0.5,
             "cma": {"population": 16, "elite": 8, "generations": 30, "sigma0": 0.25},
             **agent_common()},
            {"id": "uav-l1", "kind": "limited", "n": 2, **agent_common()},
            {"id": "uav-l2", "kind": "limited", "n": 2, **agent_common()},
        ],
        "pool": {"capacity": 64, "tau_merge": 0.95, "eta": 0.3, "refine_period": 2},
        "distill": {"rows": None, "steps": 8, "frames": 5, "precision": "f32"},
        "transport": transport,
        "kl_variant": "standard",
    }


def clean_config(seed: int = 0, frames: int = 60) -> dict:
    """Single-domain scenario with no shifts, for threshold calibration."""
    return {
        "seed": seed,
        "oracle": {"seed": 7, "classes": 5, "height": 32, "width": 32, "stem_channels": 8},
        "domains": [
            {"id": "base", "gain": [1.0, 1.0, 1.0], "bias": [0.0, 0.0, 0.0],
             "noise_scale": 0.01, "seed": 101 + seed},
        ],
        "agents": [
            {"id": "uav-h1", "kind": "massive", "z": 1e9, "warmup": 6,
             "schedule": [{"domain": "base", "frames": frames, "motion": [0, 0]}]},
            {"id": "uav-l1", "kind": "limited", "z": 1e9, "warmup": 6,
             "schedule": [{"domain": "base", "frames": frames, "motion": [0, 0]}]},
        ],
        "transport": "inproc",
        "kl_variant": "standard",
    }
