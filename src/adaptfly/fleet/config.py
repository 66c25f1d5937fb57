"""Scenario configuration: parsing, validation, and the reference scenario.

Configs are plain JSON-compatible dicts with a strictly validated key set;
unknown keys are rejected so typos fail fast instead of silently using
defaults. There is one rule set, held by the types: each config type
checks its own fields, so a config built in code is held to the same
rules as one read from JSON. A field's kind comes from its annotation
(``errors.check_fields``), its range from the type's ``__post_init__``.
The JSON tables below hold only key names: each maps an object's keys to
the fields of the type that owns them, with renames, required keys and
the readers of nested objects and lists. An absent or null key takes that
type's default. A malformed or out-of-range value raises ConfigError
naming the field, prefixed with the JSON path of its object when read
from JSON. See README for the full schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Literal, NamedTuple

from ..cmaes import CmaConfig
from ..distill import DistillConfig
from ..drift import MIN_CALIBRATION_SCORES, DriftTracker, check_quantile
from ..errors import ConfigError, check_fields, check_keys
from ..memory import PoolConfig
from ..oracle import DomainSpec, OracleSpec, patch_count
from ..prompts import sparsity_budget

__all__ = [
    "SegmentSpec",
    "AgentSpec",
    "LimitedSpec",
    "MassiveSpec",
    "ScenarioConfig",
    "reference_config",
    "clean_config",
]

# A massive agent's search mode. At a search's dimension (3 offsets per
# prompt pixel) a dense covariance learns almost nothing in a few dozen
# generations; the diagonal model needs no factorization, so a run's
# results do not depend on the BLAS thread count.
MASSIVE_SEARCH_MODE = "sep-cma"

# An id is a metrics.csv field and, in a merged pool entry, one of a
# comma-joined list of contributors: no comma, and none of the line breaks
# str.splitlines splits on.
_ID_BREAKS = frozenset(",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _build(where: str, make, **kwargs):
    """``make(**kwargs)``, its ConfigError prefixed with the JSON path."""
    try:
        return make(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read(d, table: dict | None, where: str, required=()) -> dict:
    """The values of ``d``'s keys, under the field names of ``table``.

    A table (see ``_keys``) maps each key to the name of the field it
    fills and to the reader of its nested object or list, or None; the
    types check the values. A table of None takes any key, for an object
    of options whose owner checks its keys. Absent and null keys are left
    out, so the owning type's defaults apply; ``required`` keys must be
    present. ``where`` is the object's JSON path, empty for the scenario.
    """
    what = where or "the scenario"
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object")
    if table is not None:
        check_keys(d, table, what)
    for key in required:
        if d.get(key) is None:
            raise ConfigError(f"{where}.{key} is required")
    values = {}
    for key, value in d.items():
        name, read = table[key] if table is not None else (key, None)
        if value is not None:
            values[name] = read(value, f"{where}.{key}" if where else key) if read else value
    return values


def _keys(names: str, **readers) -> dict:
    """A table: each space-separated key of ``names`` fills the field of its
    name, or ``key:field`` another one; each of ``readers`` reads its key."""
    table = {key: (name or key, None) for key, _, name in (n.partition(":") for n in names.split())}
    return table | {key: (key, read) for key, read in readers.items()}


def _list_of(read):
    """Read a list item by item, as a tuple; its owner names any other value."""
    return lambda value, name: (tuple(read(v, f"{name}[{i}]") for i, v in enumerate(value))
                                if isinstance(value, list) else value)


def _object(table: dict | None, make=dict, *required: str):
    """Read an object through ``table`` and build ``make`` from its values."""
    return lambda value, name: _build(name, make, **_read(value, table, name, required))


@dataclass(frozen=True)
class SegmentSpec:
    """One stretch of an agent's stream: a domain, a length, a camera motion."""

    domain: str
    frames: int
    motion: tuple[int, int] = (0, 0)

    def __post_init__(self):
        check_fields(self)
        if self.frames < 1:
            raise ConfigError(f"frames must be at least 1, got {self.frames!r}")
        if max(map(abs, self.motion)) > 2**31:
            raise ConfigError(f"motion must lie in [-2**31, 2**31], got {self.motion!r}")


class Fault(NamedTuple):
    """A dropped send: what ``agent`` sends at ``step`` never arrives."""

    agent: str
    step: int


@dataclass(frozen=True)
class AgentSpec:
    """What both agent kinds take: an id, a stream schedule and the drift
    detector's settings. Each range is checked once, by the code that uses
    the setting: DriftTracker (smoothing, threshold, warmup) and the spec
    classes. A scenario holds the spec of a kind, LimitedSpec or
    MassiveSpec, which adds the settings of that kind's adaptation mode.
    """

    id: str
    schedule: tuple[SegmentSpec, ...]
    smoothing: float = 0.1
    threshold: float | Literal["auto"] = "auto"   # positive number, or "auto" to calibrate
    warmup: int = 10

    def __post_init__(self):
        check_fields(self)
        if not self.schedule:
            raise ConfigError(f"agent {self.id} needs a schedule")
        threshold = 1.0 if self.threshold == "auto" else self.threshold  # auto: calibrated
        DriftTracker(smoothing=self.smoothing, warmup=self.warmup, threshold=threshold)

    @property
    def total_frames(self) -> int:
        return sum(s.frames for s in self.schedule)


@dataclass(frozen=True)
class LimitedSpec(AgentSpec):
    """A limited agent: it retrieves and assembles ``retrieval_n`` pooled
    token prompts on drift (JSON ``n``)."""

    kind: ClassVar[str] = "limited"
    retrieval_n: int = 2

    def __post_init__(self):
        super().__post_init__()
        if self.retrieval_n < 1:
            raise ConfigError(f"retrieval count n must be at least 1, got {self.retrieval_n!r}")


@dataclass(frozen=True)
class MassiveSpec(AgentSpec):
    """A massive agent: its sparse-prompt search, its refresh trigger and
    how it publishes. The search masks the frame's most uncertain pixels on
    its entropy map. Its ranges are checked by ``search_config`` (rho, cma)
    and this class.
    """

    kind: ClassVar[str] = "massive"
    rho: float = 0.05
    delta_refresh: float = 0.1
    defer_distill: bool = False
    cma: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        if self.delta_refresh < 0:
            raise ConfigError(f"delta_refresh must be non-negative, got {self.delta_refresh!r}")
        # a search sets its own dimension, seed and mode, and keeps sep-CMA's
        # default covariance floor
        check_keys(self.cma, ("population", "elite", "generations", "sigma0"), "cma")

    def search_config(self, height: int, width: int) -> CmaConfig:
        """``cma`` at three offsets per sparsity_budget(rho, height, width)
        pixel, in MASSIVE_SEARCH_MODE."""
        if not self.rho > 0:
            raise ConfigError(f"a massive agent's rho must be positive, got {self.rho!r}")
        dimension = 3 * sparsity_budget(self.rho, height, width)
        return _build("cma", CmaConfig, dimension=dimension, mode=MASSIVE_SEARCH_MODE, **self.cma)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; run with fleet.run_scenario.

    ``oracle`` holds the settings of the run's toy oracle. ``distill`` is
    the run's DistillConfig; as a dict of options, its rows default to one
    per patch token of the oracle. The settings read from nested JSON
    objects (``pool.refine_period``, ``calibration.*``) and the ids and
    faults are named by their JSON path.
    """

    agents: tuple[LimitedSpec | MassiveSpec, ...] = ()
    domains: tuple[DomainSpec, ...] = ()
    seed: int = 0
    oracle: OracleSpec = field(default_factory=OracleSpec)
    pool: PoolConfig = field(default_factory=PoolConfig)
    refine_period: int = 2
    transport: Literal["inproc", "stream"] = "inproc"
    distill: DistillConfig | dict = field(default_factory=dict)
    calibration_frames: int = 120
    calibration_quantile: float = 0.99
    provenance_window: int = 64
    faults: tuple[Fault, ...] = ()

    def __post_init__(self):
        check_fields(self)
        h, w = self.oracle.height, self.oracle.width
        if isinstance(self.distill, dict):
            check_keys(self.distill, DistillConfig.__dataclass_fields__, "distill")
            rows = patch_count(h, w, self.oracle.patch)
            distill = _build("distill", DistillConfig, **{"rows": rows, **self.distill})
            object.__setattr__(self, "distill", distill)
        for name, value in [("pool.refine_period", self.refine_period),
                            ("provenance_window", self.provenance_window),
                            ("calibration.frames", self.calibration_frames)]:
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value!r}")
        for name, specs in [("agents", self.agents), ("domains", self.domains)]:
            for i, spec in enumerate(specs):
                if not _ID_BREAKS.isdisjoint(spec.id):
                    raise ConfigError(
                        f"{name}[{i}].id must hold no comma or line break, got {spec.id!r}"
                    )
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ConfigError("agent ids must be unique")
        if not self.agents:
            raise ConfigError("scenario needs at least one agent")
        _build("calibration", check_quantile, quantile=self.calibration_quantile)
        lengths = {a.total_frames for a in self.agents}
        if len(lengths) != 1:
            raise ConfigError(
                f"all agents must stream the same number of frames, got {sorted(lengths)}"
            )
        for i, (agent, step) in enumerate(self.faults):
            if agent not in ids:
                raise ConfigError(f"faults[{i}]: agent {agent!r} is not an agent of the scenario")
            if not 0 <= step < self.total_frames:
                raise ConfigError(
                    f"faults[{i}]: step {step} must lie in [0, total_frames = {self.total_frames})"
                )
        known = {d.id for d in self.domains}
        if len(known) != len(self.domains):
            raise ConfigError("domain ids must be unique")
        for i, a in enumerate(self.agents):
            if isinstance(a, MassiveSpec):
                _build(f"agents[{i}]", a.search_config, height=h, width=w)
            for seg in a.schedule:
                if seg.domain not in known:
                    raise ConfigError(f"agent {a.id} references unknown domain {seg.domain!r}")
            needed = a.warmup + MIN_CALIBRATION_SCORES
            if a.threshold == "auto" and self.calibration_frames < needed:
                raise ConfigError(
                    f"calibration.frames must be at least warmup + {MIN_CALIBRATION_SCORES}"
                    f" = {needed} to calibrate agent {a.id}, got {self.calibration_frames}"
                )

    @property
    def total_frames(self) -> int:
        return self.agents[0].total_frames

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """Parse a JSON scenario; ConfigError names the first bad field."""
        values = _read(d, _SCENARIO, "")
        values.update(values.pop("calibration", {}))
        pool = values.pop("pool", {})
        if "refine_period" in pool:
            values["refine_period"] = pool.pop("refine_period")
        return cls(**values, pool=_build("pool", PoolConfig, **pool))


# The JSON tables: key names, renames and the readers of nested values.
_SEGMENT = _keys("domain frames motion")
_SCHEDULE = _list_of(_object(_SEGMENT, SegmentSpec, "domain", "frames"))
_AGENT_RENAMES = {"smoothing": "lambda", "threshold": "z", "retrieval_n": "n"}


def _agent_keys(spec: type, **readers) -> dict:
    """The table of an agent spec: its fields under their JSON names, and its kind."""
    names = " ".join(f"{_AGENT_RENAMES.get(f.name, f.name)}:{f.name}" for f in fields(spec))
    return _keys("kind " + names, schedule=_SCHEDULE, **readers)


_AGENTS = {spec.kind: (spec, _agent_keys(spec, **readers))
           for spec, readers in [(LimitedSpec, {}), (MassiveSpec, {"cma": _object(None)})]}


def _agent(value, name):
    """The spec of the agent's kind, read through that kind's table."""
    kind = value.get("kind") if isinstance(value, dict) else None
    if kind is None:
        _read(value, None, name, ("kind",))  # not an object, or no kind
    if not (isinstance(kind, str) and kind in _AGENTS):
        raise ConfigError(f"{name}: agent kind must be one of {tuple(_AGENTS)}, got {kind!r}")
    spec, table = _AGENTS[kind]
    values = _read(value, table, name, ("id", "schedule"))
    del values["kind"]
    return _build(name, spec, **values)


_SCENARIO = _keys(
    "seed transport provenance_window",
    oracle=_object(_keys(" ".join(OracleSpec.__dataclass_fields__)), OracleSpec),
    domains=_list_of(_object(_keys("id gain bias noise_scale seed"), DomainSpec, "id")),
    agents=_list_of(_agent),
    pool=_object(_keys("capacity tau_merge:merge_threshold eta:merge_weight refine_period")),
    distill=_object(None),
    calibration=_object(_keys("frames:calibration_frames quantile:calibration_quantile")),
    faults=_list_of(_object(_keys("agent step"), Fault, "agent", "step")),
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
            {"id": "uav-h1", "kind": "massive", "rho": 0.05, "delta_refresh": 0.5,
             "cma": {"population": 16, "elite": 8, "generations": 30, "sigma0": 0.25},
             **agent_common()},
            {"id": "uav-l1", "kind": "limited", "n": 2, **agent_common()},
            {"id": "uav-l2", "kind": "limited", "n": 2, **agent_common()},
        ],
        "pool": {"capacity": 64, "tau_merge": 0.95, "eta": 0.3, "refine_period": 2},
        "distill": {"rows": None, "steps": 8, "frames": 5, "precision": "f32"},
        "transport": transport,
    }


def clean_config(seed: int = 0, frames: int = 60) -> dict:
    """Single-domain scenario with no shifts, for threshold calibration:
    the reference oracle and base domain, one massive and one limited agent."""
    reference = reference_config(seed)
    return {
        "seed": seed,
        "oracle": reference["oracle"],
        "domains": reference["domains"][:1],
        "agents": [
            {"id": agent_id, "kind": kind, "z": 1e9, "warmup": 6,
             "schedule": [{"domain": "base", "frames": frames, "motion": [0, 0]}]}
            for agent_id, kind in [("uav-h1", "massive"), ("uav-l1", "limited")]
        ],
        "transport": "inproc",
    }
