import copy
import dataclasses
import json
import logging
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from adaptfly.distill import DistillConfig, entry_size_bytes
from adaptfly.drift import DriftTracker, calibrate_threshold, compute_stats, detect
from adaptfly.errors import CompositionError, ConfigError, MetricsFormatError, ProtocolError
from adaptfly.fleet import (
    InprocClient,
    MecServer,
    ProvenanceLog,
    Query,
    QueryResponse,
    RefineTick,
    RegisterDeferred,
    ScenarioConfig,
    StreamClient,
    UploadPrompt,
    clean_config,
    metrics_csv,
    parse_metrics_csv,
    reference_config,
    run_scenario,
)
from adaptfly.fleet.agents import (
    ADAPTATION_EVENTS,
    RECORD_COLUMNS,
    LimitedAgent,
    MassiveAgent,
    StepRecord,
)
from adaptfly.fleet.config import AgentSpec, LimitedSpec, MassiveSpec, SegmentSpec
from adaptfly.fleet.scenario import _calibrated_threshold
from adaptfly.fleet import scenario as scenario_mod
from adaptfly.fleet import transport as transport_mod
from adaptfly.fleet import messages as messages_mod
from adaptfly.fleet.messages import (
    REPLY_CACHE_ENTRIES,
    ReplyEntry,
    decode_message,
    encode_message,
)
from adaptfly.memory import PoolConfig, PoolEntry, PromptPool
from adaptfly.oracle import (
    DomainSpec,
    OracleSpec,
    make_toy_oracle,
    planted_correction,
    render_frame,
)
from adaptfly.prompts import SparseVisualPrompt, TokenPrompt, number_vector, place_mask


def mini_config(seed=0, transport="inproc", frames=10):
    """Two domains, one massive + one limited agent, short run."""
    cfg = reference_config(seed=seed, transport=transport)
    schedule = [
        {"domain": "base", "frames": frames, "motion": [0, 0]},
        {"domain": "dusk", "frames": frames, "motion": [0, 0]},
    ]
    for agent in cfg["agents"]:
        agent["schedule"] = [dict(seg) for seg in schedule]
        agent["warmup"] = 4
    cfg["agents"] = cfg["agents"][:2]  # uav-h1 + uav-l1
    cfg["domains"] = cfg["domains"][:2]
    cfg["pool"]["refine_period"] = 2
    return cfg


class TestScenarioBasics:
    def test_zero_shift_scenario_has_zero_adaptation_events(self):
        result = run_scenario(clean_config(seed=0, frames=40))
        events = {r.adaptation_event for r in result.records}
        assert events == {"none"}
        assert all(r.bytes_sent == 0 for r in result.records)

    def test_determinism_same_config_same_metrics(self):
        a = run_scenario(mini_config(seed=3))
        b = run_scenario(mini_config(seed=3))
        assert metrics_csv(a.records) == metrics_csv(b.records)
        assert json.dumps(a.summary, sort_keys=True) == json.dumps(b.summary, sort_keys=True)

    def test_transport_stream_matches_inproc(self):
        a = run_scenario(mini_config(seed=2, transport="inproc"))
        b = run_scenario(mini_config(seed=2, transport="stream"))
        assert metrics_csv(a.records) == metrics_csv(b.records)

    def test_accepts_dict_or_config_object(self):
        raw = mini_config(seed=1)
        a = run_scenario(raw)
        b = run_scenario(ScenarioConfig.from_dict(raw))
        assert metrics_csv(a.records) == metrics_csv(b.records)

    def test_limited_agents_never_optimize(self):
        result = run_scenario(mini_config(seed=0))
        kinds = {s.id: s.kind for s in result.config.agents}
        for r in result.records:
            if kinds[r.agent_id] == "limited":
                assert r.adaptation_event in ("none", "retrieve")

    def test_massive_agent_optimizes_then_warps(self):
        result = run_scenario(mini_config(seed=0, frames=12))
        h1 = [r for r in result.records if r.agent_id == "uav-h1"]
        dusk_events = [r.adaptation_event for r in h1 if r.domain == "dusk"]
        assert dusk_events[0] == "optimize"
        assert "warp" in dusk_events
        # warped steps send nothing
        for r in h1:
            if r.adaptation_event == "warp":
                assert r.bytes_sent == 0

    def test_metrics_csv_shape(self):
        result = run_scenario(mini_config(seed=0, frames=6))
        lines = metrics_csv(result.records).strip().splitlines()
        assert lines[0] == ",".join(RECORD_COLUMNS)
        assert len(lines) == 1 + len(result.records)
        assert all(len(l.split(",")) == len(RECORD_COLUMNS) for l in lines)

    def test_pool_size_recorded(self):
        result = run_scenario(mini_config(seed=0))
        assert any(r.pool_size > 0 for r in result.records)


class TestMetricsTable:
    """``parse_metrics_csv`` reads what ``metrics_csv`` writes, and nothing else."""

    def test_reference_run_reads_back_equal(self):
        records = run_scenario(reference_config(0)).records
        assert parse_metrics_csv(metrics_csv(records)) == records

    def test_slotted_records_read_back_unchanged(self):
        # StepRecord keeps its fields in slots; the table still writes and
        # reads every field unchanged, in value and in type.
        records = run_scenario(reference_config(0)).records
        assert StepRecord.__slots__ == RECORD_COLUMNS
        assert not hasattr(records[0], "__dict__")
        parsed = parse_metrics_csv(metrics_csv(records))
        assert parsed == records
        for a, b in zip(parsed, records):
            assert [(type(v), v) for v in a.as_row()] == [(type(v), v) for v in b.as_row()]
        assert metrics_csv(parsed) == metrics_csv(records)

    def test_accepted_ids_read_back_equal(self):
        cfg = mini_config(frames=6)
        cfg["agents"][1]["id"] = 'uav "l1";\tü'
        cfg["domains"][1]["id"] = "dusk/ü"
        for agent in cfg["agents"]:
            agent["schedule"][1]["domain"] = "dusk/ü"
        records = run_scenario(cfg).records
        assert {(r.agent_id, r.domain) for r in records} >= {('uav "l1";\tü', "dusk/ü")}
        assert parse_metrics_csv(metrics_csv(records)) == records

    @staticmethod
    def _table(column: str, text: str) -> str:
        record = StepRecord(step=3, agent_id="uav-l1", domain="dusk", drift_score=0.5,
                            shift_flag=True, mean_entropy=1.25, adaptation_event="retrieve",
                            bytes_sent=120, bytes_received=4096, retrieved=1)
        header, row = metrics_csv([record]).splitlines()
        fields = row.split(",")
        fields[RECORD_COLUMNS.index(column)] = text
        return f"{header}\n{','.join(fields)}\n"

    @pytest.mark.parametrize("event", ADAPTATION_EVENTS)
    def test_each_event_is_read(self, event):
        (record,) = parse_metrics_csv(self._table("adaptation_event", event))
        assert record.adaptation_event == event

    @pytest.mark.parametrize("column, text", [
        ("step", "1_0"), ("bytes_sent", "\u0663"),
        ("step", " 1"), ("drift_score", " 0.5 "),
        ("mean_entropy", "nan"), ("drift_score", "inf"), ("mean_entropy", "1e999"),
        ("adaptation_event", "bogus"),
    ])
    def test_form_it_never_writes_is_rejected(self, column, text):
        with pytest.raises(MetricsFormatError) as err:
            parse_metrics_csv(self._table(column, text))
        assert str(err.value).startswith("metrics.csv line 2: ") and repr(text) in str(err.value)


# Writes metrics.csv of reference_config(0) and (1) into the directory argv[1].
_WRITE_REFERENCE_METRICS = """
import sys
from pathlib import Path
from adaptfly.fleet import metrics_csv, reference_config, run_scenario
for seed in (0, 1):
    text = metrics_csv(run_scenario(reference_config(seed)).records)
    (Path(sys.argv[1]) / f"metrics-{seed}.csv").write_text(text, encoding="utf-8")
"""


class TestBlasThreads:
    def test_reference_metrics_identical_under_one_and_two_blas_threads(self, tmp_path):
        # OpenBLAS reads its thread count once, at load, so each count gets
        # its own interpreter. The default massive-agent search makes no
        # call whose result depends on it.
        import adaptfly

        src = str(Path(adaptfly.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-c", _WRITE_REFERENCE_METRICS, str(out)],
                           env=env, check=True, timeout=300)
        for seed in (0, 1):
            name = f"metrics-{seed}.csv"
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


class TestConfigValidation:
    def test_unknown_scenario_key(self):
        cfg = mini_config()
        cfg["banana"] = 1
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_unknown_agent_key(self):
        cfg = mini_config()
        cfg["agents"][0]["optimizer"] = "adam"
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_dangling_domain_reference(self):
        cfg = mini_config()
        cfg["agents"][0]["schedule"][0]["domain"] = "mars"
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_unequal_stream_lengths(self):
        cfg = mini_config()
        cfg["agents"][0]["schedule"][0]["frames"] = 99
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_duplicate_agent_ids(self):
        cfg = mini_config()
        cfg["agents"][1]["id"] = cfg["agents"][0]["id"]
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_bad_transport(self):
        cfg = mini_config()
        cfg["transport"] = "carrier-pigeon"
        with pytest.raises(ConfigError):
            run_scenario(cfg)


def set_path(config: dict, dotted: str, value) -> None:
    *path, leaf = dotted.split(".")
    node = config
    for key in path:
        node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
    node[leaf] = value


# Values that once parsed and then failed inside run_scenario, and agent
# settings whose range the type that runs them checks, each with the
# start of the message that must name its JSON object or field.
OUT_OF_RANGE = [
    ("pool.eta", 0, "pool: merge weight"),
    ("pool.tau_merge", -0.5, "pool: merge threshold"),
    ("agents.0.cma.elite", 40, "agents[0]: cma: elite"),
    ("agents.0.cma.mode", "full-cma", "agents[0]: unknown key(s) ['mode'] in cma"),
    ("distill.precision", "f64", "distill: precision"),
    ("calibration.frames", 35, "calibration.frames"),
    ("calibration.quantile", 0, "calibration: quantile must lie in (0, 1], got 0.0"),
    ("oracle.height", 30, "oracle: frame 30x32"),
    ("agents.0.rho", 0, "agents[0]: a massive agent's rho"),
    ("agents.0.cma.sigma0", 0, "agents[0]: cma: initial std"),
    ("agents.0.lambda", 2, "agents[0]: smoothing factor"),
    ("agents.0.warmup", -1, "agents[0]: warmup"),
    ("agents.0.z", 0, "agents[0]: threshold"),
    ("agents.1.n", 0, "agents[1]: retrieval count n"),
    ("agents.0.cma.generations", 0, "agents[0]: cma: generations"),
    ("agents.0.delta_refresh", -0.1, "agents[0]: delta_refresh"),
    ("agents.0.rho", 1.5, "agents[0]: sparsity ratio"),
    # A fault must name an agent: the controller's ticks and typos are rejected.
    ("faults", [{"agent": "__controller__", "step": 1}], "faults[0]: agent '__controller__'"),
    ("faults", [{"agent": "uav-l1", "step": 1}, {"agent": "uav-l3", "step": 2}],
     "faults[1]: agent 'uav-l3'"),
    # A fault at a step the scenario never reaches would silently never fire.
    ("faults", [{"agent": "uav-h1", "step": -1}],
     "faults[0]: step -1 must lie in [0, total_frames = 80)"),
    ("faults", [{"agent": "uav-h1", "step": 0}, {"agent": "uav-l1", "step": 80}],
     "faults[1]: step 80 must lie in [0, total_frames = 80)"),
    ("pool.refine_period", 0, "pool.refine_period must be at least 1, got 0"),
    ("provenance_window", 0, "provenance_window must be at least 1, got 0"),
]


class TestRejectedAtParse:
    @pytest.mark.parametrize("dotted, value, named", OUT_OF_RANGE)
    def test_out_of_range_value_names_its_field(self, dotted, value, named):
        cfg = reference_config(seed=0)
        set_path(cfg, dotted, value)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(cfg)
        assert str(err.value).startswith(named)

    @pytest.mark.parametrize("field, named", [
        pytest.param("refine_period", "pool.refine_period", id="refine_period"),
        pytest.param("provenance_window", "provenance_window", id="provenance_window"),
    ])
    def test_range_is_checked_on_direct_construction(self, field, named):
        # run_scenario divides by the period, and a window below 1 expires every
        # deferred entry, so a config not read from JSON is checked too.
        cfg = ScenarioConfig.from_dict(reference_config(seed=0))
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, **{field: 0})
        assert str(err.value) == f"{named} must be at least 1, got 0"

    @pytest.mark.parametrize("dotted, value", [
        ("agents.1.id", "uav,l1"),
        ("agents.0.id", "uav,h1"),  # a merge joins its contributors' ids with commas
        ("agents.2.id", "uav\rl2"),
        ("domains.1.id", "dusk\n"),
        ("domains.3.id", "rain\u2028"),
    ])
    def test_id_that_breaks_the_outputs_names_its_field(self, dotted, value):
        cfg = reference_config(seed=0)
        set_path(cfg, dotted, value)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(cfg)
        kind, i, _ = dotted.split(".")
        assert str(err.value) == f"{kind}[{i}].id must hold no comma or line break, got {value!r}"

    def test_every_line_break_the_metrics_reader_splits_on_is_rejected(self):
        breaks = [c for c in map(chr, range(sys.maxunicode + 1))
                  if len(f"a{c}b".splitlines()) > 1]
        for c in [","] + breaks:
            cfg = reference_config(seed=0)
            cfg["agents"][1]["id"] = f"uav{c}l1"
            with pytest.raises(ConfigError, match=r"^agents\[1\]\.id "):
                ScenarioConfig.from_dict(cfg)

    def test_fault_steps_at_the_ends_of_the_stream_are_accepted(self):
        cfg = reference_config(seed=0)
        cfg["faults"] = [{"agent": "uav-h1", "step": 0}, {"agent": "uav-l2", "step": 79}]
        assert ScenarioConfig.from_dict(cfg).faults == (("uav-h1", 0), ("uav-l2", 79))

    def test_parsed_types_are_the_library_types(self):
        cfg = ScenarioConfig.from_dict(reference_config(seed=0))
        assert cfg.pool == PoolConfig(capacity=64, merge_threshold=0.95, merge_weight=0.3)
        assert cfg.refine_period == 2
        assert cfg.oracle == OracleSpec(seed=7, classes=5, height=32, width=32,
                                        stem_channels=8, patch=4, temperature=0.08)
        assert cfg.domains[1] == DomainSpec(id="dusk", gain=(0.834, 0.765, 0.798),
                                            bias=(-0.248, 0.22, 0.202), noise_scale=0.01,
                                            seed=202)

    def test_cma_is_checked_at_the_search_dimension(self):
        # 3 x sparsity_budget(0.05, 32, 32) = 153 dimensions: population 19.
        cfg = mini_config(seed=0)
        cfg["agents"][0]["cma"] = {"elite": 8}
        assert ScenarioConfig.from_dict(cfg).agents[0].cma == {"elite": 8}
        result = run_scenario(cfg)
        assert "optimize" in {r.adaptation_event for r in result.records}
        cfg["agents"][0]["cma"] = {"population": 6, "elite": 8}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(cfg)
        assert str(err.value).startswith("agents[0]: cma: elite size 8")

    def test_absent_settings_take_the_owning_type_defaults(self):
        cfg = reference_config(seed=0)
        for key in ("oracle", "pool", "distill"):
            del cfg[key]
        parsed = ScenarioConfig.from_dict(cfg)
        assert parsed.pool == PoolConfig()
        assert repr(make_toy_oracle(**vars(parsed.oracle))) == repr(make_toy_oracle(seed=7))
        assert parsed.distill == DistillConfig(rows=64)


class TestAgentKeys:
    def test_each_agent_parses_to_its_spec(self):
        schedule = tuple(SegmentSpec(d, 20, (0, 0)) for d in ("base", "dusk", "fog", "rain"))
        common = {"schedule": schedule, "smoothing": 0.1, "threshold": "auto", "warmup": 6}
        massive = MassiveSpec(id="uav-h1", rho=0.05, delta_refresh=0.5,
                              cma={"population": 16, "elite": 8, "generations": 30,
                                   "sigma0": 0.25},
                              **common)
        limited = [LimitedSpec(id=f"uav-l{i}", retrieval_n=2, **common) for i in (1, 2)]
        assert ScenarioConfig.from_dict(reference_config(0)).agents == (massive, *limited)
        clean = ScenarioConfig.from_dict(clean_config(0, frames=60)).agents
        assert [(a.kind, a.threshold, a.warmup) for a in clean] == [
            ("massive", 1e9, 6), ("limited", 1e9, 6)]

    @pytest.mark.parametrize("index, key, value", [
        (1, "rho", 0.1), (1, "mc_passes", 2), (1, "dropout_rate", 0.2),
        (1, "delta_refresh", 0.3), (1, "defer_distill", True),
        (1, "cma", {"population": 2, "elite": 8}), (0, "n", 2),
        # The mask is placed on the step's entropy map: no kind takes the
        # Monte-Carlo dropout map's settings.
        (0, "mc_passes", 2), (0, "dropout_rate", 0.2),
    ])
    def test_a_key_of_the_other_kind_is_unknown(self, index, key, value):
        cfg = reference_config(seed=0)
        cfg["agents"][index][key] = value
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(cfg)
        assert str(err.value) == f"unknown key(s) ['{key}'] in agents[{index}]"

    @pytest.mark.parametrize("key, value", [("mode", "full-cma"), ("cov_floor", 1e-9)])
    def test_a_massive_search_takes_only_its_size_and_step(self, key, value):
        """Every massive search is sep-CMA with the default covariance floor."""
        with pytest.raises(ConfigError) as err:
            MassiveSpec(id="a", schedule=(SegmentSpec("base", 1),),
                        cma={"population": 16, key: value})
        assert str(err.value) == f"unknown key(s) ['{key}'] in cma"

    def test_a_massive_spec_holds_nine_settings(self):
        assert [f.name for f in dataclasses.fields(MassiveSpec)] == [
            "id", "schedule", "smoothing", "threshold", "warmup",
            "rho", "delta_refresh", "defer_distill", "cma"]

    def test_an_unknown_kind_is_named_before_its_keys(self):
        cfg = reference_config(seed=0)
        cfg["agents"][0]["kind"] = "hybrid"
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(cfg)
        assert str(err.value).startswith("agents[0]: agent kind must be one of")

    @pytest.mark.parametrize("kind", ["hybrid", 3, ["limited"]])
    def test_a_kind_is_checked_before_any_key_is_read(self, kind):
        cfg = reference_config(seed=0)
        cfg["agents"][0].update(kind=kind, flavor=1)
        del cfg["agents"][0]["id"]
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(cfg)
        assert str(err.value) == (
            f"agents[0]: agent kind must be one of ('limited', 'massive'), got {kind!r}")

    @pytest.mark.parametrize("make, key, value", [
        (LimitedSpec, "rho", 0.1), (LimitedSpec, "mc_passes", 2),
        (LimitedSpec, "dropout_rate", 0.2), (LimitedSpec, "delta_refresh", 0.3),
        (LimitedSpec, "defer_distill", True), (LimitedSpec, "cma", {"population": 2}),
        (MassiveSpec, "retrieval_n", 2), (LimitedSpec, "kind", "limited"),
        (MassiveSpec, "kind", "massive"), (MassiveSpec, "mc_passes", 2),
        (MassiveSpec, "dropout_rate", 0.2),
    ])
    def test_a_setting_of_the_other_kind_is_refused_in_code(self, make, key, value):
        """As from JSON: each spec takes only its own kind's settings, and
        the kind is its type, not a setting."""
        with pytest.raises(TypeError):
            make(id="a", schedule=(SegmentSpec("base", 1),), **{key: value})

    def test_each_spec_names_its_kind(self):
        agents = ScenarioConfig.from_dict(reference_config(0)).agents
        assert [a.kind for a in agents] == ["massive", "limited", "limited"]
        assert (LimitedSpec.kind, MassiveSpec.kind) == ("limited", "massive")
        for spec in (LimitedSpec, MassiveSpec):
            assert "kind" not in {f.name for f in dataclasses.fields(spec)}

    def test_a_bare_agent_spec_is_not_a_scenario_agent(self):
        cfg = ScenarioConfig.from_dict(reference_config(0))
        bare = AgentSpec(id="uav-l3", schedule=cfg.agents[1].schedule)
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, agents=(*cfg.agents, bare))
        assert str(err.value).startswith("agents[3] must be a LimitedSpec or a MassiveSpec, got")

    def test_absent_keys_run_with_the_spec_defaults(self, monkeypatch):
        import adaptfly.fleet.agents as agents_mod
        from dataclasses import fields, replace

        from adaptfly.cmaes import CmaConfig
        from adaptfly.prompts import sparsity_budget

        cfg = mini_config(seed=0, frames=2)
        for agent in cfg["agents"]:
            for key in set(agent) - {"id", "kind", "schedule"}:
                del agent[key]
        made = []

        def recording(init):
            def wrapper(self, *args, **kwargs):
                made.append(self)
                init(self, *args, **kwargs)
            return wrapper

        for cls in (LimitedAgent, MassiveAgent):
            monkeypatch.setattr(cls, "__init__", recording(cls.__init__))
        run_scenario(cfg)
        massive, limited = made
        default = {f.name: f.default for f in fields(MassiveSpec)}  # cma: MISSING, i.e. {}
        limited_default = {f.name: f.default for f in fields(LimitedSpec)}
        for agent, defaults in [(massive, default), (limited, limited_default)]:
            assert (agent.tracker.smoothing, agent.tracker.warmup) == (
                defaults["smoothing"], defaults["warmup"])
        budget = sparsity_budget(default["rho"], 32, 32)
        assert massive.search == CmaConfig(dimension=3 * budget, mode="sep-cma")
        # The search mode is fixed: a config that names one, even a dense one, is refused.
        dense = copy.deepcopy(cfg)
        dense["agents"][0]["cma"] = {"mode": "full-cma"}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(dense)
        assert str(err.value) == "agents[0]: unknown key(s) ['mode'] in cma"

        class Recorded(Exception):
            pass

        seen = {}

        def record(name):
            def capture(*args, **kwargs):  # the search also takes the frame's base map
                seen[name] = args
                raise Recorded
            return capture

        monkeypatch.setattr(agents_mod, "optimize_svp", record("search"))
        frame = massive.oracle.base_image()
        with pytest.raises(Recorded):
            massive._optimize(5, frame, None, massive.oracle.entropy_map(frame),
                              massive.oracle.query_embedding(frame))
        _, _, coords, search = seen["search"]
        assert coords.shape == (budget, 2)
        assert search == replace(massive.search, seed=massive._cma_seed(5))

        limited.client = type("Client", (), {"bytes_sent": 0, "bytes_received": 0,
                                             "request": staticmethod(record("query"))})()
        monkeypatch.setattr(agents_mod, "detect", lambda tracker, stats: (True, 1.0, None))
        with pytest.raises(Recorded):
            limited.step(5, frame)
        assert seen["query"][0].n == limited_default["retrieval_n"]


class TestCalibration:
    def _plain_loop(self, cfg, idx, stats_of):
        spec, oracle = cfg.agents[idx], make_toy_oracle(**vars(cfg.oracle))
        domain = next(d for d in cfg.domains if d.id == spec.schedule[0].domain)
        tracker = DriftTracker(smoothing=spec.smoothing, warmup=spec.warmup)
        scores = []
        for i in range(cfg.calibration_frames):
            frame = render_frame(oracle, domain, frame_index=-(i + 1))
            scores.append(detect(tracker, stats_of(oracle, frame))[1])
        return calibrate_threshold(scores[spec.warmup:], cfg.calibration_quantile)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_threshold_equals_a_plain_per_frame_loop(self, seed):
        cfg = ScenarioConfig.from_dict(reference_config(seed=seed))
        oracle = make_toy_oracle(**vars(cfg.oracle))
        domains = {d.id: d for d in cfg.domains}
        for idx, spec in enumerate(cfg.agents):
            got = _calibrated_threshold(cfg, spec, oracle, domains)
            assert got == self._plain_loop(cfg, idx, lambda o, f: o.stem_stats(f))
            brute = self._plain_loop(cfg, idx, lambda o, f: compute_stats(o.stem_features(f)))
            assert got == pytest.approx(brute, rel=1e-9)


def counted_calibration_frames(monkeypatch) -> list[int]:
    """Frame indices of the clean calibration frames the scenario renders from now on."""
    indices: list[int] = []

    def counting(oracle, domain, frame_index=0, **kwargs):
        if frame_index < 0:
            indices.append(frame_index)
        return render_frame(oracle, domain, frame_index=frame_index, **kwargs)

    monkeypatch.setattr(scenario_mod, "render_frame", counting)
    return indices


def three_agent_config(seed=0, frames=6):
    """mini_config plus a second limited agent, uav-l2, on the same schedule."""
    cfg = mini_config(seed=seed, frames=frames)
    cfg["agents"].append({**copy.deepcopy(cfg["agents"][1]), "id": "uav-l2"})
    return cfg


class TestSharedCalibration:
    """One clean stream per distinct (first domain, lambda, warmup) in a run."""

    def test_reference_config_renders_one_stream(self, monkeypatch):
        indices = counted_calibration_frames(monkeypatch)
        cfg = ScenarioConfig.from_dict(reference_config(seed=0))
        result = run_scenario(cfg)
        assert indices == [-(i + 1) for i in range(cfg.calibration_frames)]
        assert result.summary["calibration_streams"] == 1
        thresholds = {a["threshold"] for a in result.summary["agents"].values()}
        assert len(thresholds) == 1

    @pytest.mark.parametrize("key, value", [("lambda", 0.2), ("warmup", 5)])
    def test_a_different_detector_setting_renders_a_second_stream(self, monkeypatch,
                                                                   key, value):
        cfg = three_agent_config()
        cfg["agents"][2][key] = value
        indices = counted_calibration_frames(monkeypatch)
        result = run_scenario(cfg)
        frames = ScenarioConfig.from_dict(cfg).calibration_frames
        assert sorted(indices) == sorted(2 * [-(i + 1) for i in range(frames)])
        assert result.summary["calibration_streams"] == 2
        agents = result.summary["agents"]
        assert agents["uav-h1"]["threshold"] == agents["uav-l1"]["threshold"]
        assert agents["uav-l2"]["threshold"] != agents["uav-l1"]["threshold"]

    def test_a_different_first_domain_renders_a_second_stream(self, monkeypatch):
        cfg = three_agent_config()
        cfg["agents"][2]["schedule"].reverse()  # dusk first, same total frames
        indices = counted_calibration_frames(monkeypatch)
        result = run_scenario(cfg)
        assert len(indices) == 2 * ScenarioConfig.from_dict(cfg).calibration_frames
        assert result.summary["calibration_streams"] == 2

    def test_permuting_agents_keeps_every_threshold(self):
        cfg = three_agent_config()
        cfg["agents"][1]["lambda"] = 0.2
        cfg["agents"][2]["schedule"].reverse()
        permuted = copy.deepcopy(cfg)
        permuted["agents"] = permuted["agents"][::-1]
        a, b = run_scenario(cfg).summary, run_scenario(permuted).summary
        assert a["calibration_streams"] == b["calibration_streams"] == 3
        for agent_id in ("uav-h1", "uav-l1", "uav-l2"):
            assert a["agents"][agent_id]["threshold"] == b["agents"][agent_id]["threshold"]

    def test_numeric_z_renders_no_calibration_frame(self, monkeypatch):
        cfg = three_agent_config()
        for agent, z in zip(cfg["agents"], (0.5, 2.0, 3)):
            agent["z"] = z
        indices = counted_calibration_frames(monkeypatch)
        result = run_scenario(cfg)
        assert indices == []
        assert result.summary["calibration_streams"] == 0
        assert [a["threshold"] for a in result.summary["agents"].values()] == [0.5, 2.0, 3.0]

    def test_one_info_line_per_stream_names_its_agents(self, caplog):
        cfg = three_agent_config()
        cfg["agents"][2]["lambda"] = 0.2
        with caplog.at_level(logging.INFO, logger="adaptfly"):
            result = run_scenario(cfg)
        lines = [r.getMessage() for r in caplog.records if "calibrated" in r.getMessage()]
        z = result.summary["agents"]["uav-h1"]["threshold"]
        assert lines == [
            f"calibrated z={z!r} on domain base (lambda=0.1, warmup=4, 120 frames)"
            " for uav-h1, uav-l1",
            f"calibrated z={result.summary['agents']['uav-l2']['threshold']!r} on domain base"
            " (lambda=0.2, warmup=4, 120 frames) for uav-l2",
        ]


@pytest.fixture()
def server_setup():
    oracle = make_toy_oracle(seed=7)
    pool = PromptPool(PoolConfig(capacity=16, merge_threshold=0.95, merge_weight=0.3))
    provenance = ProvenanceLog(window=64)
    server = MecServer(pool, oracle, DistillConfig(rows=oracle.num_patches,
                                                   precision="f32"), provenance)
    return oracle, pool, provenance, server


class TestServer:
    def test_upload_visible_only_after_refine_tick(self, server_setup):
        oracle, pool, _, server = server_setup
        client = InprocClient(server)
        key = tuple(np.eye(oracle.token_dim)[0])
        client.send(UploadPrompt(key=key, value=TokenPrompt(np.ones((2, 4))),
                                 timestamp=1, agent_id="uav-h1"))
        empty = client.request(Query(query=key, n=2, request_id=1))
        assert empty.entries == ()
        client.send(RefineTick())
        hit = client.request(Query(query=key, n=2, request_id=2))
        assert len(hit.entries) == 1
        assert hit.entries[0]["agent_id"] == "uav-h1"

    def test_query_of_wrong_dimension_is_typed(self, server_setup):
        oracle, _, _, server = server_setup
        server.handle(UploadPrompt(key=tuple(np.eye(oracle.token_dim)[0]),
                                   value=TokenPrompt(np.ones((2, 4))), timestamp=1,
                                   agent_id="uav-h1"))
        server.handle(RefineTick())
        with pytest.raises(CompositionError):
            server.handle(Query(query=(1.0, 0.0), n=2, request_id=1))

    @pytest.mark.parametrize("transport", [InprocClient, StreamClient])
    def test_huge_query_vector_is_answered(self, server_setup, transport):
        # [1e200]*48 is nonzero and finite: its norm is taken scaled, so it
        # neither overflows (a numpy warning) nor reads as degenerate.
        oracle, _, _, server = server_setup
        client = transport(server)
        client.send(UploadPrompt(key=tuple(np.ones(oracle.token_dim)),
                                 value=TokenPrompt(np.ones((2, 4))), timestamp=1,
                                 agent_id="uav-h1"))
        client.send(RefineTick())
        reply = client.request(Query(query=(1e200,) * oracle.token_dim, n=2, request_id=1))
        assert [e["entry_id"] for e in reply.entries] == [0]

    def test_deferred_entry_resolved_on_query(self, server_setup):
        oracle, pool, provenance, server = server_setup
        client = InprocClient(server)
        domain = DomainSpec(id="d", gain=(0.8, 0.78, 0.85), bias=(-0.2, 0.15, 0.1),
                            noise_scale=0.01, seed=3)
        frame = render_frame(oracle, domain, 0)
        from adaptfly.prompts import place_mask
        coords = place_mask(oracle.uncertainty_map(frame, 2, 0.1, 1), 20)
        from adaptfly.oracle import planted_correction
        svp = planted_correction(oracle, domain, 0, coords)
        provenance.record("uav-h1", 5, [frame], svp)
        q = tuple(oracle.query_embedding(frame))
        client.send(RegisterDeferred(query=q, agent_id="uav-h1", timestamp=5))
        client.send(RefineTick())
        response = client.request(Query(query=q, n=1, request_id=1))
        assert len(response.entries) == 1
        assert "value" in response.entries[0]  # concrete after resolution
        # pool entry itself is now concrete
        assert not pool.entries()[0].is_deferred

    def test_expired_provenance_drops_deferred_entry(self, server_setup):
        oracle, pool, provenance, server = server_setup
        client = InprocClient(server)
        q = tuple(np.eye(oracle.token_dim)[1])
        client.send(RegisterDeferred(query=q, agent_id="uav-h1", timestamp=5))
        client.send(RefineTick())
        provenance.advance(200)  # way past the window; nothing recorded anyway
        response = client.request(Query(query=q, n=1, request_id=1))
        assert response.entries == ()
        assert pool.size == 0


class TestProvenanceLog:
    FRAME = np.zeros((2, 2, 3))

    def test_record_at_the_horizon_is_kept_one_step_before_is_pruned(self):
        log = ProvenanceLog(window=10)
        log.record("uav-h1", 4, [self.FRAME], "svp4")
        log.record("uav-h1", 5, [self.FRAME], "svp5")
        log.advance(15)  # horizon 15 - 10 = 5
        assert log.lookup("uav-h1", 5)["svp"] == "svp5"
        assert log.lookup("uav-h1", 4) is None
        log.advance(16)
        assert log.lookup("uav-h1", 5) is None

    def test_record_older_than_the_window_is_dropped_when_recorded(self):
        log = ProvenanceLog(window=10)
        log.advance(30)
        log.record("uav-h1", 19, [self.FRAME], "old")
        log.record("uav-h1", 20, [self.FRAME], "edge")
        assert log.lookup("uav-h1", 19) is None
        assert log.lookup("uav-h1", 20)["svp"] == "edge"

    def test_first_record_at_a_step_wins(self):
        log = ProvenanceLog(window=10)
        first = np.ones((2, 2, 3))
        log.record("uav-h1", 7, [first], "first")
        log.record("uav-h1", 7, [self.FRAME], "second")
        log.record("uav-h2", 7, [self.FRAME], "other agent")
        record = log.lookup("uav-h1", 7)
        assert record["svp"] == "first" and np.array_equal(record["frames"][0], first)
        assert log.lookup("uav-h2", 7)["svp"] == "other agent"
        assert log.lookup("uav-h1", 6) is None and log.lookup("uav-h3", 7) is None


def uncached_frame(server, reply) -> bytes:
    """The reply frame re-encoded from the pool's entries, as if never cached."""
    hits = [server.pool.get(d["entry_id"]) for d in reply.entries]
    return encode_message(QueryResponse(reply.request_id, tuple(e.wire_dict() for e in hits)))


class TestReplyCache:
    """The server encodes each served entry once; every reply frame must be
    the one the uncached path builds from the pool at that moment."""

    def test_merge_into_served_entry_is_resent(self, server_setup):
        oracle, pool, _, server = server_setup
        key = tuple(np.eye(oracle.token_dim)[0])
        server.handle(UploadPrompt(key=key, value=TokenPrompt(np.ones((2, 4))), timestamp=5,
                                   agent_id="uav-h1"))
        server.handle(RefineTick())
        first = server.handle(Query(query=key, n=1, request_id=1))
        # Same agent, older timestamp: only the key and the value change.
        near = tuple(np.eye(oracle.token_dim)[0] + 0.1 * np.eye(oracle.token_dim)[1])
        server.handle(UploadPrompt(key=near, value=TokenPrompt(np.zeros((2, 4))), timestamp=1,
                                   agent_id="uav-h1"))
        server.handle(RefineTick())
        second = server.handle(Query(query=key, n=1, request_id=2))
        (entry,) = pool.entries()
        assert second.entries[0]["entry_id"] == first.entries[0]["entry_id"] == entry.entry_id
        assert encode_message(second) == uncached_frame(server, second)
        sent = decode_message(encode_message(second)).entries[0]
        key_sent = number_vector(sent["key"], "reply key")
        assert key_sent.tobytes() == entry.key.tobytes() != first.entries[0]["key"].tobytes()
        assert TokenPrompt.from_dict(sent["value"]) == entry.value != TokenPrompt(np.ones((2, 4)))

    def test_seeded_mix_matches_uncached_frames(self):
        oracle = make_toy_oracle(seed=7)
        dim = oracle.token_dim
        pool = PromptPool(PoolConfig(capacity=6, merge_threshold=0.95, merge_weight=0.3))
        provenance = ProvenanceLog(window=64)
        server = MecServer(pool, oracle, DistillConfig(rows=oracle.num_patches,
                                                       precision="f32"), provenance)
        domain = DomainSpec(id="d", gain=(0.8, 0.78, 0.85), bias=(-0.2, 0.15, 0.1),
                            noise_scale=0.01, seed=3)
        frame = render_frame(oracle, domain, 0)
        svp = planted_correction(oracle, domain, 0,
                                 place_mask(oracle.uncertainty_map(frame, 2, 0.1, 1), 20))
        rng = np.random.default_rng(0)
        ops = ["query"] * 5 + ["merge", "fresh", "defer", "defer", "tick"]
        served: list[int] = []
        seen = {"merged": 0, "evicted": 0, "resolved": 0, "expired": 0, "replies": 0}
        for step in range(160):
            op = ops[rng.integers(len(ops))]
            deferred = {e.entry_id for e in pool.entries() if e.is_deferred}
            keys = {e.entry_id: e.key for e in pool.entries()}
            if op == "merge" and served and pool.get(served[-1]) is not None:
                target = pool.get(served[-1])
                server.handle(UploadPrompt(
                    key=tuple(target.key + rng.normal(scale=0.01, size=dim)),
                    value=TokenPrompt(rng.normal(size=target.value.values.shape)),
                    timestamp=int(rng.integers(step + 1)), agent_id=f"uav-h{rng.integers(2)}"))
            elif op in ("merge", "fresh"):
                server.handle(UploadPrompt(key=tuple(rng.normal(size=dim)),
                                           value=TokenPrompt(rng.normal(size=(2, dim))),
                                           timestamp=step, agent_id="uav-h1"))
            elif op == "defer":
                if rng.random() < 0.5:  # otherwise no provenance: it expires when hit
                    provenance.record("uav-h2", step, [frame], svp)
                server.handle(RegisterDeferred(query=tuple(rng.normal(size=dim)),
                                               agent_id="uav-h2", timestamp=step))
            elif op == "tick":
                server.handle(RefineTick())
                after = {e.entry_id: e for e in pool.entries()}
                seen["evicted"] += sum(i not in after for i in keys if i in served)
                seen["merged"] += sum(after[i].key is not k for i, k in keys.items()
                                      if i in after and i in served)
            elif pool.size:
                reply = server.handle(Query(query=tuple(rng.normal(size=dim)), n=2,
                                            request_id=step))
                assert encode_message(reply) == uncached_frame(server, reply)
                served += [d["entry_id"] for d in reply.entries]
                seen["replies"] += 1
                seen["resolved"] += sum(pool.get(i) is not None and not pool.get(i).is_deferred
                                        for i in deferred)
                seen["expired"] += sum(pool.get(i) is None for i in deferred)
        assert min(seen.values()) > 0, seen


def lru_replay(messages, capacity: int) -> list[list[int]]:
    """Ids each RefineTick evicts, by brute force over the server's messages.

    One clock: every upload and every query to a non-empty pool ticks it,
    an upload is stamped with its tick and a query's hits (top n by cosine,
    ties by id) with the query's. A tick adds the pending uploads and then
    evicts the least recently used entries, ties by (timestamp, entry_id).
    Keys must never merge.
    """
    clock, next_id, live, pending, evicted = 0, 0, {}, {}, []
    for msg in messages:
        if isinstance(msg, UploadPrompt):
            clock += 1
            key = np.asarray(msg.key)
            pending[next_id] = [key / np.linalg.norm(key), msg.timestamp, clock]
            next_id += 1
        elif isinstance(msg, Query) and (live or pending):
            clock += 1
            q = np.asarray(msg.query) / np.linalg.norm(msg.query)
            for i in sorted(live, key=lambda i: (-float(q @ live[i][0]), i))[: msg.n]:
                live[i][2] = clock
        elif isinstance(msg, RefineTick):
            live.update(pending)
            pending = {}
            excess = max(0, len(live) - capacity)
            gone = sorted(live, key=lambda i: (live[i][2], live[i][1], i))[:excess]
            for i in gone:
                del live[i]
            evicted.append(sorted(gone))
    return evicted


def served_evictions(messages, capacity: int) -> list[list[int]]:
    """Ids each RefineTick evicts when the messages go through a MecServer."""
    pool = PromptPool(PoolConfig(capacity=capacity, merge_threshold=1.0))
    server = MecServer(pool, oracle=None, distill_config=None)
    evicted = []
    for msg in messages:
        before = {e.entry_id for e in pool.entries()}
        server.handle(msg)
        if isinstance(msg, RefineTick):
            evicted.append(sorted(before - {e.entry_id for e in pool.entries()}))
    return evicted


class TestEvictionClock:
    """Uploads and queries reach the pool's one recency clock: an upload is
    more recent than every query served before it, whatever its step."""

    @staticmethod
    def upload(rng, timestamp):
        return UploadPrompt(key=tuple(rng.normal(size=8)),
                            value=TokenPrompt(rng.normal(size=(2, 8))),
                            timestamp=timestamp, agent_id="uav-h1")

    def test_fresh_upload_outlives_entries_queried_before_it(self):
        rng = np.random.default_rng(0)
        fill = [self.upload(rng, 10 * (i + 1)) for i in range(6)]  # steps 10..60
        keys = [m.key for m in fill]
        targets = rng.integers(0, 6, size=200)
        queries = [Query(query=keys[i], n=1, request_id=k) for k, i in enumerate(targets)]
        late = self.upload(rng, 61)
        messages = fill + [RefineTick()] + queries + [late, RefineTick()]
        last_use = {i: k for k, i in enumerate(targets.tolist())}
        stalest = min(range(6), key=lambda i: last_use.get(i, -1))

        pool = PromptPool(PoolConfig(capacity=6, merge_threshold=1.0))
        server = MecServer(pool, oracle=None, distill_config=None)
        for msg in messages:
            server.handle(msg)
        survivors = {e.entry_id for e in pool.entries()}
        assert 6 in survivors and stalest not in survivors
        assert survivors == set(range(7)) - {stalest}
        # The evicted entry took its served text with it.
        assert {e.entry_id for e in server._texts} == set(range(6)) - {stalest}
        assert served_evictions(messages, 6) == lru_replay(messages, 6) == [[], [stalest]]

    @pytest.mark.parametrize("seed", range(3))
    def test_every_eviction_matches_the_lru_replay(self, seed):
        # Upload steps are drawn at random, so they say nothing of recency.
        rng = np.random.default_rng(seed)
        messages, keys = [], []
        for k in range(400):
            op = rng.choice(["upload", "query", "query", "query", "tick"])
            if op == "upload":
                messages.append(self.upload(rng, int(rng.integers(0, 100))))
                keys.append(messages[-1].key)
            elif op == "query":
                q = keys[rng.integers(len(keys))] if keys and rng.random() < 0.7 else \
                    tuple(rng.normal(size=8))
                messages.append(Query(query=q, n=int(rng.integers(1, 4)), request_id=k))
            else:
                messages.append(RefineTick())
        served = served_evictions(messages, 5)
        assert served == lru_replay(messages, 5)
        assert sum(map(len, served)) > 20


class TestReplyEntryCache:
    """Both ends of a connection hold the same entries, so a reply sends an
    entry the client already holds as ``{"entry_id":N}``; the tables change
    no result."""

    @pytest.mark.parametrize("transport", ["inproc", "stream"])
    @pytest.mark.parametrize("seed", range(5))
    def test_reference_replies_equal_uncached_and_stay_unmutated(self, monkeypatch, seed,
                                                                 transport):
        served = []       # the server's replies, each decoded right after it is framed
        first_seen = {}   # id(dict) -> (held dict, deep copy taken when first held)
        frames = {}       # id(client's table) -> the reply frames it decoded
        clients = {}      # agent id -> client

        def framed(msg, sent=None):
            if sent is not None:
                served.append(msg)
            return encode_message(msg, sent=sent)

        def checked(frame, entries=None, counts=None):
            msg = decode_message(frame, entries=entries, counts=counts)
            if entries is not None:
                assert msg == decode_message(encode_message(served.pop()))
                assert len(entries) <= REPLY_CACHE_ENTRIES
                frames.setdefault(id(entries), []).append(frame)
                for d in entries.values():
                    first_seen.setdefault(id(d), (d, copy.deepcopy(d)))
            return msg

        def recorded(cls):
            def make(spec, oracle, client, *args, **kwargs):
                clients[spec.id] = client
                return cls(spec, oracle, client, *args, **kwargs)
            return make

        monkeypatch.setattr(transport_mod, "encode_message", framed)
        monkeypatch.setattr(transport_mod, "decode_message", checked)
        for cls in (LimitedAgent, MassiveAgent):
            monkeypatch.setattr(scenario_mod, cls.__name__, recorded(cls))
        summary = run_scenario(reference_config(seed, transport)).summary
        assert not served
        assert all(d == snapshot for d, snapshot in first_seen.values())
        totals = {"in_full": 0, "referenced": 0}
        for agent_id, client in clients.items():
            # A fresh table decodes the client's frames; the counts come from
            # the frames' own text.
            table, recount = OrderedDict(), {"in_full": 0, "referenced": 0}
            for frame in frames.get(id(client.reply_entries), []):
                decode_message(frame, entries=table)
                for e in json.loads(frame[4:])["entries"]:
                    recount["referenced" if list(e) == ["entry_id"] else "in_full"] += 1
            assert list(table) == list(client.reply_entries) == list(client.sent_entries)
            assert summary["agents"][agent_id]["reply_entries"] == recount
            totals = {k: totals[k] + recount[k] for k in totals}
        assert min(totals.values()) > 0, totals

    def test_bound_holds_over_a_pool_service_shaped_run(self, monkeypatch):
        """After every reply both ends hold the ids of an LRU of
        REPLY_CACHE_ENTRIES replayed over the served entries, in its order; an
        entry goes by reference exactly when the replay holds that very
        EncodedDict under its id, so an id evicted from the table or replaced
        by a merge comes back in full."""
        oracle = make_toy_oracle(seed=7)
        dim = oracle.token_dim
        rng = np.random.default_rng(4)
        stale = REPLY_CACHE_ENTRIES + 100
        pool = PromptPool(PoolConfig(capacity=stale))
        for i in range(stale):
            pool.insert(rng.normal(size=dim), TokenPrompt(rng.normal(scale=0.05, size=(4, dim))),
                        timestamp=i, agent_id="uav-old")
        pool.refine()
        provenance = ProvenanceLog(window=64)
        server = MecServer(pool, oracle, DistillConfig(rows=oracle.num_patches,
                                                       precision="f32"), provenance)
        domain = DomainSpec(id="d", gain=(0.8, 0.78, 0.85), bias=(-0.2, 0.15, 0.1),
                            noise_scale=0.01, seed=3)
        frame = render_frame(oracle, domain, 0)
        svp = planted_correction(oracle, domain, 0,
                                 place_mask(oracle.uncertainty_map(frame, 2, 0.1, 1), 20))
        client = StreamClient(server)
        replies, frames = [], []
        handle, write = server.handle, client.from_server.write

        def handled(msg):
            replies.append(handle(msg))
            return replies[-1]

        def written(data):
            frames.append(data)
            write(data)

        monkeypatch.setattr(server, "handle", handled)
        monkeypatch.setattr(client.from_server, "write", written)
        lru: OrderedDict = OrderedDict()  # the table replayed by brute force
        served: set[int] = set()
        last = None  # the entry most recently served
        seen = {"referenced": 0, "evicted": 0, "replaced": 0, "resolved": 0, "expired": 0}
        for t in range(stale, stale + 40 * 20):
            op = t % 20
            if op < 15:
                near = last is not None and op % 3 == 0 and pool.get(last) is not None
                q = pool.get(last).key + rng.normal(scale=0.05, size=dim) if near else \
                    rng.normal(size=dim)
                deferred = {e.entry_id for e in pool.entries() if e.is_deferred}
                reply = client.request(Query(query=tuple(q), n=2, request_id=t))
                assert reply == decode_message(encode_message(replies[-1]))
                for sent, entry in zip(json.loads(frames[-1][4:])["entries"],
                                       replies[-1].entries):
                    i = entry["entry_id"]
                    by_reference = lru.get(i) is entry
                    assert (list(sent) == ["entry_id"]) is by_reference
                    seen["referenced"] += by_reference
                    if i in served and not by_reference:
                        seen["replaced" if i in lru else "evicted"] += 1
                    lru[i] = entry
                    lru.move_to_end(i)
                    if len(lru) > REPLY_CACHE_ENTRIES:
                        lru.popitem(last=False)
                    served.add(i)
                    last = i
                assert list(client.sent_entries) == list(client.reply_entries) == list(lru)
                seen["resolved"] += sum(pool.get(i) is not None and not pool.get(i).is_deferred
                                        for i in deferred)
                seen["expired"] += sum(pool.get(i) is None for i in deferred)
            elif op == 15 and last is not None and pool.get(last) is not None:
                target = pool.get(last)  # merges into an entry the client holds
                client.send(UploadPrompt(key=tuple(target.key + rng.normal(scale=0.01, size=dim)),
                                         value=TokenPrompt(rng.normal(size=target.value.values.shape)),
                                         timestamp=t, agent_id="uav-up"))
            elif op == 16:
                client.send(UploadPrompt(key=tuple(rng.normal(size=dim)),
                                         value=TokenPrompt(rng.normal(size=(4, dim))),
                                         timestamp=t, agent_id="uav-new"))
            elif op == 17:
                if rng.random() < 0.5:  # otherwise no provenance: it expires when hit
                    provenance.record("uav-def", t, [frame], svp)
                client.send(RegisterDeferred(query=tuple(rng.normal(size=dim)),
                                             agent_id="uav-def", timestamp=t))
            else:
                client.send(RefineTick())
        assert len(served) > REPLY_CACHE_ENTRIES
        assert len(client.reply_entries) == REPLY_CACHE_ENTRIES
        assert min(seen.values()) > 0, seen

    def test_merge_replaces_the_held_dict_of_its_id(self, server_setup):
        oracle, pool, _, server = server_setup
        client = InprocClient(server)
        key = tuple(np.eye(oracle.token_dim)[0])
        client.send(UploadPrompt(key=key, value=TokenPrompt(np.ones((2, 4))), timestamp=5,
                                 agent_id="uav-h1"))
        client.send(RefineTick())
        first = client.request(Query(query=key, n=1, request_id=1)).entries[0]
        before = copy.deepcopy(first)
        assert client.request(Query(query=key, n=1, request_id=2)).entries[0] is first
        assert client.reply_counts == {"in_full": 1, "referenced": 1}
        near = tuple(np.eye(oracle.token_dim)[0] + 0.1 * np.eye(oracle.token_dim)[1])
        client.send(UploadPrompt(key=near, value=TokenPrompt(np.zeros((2, 4))), timestamp=1,
                                 agent_id="uav-h1"))
        client.send(RefineTick())
        second = client.request(Query(query=key, n=1, request_id=3)).entries[0]
        (entry,) = pool.entries()
        assert client.reply_counts == {"in_full": 2, "referenced": 1}
        assert list(client.sent_entries) == list(client.reply_entries) == [entry.entry_id]
        assert client.reply_entries[entry.entry_id] is second == entry.to_dict()
        assert first == before != second

    @pytest.mark.parametrize("client_cls", [InprocClient, StreamClient])
    def test_dropped_query_changes_neither_table(self, server_setup, client_cls):
        oracle, _, _, server = server_setup
        drop = {"on": False}
        client = client_cls(server, fault_hook=lambda _msg: drop["on"])
        key = tuple(np.eye(oracle.token_dim)[0])
        client.send(UploadPrompt(key=key, value=TokenPrompt(np.ones((2, 4))), timestamp=5,
                                 agent_id="uav-h1"))
        client.send(RefineTick())
        client.request(Query(query=key, n=1, request_id=1))
        tables = (dict(client.sent_entries), dict(client.reply_entries))
        drop["on"] = True
        with pytest.raises(transport_mod.TransportFailure):
            client.request(Query(query=key, n=1, request_id=2))
        assert (dict(client.sent_entries), dict(client.reply_entries)) == tables
        drop["on"] = False
        client.request(Query(query=key, n=1, request_id=3))
        assert client.reply_counts == {"in_full": 1, "referenced": 1}

    @pytest.mark.parametrize("transport", ["inproc", "stream"])
    def test_each_entry_carried_in_full_is_parsed_once(self, monkeypatch, transport):
        # Limited agents read every reply entry's PoolEntry. A back-reference
        # hands back the held ReplyEntry, already parsed, so a run parses
        # exactly the entries the wire carried in full.
        parsed = []
        from_dict = PoolEntry.from_dict
        monkeypatch.setattr(PoolEntry, "from_dict",
                            classmethod(lambda cls, d: parsed.append(d) or from_dict(d)))
        summary = run_scenario(reference_config(0, transport)).summary
        counts = [a["reply_entries"] for a in summary["agents"].values()]
        assert sum(c["referenced"] for c in counts) > 0
        assert len(parsed) == sum(c["in_full"] for c in counts) > 0

    @pytest.mark.parametrize("client_cls", [InprocClient, StreamClient])
    def test_evicted_entry_sent_again_is_parsed_again(self, monkeypatch, server_setup,
                                                      client_cls):
        # With one id held, serving entry 1 evicts entry 0 from both tables,
        # so entry 0 goes in full again: a new ReplyEntry, parsed again, to
        # the pool's own entry.
        oracle, pool, _, server = server_setup
        monkeypatch.setattr(messages_mod, "REPLY_CACHE_ENTRIES", 1)
        client = client_cls(server)
        keys = np.eye(oracle.token_dim)[:2]
        for i, key in enumerate(keys):
            client.send(UploadPrompt(key=tuple(key), value=TokenPrompt(np.full((2, 4), i + 1.0)),
                                     timestamp=i, agent_id="uav-h1"))
        client.send(RefineTick())
        parsed = []
        from_dict = PoolEntry.from_dict
        monkeypatch.setattr(PoolEntry, "from_dict",
                            classmethod(lambda cls, d: parsed.append(d) or from_dict(d)))

        def served(i: int) -> ReplyEntry:
            (d,) = client.request(Query(query=tuple(keys[i]), n=1, request_id=i)).entries
            return d

        first = served(0)
        assert first.entry is first.entry and first.entry.entry_id == 0
        served(1).entry
        again = served(0)
        assert type(again) is ReplyEntry and again is not first
        assert client.reply_counts == {"in_full": 3, "referenced": 0}
        assert list(client.sent_entries) == list(client.reply_entries) == [0]
        entry, expected = again.entry, pool.get(0)
        assert len(parsed) == 3 and entry is not first.entry
        assert entry.value == expected.value and np.array_equal(entry.key, expected.key)
        assert again == expected.to_dict()


@pytest.mark.parametrize("client_cls", [InprocClient, StreamClient])
class TestReplyRule:
    """One rule for both transports: a request gets exactly its own reply, a
    send none, and a mismatch leaves no frame behind."""

    def test_reply_to_send_raises_and_is_not_returned_later(self, server_setup, client_cls):
        oracle, _, _, server = server_setup
        client = client_cls(server)
        key = tuple(np.eye(oracle.token_dim)[0])
        with pytest.raises(ProtocolError, match="unexpected response"):
            client.send(Query(query=key, n=2, request_id=1))
        assert client.request(Query(query=key, n=2, request_id=2)).request_id == 2
        if isinstance(client, StreamClient):
            assert len(client.to_server) == len(client.from_server) == 0

    def test_request_without_reply_raises(self, server_setup, client_cls):
        _, _, _, server = server_setup
        client = client_cls(server)
        with pytest.raises(ProtocolError, match="expected a response"):
            client.request(RefineTick())
        if isinstance(client, StreamClient):
            assert len(client.to_server) == len(client.from_server) == 0

    def test_bytes_counted_on_both_sides(self, server_setup, client_cls):
        oracle, _, _, server = server_setup
        client = client_cls(server)
        from adaptfly.fleet.messages import encode_message
        query = Query(query=tuple(np.eye(oracle.token_dim)[0]), n=2, request_id=1)
        reply = client.request(query)
        assert client.bytes_sent == len(encode_message(query))
        assert client.bytes_received == len(encode_message(reply))


class TestFaultInjection:
    def test_massive_upload_retried_after_fault(self):
        cfg = mini_config(seed=0, frames=8)
        # Drop whatever uav-h1 sends at its optimization step (first dusk frame).
        cfg["faults"] = [{"agent": "uav-h1", "step": 8}]
        result = run_scenario(cfg)
        h1 = {r.step: r for r in result.records if r.agent_id == "uav-h1"}
        assert h1[8].degraded
        assert h1[8].adaptation_event == "optimize"
        assert h1[8].bytes_sent == 0
        # retry lands on the next step
        assert h1[9].bytes_sent > 0
        # and the prompt is eventually retrievable
        final_agents = {e.agent_id for e in result.pool.entries()}
        assert any("uav-h1" in a for a in final_agents)

    def test_an_upload_dropped_again_on_its_retry_is_retried_once_more(self):
        """uav-h1 searches at step 35; that upload is dropped, and so is its
        retry at step 36, a quiet warp step that sends nothing else. The
        queued upload lands at step 37, the same under both transports."""
        tables = []
        for transport in ("inproc", "stream"):
            cfg = reference_config(0, transport=transport)
            cfg["faults"] = [{"agent": "uav-h1", "step": 35}, {"agent": "uav-h1", "step": 36}]
            records = run_scenario(cfg).records
            h1 = {r.step: r for r in records if r.agent_id == "uav-h1"}
            assert (h1[35].adaptation_event, h1[35].degraded, h1[35].bytes_sent) == (
                "optimize", True, 0)
            assert (h1[36].adaptation_event, h1[36].degraded, h1[36].bytes_sent) == (
                "warp", True, 0)
            assert (h1[37].degraded, h1[37].bytes_sent, h1[37].pool_size) == (False, 41_372, 3)
            tables.append(metrics_csv(records))
        assert tables[0] == tables[1]

    def test_limited_query_fault_sets_degraded_and_keeps_cache(self):
        cfg = mini_config(seed=0, frames=8)
        steps = [{"agent": "uav-l1", "step": s} for s in range(8, 16)]
        cfg["faults"] = steps
        result = run_scenario(cfg)
        l1 = [r for r in result.records if r.agent_id == "uav-l1" and r.step >= 8]
        assert any(r.degraded for r in l1)
        assert all(r.retrieved == 0 for r in l1)

    def test_a_fault_on_an_agent_named_like_the_controller_spares_refine_ticks(self):
        """Faults name agents, and any id is an agent's: a fault on an agent
        called "__controller__" drops only what that agent sends. Here it
        sends nothing at step 1, where the controller sends a refine tick."""
        cfg = reference_config(0)
        cfg["agents"][2]["id"] = "__controller__"
        tables = []
        for transport in ("inproc", "stream"):
            cfg["transport"] = transport
            tables.append(metrics_csv(run_scenario({**cfg, "faults": []}).records))
            tables.append(metrics_csv(run_scenario(
                {**cfg, "faults": [{"agent": "__controller__", "step": 1}]}).records))
        assert len(set(tables)) == 1


class TestByteEconomy:
    def test_query_cost_independent_of_image_size(self):
        sizes = []
        for hw in (32, 64):
            oracle = make_toy_oracle(seed=7, height=hw, width=hw)
            domain = DomainSpec(id="d", gain=(0.8, 0.8, 0.8), bias=(0.1, -0.1, 0.1),
                                noise_scale=0.01, seed=1)
            frame = render_frame(oracle, domain, 0)
            q = oracle.query_embedding(frame)
            from adaptfly.fleet.messages import encode_message
            sizes.append(len(encode_message(Query(query=tuple(q), n=2, request_id=1))))
        assert sizes[0] == pytest.approx(sizes[1], rel=0.05)

    def test_upload_bytes_bounded_by_entry_size(self):
        result = run_scenario(mini_config(seed=0, frames=8))
        h1 = [r for r in result.records if r.agent_id == "uav-h1"]
        uploads = [r for r in h1 if r.adaptation_event == "optimize" and r.bytes_sent > 0]
        assert uploads
        entry = next(e for e in result.pool.entries() if "uav-h1" in e.agent_id)
        budget = 8 * entry_size_bytes(entry.value) + 1024
        assert all(r.bytes_sent <= budget for r in uploads)


def _spec(make, agent_id, **settings):
    return make(id=agent_id, schedule=(SegmentSpec("d", 1),), **settings)


def _agent_fixture(threshold, delta_refresh=0.5):
    oracle = make_toy_oracle(seed=7)
    pool = PromptPool(PoolConfig())
    provenance = ProvenanceLog()
    server = MecServer(pool, oracle, DistillConfig(rows=oracle.num_patches,
                                                   precision="f32"), provenance)
    tracker = DriftTracker(smoothing=0.1, threshold=threshold, warmup=1)
    spec = _spec(MassiveSpec, "uav-h1", rho=0.02, delta_refresh=delta_refresh,
                 cma={"population": 8, "elite": 2, "generations": 5, "sigma0": 0.25})
    agent = MassiveAgent(
        spec, oracle, InprocClient(server), tracker,
        distill_config=DistillConfig(rows=oracle.num_patches, precision="f32"),
        provenance=provenance, seed=1,
    )
    return oracle, agent


class TestMassiveAgentPaths:
    def test_warp_refresh_triggers_reoptimization(self):
        oracle, agent = _agent_fixture(threshold=1e9)
        domain = DomainSpec(id="d", gain=(0.8, 0.78, 0.85), bias=(-0.2, 0.15, 0.1),
                            noise_scale=0.0, seed=1)
        frame = render_frame(oracle, domain, 0)
        agent.step(0, frame)           # warmup frame, no adaptation
        agent._optimize(1, frame, None, oracle.entropy_map(frame),  # seed an active prompt
                        oracle.query_embedding(frame))
        assert agent.prompt.size > 0
        # Huge motion expels most prompt pixels: refresh fires.
        rec = agent.step(2, np.roll(frame, 28, axis=1), motion=(0, 28))
        assert rec.adaptation_event == "optimize"

    def test_map_change_triggers_reoptimization(self):
        oracle, agent = _agent_fixture(threshold=1e9, delta_refresh=0.5)
        d1 = DomainSpec(id="a", gain=(0.8, 0.78, 0.85), bias=(-0.2, 0.15, 0.1),
                        noise_scale=0.0, seed=1)
        d2 = DomainSpec(id="b", gain=(0.7, 0.9, 0.65), bias=(0.15, -0.2, -0.1),
                        noise_scale=0.0, seed=2)
        f1, f2 = render_frame(oracle, d1, 0), render_frame(oracle, d2, 0)
        agent.step(0, f1)
        agent._optimize(1, f1, None, oracle.entropy_map(f1), oracle.query_embedding(f1))
        rec = agent.step(2, f2, motion=(0, 0))  # detector silenced; map moved
        assert rec.adaptation_event == "optimize"

    def test_quiet_frame_warps_without_upload(self):
        oracle, agent = _agent_fixture(threshold=1e9)
        domain = DomainSpec(id="d", gain=(0.8, 0.78, 0.85), bias=(-0.2, 0.15, 0.1),
                            noise_scale=0.0, seed=1)
        frame = render_frame(oracle, domain, 0)
        agent.step(0, frame)
        agent._optimize(1, frame, None, oracle.entropy_map(frame), oracle.query_embedding(frame))
        rec = agent.step(2, frame, motion=(0, 0))
        assert rec.adaptation_event == "warp"
        assert rec.bytes_sent == 0


    def test_each_frame_runs_one_unprompted_forward_and_records_its_entropy(self, monkeypatch):
        # The recorded entropy (the search's best fitness, the warped
        # prompt re-scored on the trigger map, or the adopted assembly's
        # prompted map) equals the full prompted entropy map bit for bit.
        # A step runs the unprompted pass (an entropy map or predict
        # without a token prompt, or any pass of uncertainty_map) exactly
        # once, except a quiet step that keeps an adopted assembly: it runs
        # the prompted map alone. After every step of every agent, the prompt
        # in use is None, an assembly with rows or a non-empty sparse prompt
        # (never one on a limited agent), and a new one comes only from the
        # step that makes it: an assembly from an adoption, a sparse prompt
        # from a search or a warp. A non-degraded limited retrieval that
        # adopts nothing leaves no prompt; every other step keeps the one
        # held before it.
        from adaptfly.oracle import ToyOracle
        from adaptfly.prompts import apply_svp

        passes, checked = [], []
        entropy_map = ToyOracle.entropy_map
        predict, umap = ToyOracle.predict, ToyOracle.uncertainty_map

        def count(tp):
            passes[-1][0 if tp is None or tp.rows == 0 else 1] += 1

        def counted_entropy_map(self, x, tp=None):
            count(tp)
            return entropy_map(self, x, tp)

        def counted_predict(self, x, tp=None):
            count(tp)
            return predict(self, x, tp)

        def counted_umap(self, x, n, rate, seed):
            passes[-1][0] += n
            return umap(self, x, n, rate, seed)

        def check_prompt(agent, before, rec):
            p, event = agent.prompt, rec.adaptation_event
            kinds = TokenPrompt if isinstance(agent, LimitedAgent) else (TokenPrompt,
                                                                         SparseVisualPrompt)
            assert p is None or (isinstance(p, kinds)
                                 and (p.rows if isinstance(p, TokenPrompt) else p.size) > 0)
            if event == "retrieve" and rec.retrieved:
                assert isinstance(p, TokenPrompt) and p is not before
            elif event == "retrieve" and not rec.degraded:
                assert p is None
            elif event in ("optimize", "warp"):
                assert isinstance(p, SparseVisualPrompt) and p is not before
            else:
                assert p is before, event

        def prompted_entropy(agent, frame):
            p = agent.prompt
            if isinstance(p, TokenPrompt):
                return float(entropy_map(agent.oracle, frame, p).mean())
            x = frame if p is None else apply_svp(frame, p)
            return float(entropy_map(agent.oracle, x).mean())

        limited_step, step = LimitedAgent.step, MassiveAgent.step
        limited = []

        def checked_limited_step(agent, t, frame, *args, **kwargs):
            passes.append([0, 0])
            before = agent.prompt
            rec = limited_step(agent, t, frame, *args, **kwargs)
            check_prompt(agent, before, rec)
            assert rec.mean_entropy == prompted_entropy(agent, frame)
            limited.append(rec.adaptation_event)
            return rec

        def checked_step(agent, t, frame, *args, **kwargs):
            passes.append([0, 0])
            before = agent.prompt
            held = isinstance(before, TokenPrompt)
            rec = step(agent, t, frame, *args, **kwargs)
            check_prompt(agent, before, rec)
            full = prompted_entropy(agent, frame)
            cached_step = held and not rec.shift_flag
            checked.append((rec.adaptation_event, rec.mean_entropy, full, tuple(passes[-1]),
                            cached_step))
            return rec

        monkeypatch.setattr(ToyOracle, "entropy_map", counted_entropy_map)
        monkeypatch.setattr(ToyOracle, "predict", counted_predict)
        monkeypatch.setattr(ToyOracle, "uncertainty_map", counted_umap)
        monkeypatch.setattr(MassiveAgent, "step", checked_step)
        monkeypatch.setattr(LimitedAgent, "step", checked_limited_step)
        run_scenario(reference_config(0))
        assert len(limited) == 160 and {"none", "retrieve"} == set(limited)
        assert {event for event, *_ in checked} == {"none", "optimize", "warp", "retrieve"}
        assert len(checked) == 80
        assert any(cached_step for *_, cached_step in checked)
        for event, recorded, full, (unprompted, prompted), cached_step in checked:
            assert type(recorded) is float
            assert recorded == full, event
            if cached_step:
                assert (event, unprompted, prompted) == ("none", 0, 1)
            else:
                assert unprompted == 1, event
            if event == "retrieve":
                assert prompted == 1

    def test_every_search_masks_the_step_entropy_map(self, monkeypatch):
        """The mask takes the most uncertain pixels of the map the step
        already has: the frame's unprompted entropy map."""
        import adaptfly.fleet.agents as agents_mod
        from adaptfly.cmaes import optimize_svp

        searches = []

        def recording(oracle, frame, coords, config, **kwargs):
            searches.append((oracle, frame, coords, config.dimension // 3))
            return optimize_svp(oracle, frame, coords, config, **kwargs)

        monkeypatch.setattr(agents_mod, "optimize_svp", recording)
        result = run_scenario(reference_config(0))
        assert len(searches) == sum(r.adaptation_event == "optimize" for r in result.records) > 0
        for oracle, frame, coords, k in searches:
            assert np.array_equal(coords, place_mask(oracle.entropy_map(frame), k))

    @staticmethod
    def _pooled(drop=(False,)):
        """A massive agent whose pool already holds a prompt that lowers the
        frame's entropy, keyed at the frame's own query embedding."""
        from adaptfly.distill import closed_form_solution
        from adaptfly.prompts import sparsity_budget

        oracle, agent = _agent_fixture(threshold=1e9)
        domain = DomainSpec(id="dusk", gain=(0.75, 0.8, 0.72), bias=(-0.15, 0.12, -0.1),
                            noise_scale=0.01, seed=4)
        frame = render_frame(oracle, domain, 0)
        coords = place_mask(oracle.uncertainty_map(frame, 1, 0.0, 0),
                            sparsity_budget(0.05, *oracle.frame_shape))
        correction = planted_correction(oracle, domain, 0, coords)
        pool = agent.client._server.pool
        pool.insert(oracle.query_embedding(frame),
                    TokenPrompt(closed_form_solution(oracle, [frame], correction, 4)),
                    timestamp=0, agent_id="uav-h0")
        pool.refine()
        agent.client = InprocClient(agent.client._server,
                                    lambda msg: drop[0])
        return oracle, agent, frame

    def test_adopted_prompt_replaces_search_and_upload(self, monkeypatch):
        import adaptfly.fleet.agents as agents_mod

        oracle, agent, frame = self._pooled()
        shift = [True]
        monkeypatch.setattr(agents_mod, "detect",
                            lambda tracker, stats: (shift[0], 1.0, None))
        monkeypatch.setattr(agents_mod, "optimize_svp", None)  # a search would fail
        rec = agent.step(1, frame)
        assert rec.adaptation_event == "retrieve" and rec.retrieved == 1
        assert not rec.degraded
        query = Query(query=tuple(oracle.query_embedding(frame)), n=MassiveAgent.RETRIEVAL_N,
                      request_id=1)
        assert rec.bytes_sent == len(encode_message(query))
        assert agent.client._server.pool.size == 1 and not agent._retry_queue
        assert isinstance(agent.prompt, TokenPrompt) and agent.prompt.rows
        assert rec.mean_entropy == float(oracle.entropy_map(frame, agent.prompt).mean())
        assert rec.mean_entropy < float(oracle.entropy_map(frame).mean())
        shift[0] = False                            # a quiet step keeps the assembly
        rec = agent.step(2, frame)
        assert (rec.adaptation_event, rec.bytes_sent, rec.bytes_received) == ("none", 0, 0)
        assert rec.mean_entropy == float(oracle.entropy_map(frame, agent.prompt).mean())

    def test_dropped_query_falls_back_to_search_and_queues_the_upload(self, monkeypatch):
        import adaptfly.fleet.agents as agents_mod

        drop = [True]                               # uav-h1 sends nothing at step 1
        oracle, agent, frame = self._pooled(drop)
        monkeypatch.setattr(agents_mod, "detect", lambda tracker, stats: (True, 1.0, None))
        rec = agent.step(1, frame)
        assert rec.adaptation_event == "optimize" and rec.degraded
        assert rec.bytes_sent == 0 and rec.retrieved == 0
        assert isinstance(agent.prompt, SparseVisualPrompt) and agent.prompt.size
        (upload,) = agent._retry_queue
        assert isinstance(upload, UploadPrompt) and upload.timestamp == 1
        drop[0] = False
        rec = agent.step(2, frame)                  # the queued upload goes first
        assert not rec.degraded and not agent._retry_queue
        assert rec.bytes_sent >= len(encode_message(upload))
        assert any(e.agent_id == "uav-h1" for e in agent.client._server.pool.entries())

    def test_both_kinds_adopt_through_one_method(self):
        from adaptfly.fleet.agents import _Agent

        assert "_try_adopt" in vars(_Agent)
        assert all("_try_adopt" not in vars(kind) for kind in (LimitedAgent, MassiveAgent))

    def test_warp_step_holds_the_warped_prompt(self):
        oracle, agent = _agent_fixture(threshold=1e9)
        domain = DomainSpec(id="d", gain=(0.8, 0.78, 0.85), bias=(-0.2, 0.15, 0.1),
                            noise_scale=0.0, seed=1)
        frame = render_frame(oracle, domain, 0)
        agent.step(0, frame)
        agent._optimize(1, frame, None, oracle.entropy_map(frame), oracle.query_embedding(frame))
        searched = agent.prompt
        rec = agent.step(2, np.roll(frame, 1, axis=1), motion=(0, 1))
        assert rec.adaptation_event == "warp"
        inside = searched.coords[:, 1] + 1 < oracle.frame_shape[1]
        np.testing.assert_array_equal(agent.prompt.coords, searched.coords[inside] + (0, 1))
        np.testing.assert_array_equal(agent.prompt.offsets, searched.offsets[inside])


class _FixedEntropy:
    """An oracle stub with fixed entropy maps: ``base`` unprompted,
    ``prompted`` under any token prompt with rows."""

    def __init__(self, base: float, prompted: float):
        self.base, self.prompted = np.full((2, 2), base), np.full((2, 2), prompted)

    def entropy_map(self, x, tp=None):
        return self.prompted if tp is not None and tp.rows else self.base


class TestTryAdopt:
    """The adoption check's two thresholds, each at its edge."""

    KEY = np.array([1.0, 0.0])
    AT_FLOOR = np.array([0.9, np.sqrt(0.19)])  # similarity exactly 0.9 with KEY

    def _adopt(self, base, prompted, q=AT_FLOOR):
        from adaptfly.fleet.agents import _Agent

        agent = _Agent(_spec(LimitedSpec, "uav-l1"), _FixedEntropy(base, prompted), None, None)
        entry = PoolEntry(entry_id=0, key=self.KEY, value=TokenPrompt(np.ones((1, 2))),
                          timestamp=0, agent_id="uav-h1")
        return agent._try_adopt(np.zeros((2, 2, 3)), q, [entry])

    def test_a_hit_exactly_at_the_similarity_floor_is_assembled_and_checked(self):
        from adaptfly.fleet.agents import _Agent

        assert float(self.AT_FLOOR @ self.KEY) == _Agent.ADOPT_SIMILARITY_FLOOR == 0.9
        adopted, entropy = self._adopt(0.5, 0.25)
        assert adopted is not None and adopted.rows == 1 and entropy == 0.25
        below = np.array([np.nextafter(0.9, 0.0), np.sqrt(0.19)])
        assert self._adopt(0.5, 0.25, below) == (None, None)  # neither assembled nor checked

    def test_a_drop_within_the_margin_is_not_adopted(self):
        # The margin is 1e-9 * (1 + baseline) = 1.5e-9 at a baseline of 0.5.
        assert self._adopt(0.5, 0.5 - 1e-9) == (None, 0.5)
        adopted, entropy = self._adopt(0.5, 0.5 - 2e-9)
        assert adopted is not None and entropy == 0.5 - 2e-9


class TestLimitedAgentPaths:
    def test_no_shift_no_prompt_baseline(self):
        oracle = make_toy_oracle(seed=7)
        pool = PromptPool(PoolConfig())
        server = MecServer(pool, oracle, DistillConfig(rows=4), ProvenanceLog())
        tracker = DriftTracker(smoothing=0.1, threshold=1e9, warmup=1)
        agent = LimitedAgent(_spec(LimitedSpec, "uav-l1"), oracle, InprocClient(server), tracker)
        frame = oracle.base_image()
        from adaptfly.oracle import mean_entropy
        rec = agent.step(0, frame)
        assert rec.adaptation_event == "none"
        assert rec.mean_entropy == pytest.approx(mean_entropy(oracle.predict(frame)))


    @pytest.mark.parametrize("sign, adopted", [(1.0, True), (0.0, False)])
    def test_retrieval_step_predicts_twice(self, monkeypatch, sign, adopted):
        # The adoption check maps the frame's entropy unprompted and
        # prompted; the step's entropy reuses whichever matches the
        # resulting assembly.
        # The planted correction, distilled, lowers the frame's entropy
        # without a search, so the adoption outcome does not hang on a CMA
        # trajectory or on BLAS rounding.
        import adaptfly.fleet.agents as agents_mod
        from adaptfly.distill import closed_form_solution
        from adaptfly.oracle import ToyOracle, planted_correction
        from adaptfly.prompts import place_mask, sparsity_budget

        oracle = make_toy_oracle(seed=7)
        domain = DomainSpec(id="dusk", gain=(0.75, 0.8, 0.72), bias=(-0.15, 0.12, -0.1),
                            noise_scale=0.01, seed=4)
        frame = render_frame(oracle, domain, 0)
        coords = place_mask(oracle.uncertainty_map(frame, 1, 0.0, 0),
                            sparsity_budget(0.05, *oracle.frame_shape))
        correction = planted_correction(oracle, domain, 0, coords)
        values = sign * closed_form_solution(oracle, [frame], correction, 4)
        pool = PromptPool(PoolConfig())
        pool.insert(oracle.query_embedding(frame), TokenPrompt(values), timestamp=0,
                    agent_id="uav-h1")
        pool.refine()
        server = MecServer(pool, oracle, DistillConfig(rows=4), ProvenanceLog())
        tracker = DriftTracker(smoothing=0.1, threshold=1e9, warmup=1)
        agent = LimitedAgent(_spec(LimitedSpec, "uav-l1"), oracle, InprocClient(server), tracker)
        monkeypatch.setattr(agents_mod, "detect", lambda tracker, stats: (True, 1.0, None))
        calls = []
        entropy_map = ToyOracle.entropy_map
        for name in ("predict", "entropy_map"):
            forward = getattr(ToyOracle, name)
            monkeypatch.setattr(ToyOracle, name, lambda self, *a, _f=forward, **k:
                                calls.append(1) or _f(self, *a, **k))
        rec = agent.step(1, frame)
        assert rec.adaptation_event == "retrieve"
        assert (rec.retrieved > 0) == adopted
        assert len(calls) == 2
        prompt = agent.prompt
        assert rec.mean_entropy == float(entropy_map(oracle, frame, prompt).mean())

    def test_reply_entries_are_parsed_once_per_held_dict(self, monkeypatch):
        # A back-reference hands the agent the ReplyEntry it read before, so
        # its PoolEntry is reused; a merged entry arrives as a new ReplyEntry
        # and is parsed again, never answered from the old entry.
        import adaptfly.fleet.agents as agents_mod

        oracle = make_toy_oracle(seed=7)
        frame = render_frame(oracle, DomainSpec(id="dusk", gain=(0.75, 0.8, 0.72),
                                                bias=(-0.15, 0.12, -0.1), seed=4), 0)
        key = tuple(oracle.query_embedding(frame))
        server = MecServer(PromptPool(PoolConfig()), oracle, DistillConfig(rows=4),
                           ProvenanceLog())
        uploader = InprocClient(server)

        def upload(fill, t):
            uploader.send(UploadPrompt(key=key, value=TokenPrompt(
                np.full((2, oracle.token_dim), fill)), timestamp=t, agent_id="uav-h1"))
            uploader.send(RefineTick())

        tracker = DriftTracker(smoothing=0.1, threshold=1e9, warmup=1)
        agent = LimitedAgent(_spec(LimitedSpec, "uav-l1", retrieval_n=1), oracle,
                             InprocClient(server), tracker)
        monkeypatch.setattr(agents_mod, "detect", lambda tracker, stats: (True, 1.0, None))
        parsed = []
        from_dict = PoolEntry.from_dict
        monkeypatch.setattr(PoolEntry, "from_dict",
                            classmethod(lambda cls, d: parsed.append(d) or from_dict(d)))

        upload(0.01, 0)
        agent.step(1, frame)
        first = agent.client.reply_entries[0]
        agent.step(2, frame)                        # a back-reference
        assert len(parsed) == 1 and agent.client.reply_entries[0] is first
        assert agent.client.reply_counts == {"in_full": 1, "referenced": 1}

        upload(0.03, 3)                             # merges into entry 0
        merged = server.pool.get(0)
        assert merged.value != first.entry.value
        agent.step(4, frame)
        assert len(parsed) == 2 and parsed[1] is not parsed[0]
        entry = agent.client.reply_entries[0].entry
        assert entry is not first.entry
        assert entry.value == merged.value and np.array_equal(entry.key, merged.key)


class TestSummary:
    def test_summary_structure(self):
        result = run_scenario(mini_config(seed=0, frames=8))
        s = result.summary
        assert set(s) == {"seed", "transport", "frames", "agents", "pool_size",
                          "calibration_streams"}
        for agent_id, a in s["agents"].items():
            assert a["kind"] in ("limited", "massive")
            assert a["threshold"] > 0
            assert set(a["domains"]) <= {"base", "dusk"}
            for dom in a["domains"].values():
                assert dom["frames"] > 0

    def test_limited_agent_gains_on_shifted_domain(self):
        result = run_scenario(mini_config(seed=0, frames=12))
        dusk = result.summary["agents"]["uav-l1"]["domains"]["dusk"]
        assert dusk["first_adaptation_step"] is not None
        assert dusk["post_adaptation_mean_entropy"] < dusk["pre_adaptation_mean_entropy"]


class TestDeferredEndToEnd:
    def test_limited_agent_benefits_from_deferred_registration(self):
        cfg = mini_config(seed=0, frames=10)
        cfg["agents"][0]["defer_distill"] = True
        result = run_scenario(cfg)
        dusk = result.summary["agents"]["uav-l1"]["domains"]["dusk"]
        assert dusk["first_adaptation_step"] is not None
        assert dusk["post_adaptation_mean_entropy"] < dusk["pre_adaptation_mean_entropy"]
        # the marker the limited agent retrieved was materialized in place
        assert any(not e.is_deferred for e in result.pool.entries())
        h1 = result.summary["agents"]["uav-h1"]
        assert h1["adaptation_counts"].get("optimize", 0) >= 1

    @pytest.mark.parametrize("defer", [False, True])
    def test_only_deferred_registrations_record_provenance(self, monkeypatch, defer):
        """The server reads the log only to resolve a deferred entry, so an
        agent that uploads its prompts records nothing; one that defers
        records each search and its entries still resolve."""
        recorded, resolved = [], []
        record, distill = ProvenanceLog.record, MecServer._distill

        def recording(log, agent_id, step, frames, svp):
            recorded.append((agent_id, step))
            record(log, agent_id, step, frames, svp)

        def resolving(server, entry):
            prompt = distill(server, entry)
            resolved.append((entry.agent_id, entry.timestamp))
            return prompt

        monkeypatch.setattr(ProvenanceLog, "record", recording)
        monkeypatch.setattr(MecServer, "_distill", resolving)
        cfg = reference_config(0)
        cfg["agents"][0]["defer_distill"] = defer
        result = run_scenario(cfg)
        searches = [(r.agent_id, r.step) for r in result.records
                    if r.adaptation_event == "optimize"]
        assert len(searches) >= 3
        if defer:
            assert recorded == searches
            assert resolved and set(resolved) <= set(searches)
        else:
            assert recorded == [] and resolved == []
