import copy
import dataclasses
import json
import math
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from adaptfly.cli import _parse_value, main
from adaptfly.errors import ConfigError
from adaptfly.fleet import (
    AgentSpec,
    LimitedSpec,
    MassiveSpec,
    ScenarioConfig,
    clean_config,
    parse_metrics_csv,
    reference_config,
)
from adaptfly.memory import PoolConfig
from adaptfly.oracle import OracleSpec


def mini_config(seed=0):
    cfg = reference_config(seed=seed)
    for agent in cfg["agents"]:
        agent["schedule"] = [
            {"domain": "base", "frames": 8, "motion": [0, 0]},
            {"domain": "dusk", "frames": 8, "motion": [0, 0]},
        ]
        agent["warmup"] = 4
    cfg["agents"] = cfg["agents"][:2]
    cfg["domains"] = cfg["domains"][:2]
    return cfg


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(mini_config()))
    return path


class TestRun:
    def test_writes_three_output_files(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "metrics.csv").is_file()
        assert (out / "pool.jsonl").is_file()
        assert (out / "summary.json").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert "agents" in summary

    def test_missing_config_exits_2_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err
        assert err.count("\n") == 1  # single-line diagnostic

    def test_out_under_a_regular_file_exits_2_in_one_line(self, tmp_path, capsys, config_path):
        """The output directory cannot be made: the OSError is named, not raised."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", "--config", str(config_path), "--out", str(blocker / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("adaptfly: [Errno 20] Not a directory") and err.count("\n") == 1

    def test_same_config_and_seed_identical_summary(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_path), "--out", str(out1)])
        main(["run", "--config", str(config_path), "--out", str(out2)])
        assert (out1 / "summary.json").read_text() == (out2 / "summary.json").read_text()
        assert (out1 / "metrics.csv").read_text() == (out2 / "metrics.csv").read_text()

    def test_seed_override_changes_run(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_path), "--out", str(out1), "--set", "seed=5"])
        main(["run", "--config", str(config_path), "--out", str(out2), "--set", "seed=6"])
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["seed"] == 5 and s2["seed"] == 6

    def test_set_override_applies(self, tmp_path, config_path):
        out = tmp_path / "o"
        code = main([
            "run", "--config", str(config_path), "--out", str(out),
            "--set", "pool.capacity=17", "--set", "agents.0.delta_refresh=0.4",
        ])
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "c.json", "--out", "o", "--seed", "5"],
        ["calibrate", "--config", "c.json", "--quantile", "0.99"],
    ], ids=["run-seed", "calibrate-quantile"])
    def test_a_removed_flag_is_an_unrecognized_argument(self, capsys, argv):
        """``--set seed=N`` and ``--set calibration.quantile=q`` set these."""
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("dotted, named", [
        ("pool.flavor=3", "unknown key(s) ['flavor'] in pool"),
        # The mask is placed on the step's entropy map: neither kind takes
        # the removed Monte-Carlo dropout settings.
        ("agents.0.mc_passes=4", "unknown key(s) ['mc_passes'] in agents[0]"),
        ("agents.1.dropout_rate=0.1", "unknown key(s) ['dropout_rate'] in agents[1]"),
        # The detector's divergence and the massive search's mode and
        # covariance floor are fixed, not settings.
        ('kl_variant="simplified"', "unknown key(s) ['kl_variant'] in the scenario"),
        ("agents.0.cma.cov_floor=1e-9", "agents[0]: unknown key(s) ['cov_floor'] in cma"),
    ])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, config_path, dotted, named):
        out = tmp_path / "o"
        code = main([
            "run", "--config", str(config_path), "--out", str(out),
            "--set", dotted,
        ])
        assert code == 2
        assert named in capsys.readouterr().err


class TestMalformedArguments:
    @pytest.mark.parametrize("args, named", [
        (["--set", "agents.x.rho=0.1"], "agents.x.rho=0.1"),
        (["--set", "agents.9.rho=0.1"], "agents.9.rho=0.1"),
        (["--set", "pool.capacity.x=1"], "pool.capacity.x=1"),
        (["--set", "oracle.seed.x=1"], "oracle.seed.x=1"),
        # An index is ASCII decimal digits: int() would also read these three.
        (["--set", 'agents.-1.id="x"'], 'agents.-1.id="x"'),
        (["--set", "agents. 1.n=3"], "agents. 1.n=3"),
        (["--set", "agents.\u0661.n=3"], "agents.\u0661.n=3"),
        (["bench", "--function", "sphere", "--n", "4", "--seeds", "0,a"], "0,a"),
        (["bench", "--function", "sphere", "--n", "4", "--seeds", "0,-1"], "0,-1"),
        (["bench", "--function", "sphere", "--n", "4", "--seeds", "0, 1"], "0, 1"),
        (["bench", "--function", "sphere", "--n", "4", "--max-evals", "5"], "budget 5"),
    ])
    def test_exit_2_with_one_line(self, tmp_path, config_path, capsys, args, named):
        if args[0] == "--set":
            args = ["run", "--config", str(config_path), "--out", str(tmp_path / "o"), *args]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("adaptfly: ") and named in err and err.count("\n") == 1


class TestBench:
    def test_sphere_rows(self, capsys):
        code = main(["bench", "--function", "sphere", "--n", "6", "--mode", "full-cma",
                     "--seeds", "0,1", "--max-evals", "3000", "--target", "1e-8"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "function,n,mode,seed,evaluations,best_fitness"
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "sphere" and int(fields[1]) == 6
            assert float(fields[5]) < 1e-8

    def test_every_search_mode_is_listed_and_runs(self, capsys):
        from adaptfly.cmaes import MODES

        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        assert " | ".join(MODES) in capsys.readouterr().out
        for mode in MODES:
            assert main(["bench", "--function", "sphere", "--n", "4", "--mode", mode,
                         "--seeds", "0", "--max-evals", "1000"]) == 0
            assert capsys.readouterr().out.splitlines()[1].split(",")[2] == mode

    def test_unknown_function_exits_2(self, capsys):
        assert main(["bench", "--function", "ackley", "--n", "5"]) == 2
        assert "ackley" in capsys.readouterr().err

    def test_writes_csv_file(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--function", "sphere", "--n", "4", "--seeds", "0",
                     "--max-evals", "2000", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("function,")

    def test_out_file_holds_the_bytes_printed_to_stdout(self, tmp_path, capsys):
        argv = ["bench", "--function", "rosenbrock", "--n", "3", "--mode", "sep-cma",
                "--seeds", "0,2", "--max-evals", "600"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "bench.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()


class TestCalibrate:
    def test_clean_scenario_emits_threshold_json(self, tmp_path, capsys):
        path = tmp_path / "clean.json"
        path.write_text(json.dumps(clean_config(seed=0, frames=50)))
        assert main(["calibrate", "--config", str(path),
                     "--set", "calibration.quantile=0.99"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"z", "quantile"}
        assert payload["z"] > 0
        assert payload["quantile"] == 0.99

    def test_quantile_defaults_to_the_scenario_quantile(self, tmp_path, capsys):
        path = tmp_path / "clean.json"
        path.write_text(json.dumps(clean_config(seed=0, frames=50)))
        main(["calibrate", "--config", str(path), "--set", "calibration.quantile=0.99"])
        explicit = capsys.readouterr().out
        assert main(["calibrate", "--config", str(path)]) == 0
        assert capsys.readouterr().out == explicit
        main(["calibrate", "--config", str(path), "--set", "calibration.quantile=0.9"])
        assert json.loads(capsys.readouterr().out)["quantile"] == 0.9

    def test_out_file_holds_the_bytes_printed_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "clean.json"
        path.write_text(json.dumps(clean_config(seed=0, frames=50)))
        argv = ["calibrate", "--config", str(path), "--set", "calibration.quantile=0.9"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "z.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()

    def test_too_short_stream_fails(self, tmp_path, capsys):
        path = tmp_path / "clean.json"
        path.write_text(json.dumps(clean_config(seed=0, frames=12)))
        assert main(["calibrate", "--config", str(path)]) == 2


class TestReport:
    def _metrics(self, tmp_path, config_path):
        out = tmp_path / "run"
        main(["run", "--config", str(config_path), "--out", str(out)])
        return out / "metrics.csv"

    def test_prints_per_agent_per_domain_table(self, tmp_path, config_path, capsys):
        metrics = self._metrics(tmp_path, config_path)
        capsys.readouterr()
        assert main(["report", "--metrics", str(metrics)]) == 0
        table = capsys.readouterr().out
        assert "uav-h1" in table and "uav-l1" in table
        assert "dusk" in table and "base" in table

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        from adaptfly.fleet.agents import RECORD_COLUMNS
        path = tmp_path / "metrics.csv"
        path.write_text(",".join(RECORD_COLUMNS) + "\n")
        assert main(["report", "--metrics", str(path)]) == 2

    def test_malformed_row_names_line_number(self, tmp_path, config_path, capsys):
        metrics = self._metrics(tmp_path, config_path)
        text = metrics.read_text().splitlines()
        text[3] = "this,is,not,right"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(text) + "\n")
        assert main(["report", "--metrics", str(bad)]) == 2
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [("shift_flag", "2"), ("degraded", "7")])
    def test_malformed_boolean_names_line_number(self, tmp_path, config_path, capsys,
                                                 column, value):
        from adaptfly.fleet.agents import RECORD_COLUMNS
        metrics = self._metrics(tmp_path, config_path)
        text = metrics.read_text().splitlines()
        row = text[3].split(",")
        row[RECORD_COLUMNS.index(column)] = value
        text[3] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(text) + "\n")
        capsys.readouterr()
        assert main(["report", "--metrics", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err and repr(value) in err and err.count("\n") == 1

    def test_missing_metrics_exits_2(self, tmp_path):
        assert main(["report", "--metrics", str(tmp_path / "none.csv")]) == 2


def _report_cell(value):
    return f"{'-':>9s}" if value is None else f"{value:9.4f}"


class TestReportMatchesSummary:
    """``report`` prints summary.json's pre/post split, not a copy of its own."""

    @pytest.mark.parametrize("seed", range(5))
    def test_reference_seed(self, tmp_path, capsys, seed):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(reference_config(seed=seed)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        capsys.readouterr()
        assert main(["report", "--metrics", str(out / "metrics.csv")]) == 0
        printed = capsys.readouterr().out.splitlines()[1:]
        expected = []
        for agent, a in summary["agents"].items():
            for dom, d in a["domains"].items():
                pre = d["pre_adaptation_mean_entropy"]
                post = d["post_adaptation_mean_entropy"]
                reduction = None if pre is None or post is None else pre - post
                expected.append(f"{agent:10s} {dom:8s} {d['frames']:6d} {_report_cell(pre)} "
                                f"{_report_cell(post)} {_report_cell(reduction)}")
        assert len(expected) == 12
        assert sorted(printed) == sorted(expected)


class TestEnvironment:
    def test_invalid_log_level_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("ADAPTFLY_LOG", "loud")
        assert main(["bench", "--function", "sphere", "--n", "4", "--seeds", "0",
                     "--max-evals", "100"]) == 2
        assert "ADAPTFLY_LOG" in capsys.readouterr().err

    def test_valid_log_levels_accepted(self, monkeypatch):
        monkeypatch.setenv("ADAPTFLY_LOG", "debug")
        assert main(["bench", "--function", "sphere", "--n", "4", "--seeds", "0",
                     "--max-evals", "100"]) == 0


class TestShippedConfigs:
    """The JSON files under configs/ stay in sync with the builders."""

    def test_three_domain_matches_builder(self):
        from pathlib import Path
        path = Path(__file__).resolve().parent.parent / "configs" / "three_domain.json"
        assert json.loads(path.read_text()) == reference_config(seed=0)

    def test_clean_base_matches_builder(self):
        from pathlib import Path
        path = Path(__file__).resolve().parent.parent / "configs" / "clean_base.json"
        assert json.loads(path.read_text()) == clean_config(seed=0, frames=60)


# -- malformed configs ---------------------------------------------------------
SHIPPED = Path(__file__).resolve().parent.parent / "configs"


def _run_exit_code(tmp_path, config) -> int:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    return main(["run", "--config", str(path), "--out", str(tmp_path / "out")])


def _leaf_paths(node, prefix=()):
    """Paths of every value in a config, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, prefix + (key,))


MINI_PATHS = sorted(_leaf_paths(mini_config()), key=repr)

# Wrong types, wrong lengths, out-of-range and non-finite numbers, and small
# in-range values (large in-range sizes are valid and merely slow).
BAD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.just(-(2**70)),
    st.floats(-2.0, 2.0), st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300]),
    st.text(max_size=4), st.lists(st.integers(-2, 3), max_size=4),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), st.just({}), st.just("auto"),
)


class TestMalformedConfigs:
    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["domains"][1].update(gian=c["domains"][1].pop("gain")), "gian"),
        (lambda c: c["domains"][1].update(gain=[0.8, 0.7]), "gain"),
        (lambda c: c["oracle"].update(height="32"), "oracle: height"),
        (lambda c: c["agents"][0].update(rho=[0.05]), "rho"),
        (lambda c: c["agents"][0]["cma"].update(population="16"), "population"),
        (lambda c: c.update(domains={"base": {}}), "domains"),
        (lambda c: c["domains"].append(dict(c["domains"][0])), "unique"),
        (lambda c: c["agents"][0]["cma"].update(diagonal=True), "diagonal"),
        (lambda c: c["agents"][0]["cma"].update(tol_f=1e-6), "tol_f"),
        (lambda c: c["distill"].update(step_size=0.1), "step_size"),
    ])
    def test_shipped_config_typos_exit_2(self, tmp_path, capsys, edit, message):
        config = json.loads((SHIPPED / "three_domain.json").read_text())
        edit(config)
        assert _run_exit_code(tmp_path, config) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("dotted, value, named", [
        ("pool.eta", 0, "pool: "),
        ("pool.tau_merge", -0.5, "pool: "),
        ("agents.0.cma.elite", 40, "agents[0]: cma: "),
        ("agents.0.cma.mode", "full-cma", "agents[0]: unknown key(s) ['mode'] in cma"),
        ("distill.precision", "f64", "distill: "),
        ("calibration.frames", 35, "calibration.frames "),
        ("calibration.quantile", 0, "calibration: quantile "),
        ("faults", [{"agent": "__controller__", "step": 1}], "faults[0]: "),
        ("faults", [{"agent": "uav-h1", "step": -1}], "faults[0]: step -1"),
        ("oracle.height", 30, "oracle: "),
        ("agents.0.rho", 0, "agents[0]: "),
        ("agents.0.delta_refresh", -1, "agents[0]: "),
        ("provenance_window", 0, "provenance_window "),
        # An id is a metrics.csv field: report could not read the run's own table.
        ("agents.1.id", "uav,l1", "agents[1].id "),
        ("domains.1.id", "dusk\n2", "domains[1].id "),
    ])
    def test_out_of_range_value_exits_2_before_any_output(self, tmp_path, capsys, dotted,
                                                           value, named):
        out = tmp_path / "out"
        argv = ["run", "--config", str(SHIPPED / "three_domain.json"),
                "--set", f"{dotted}={json.dumps(value)}", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"adaptfly: {named}") and err.count("\n") == 1
        assert not out.exists()

    def test_cma_beyond_the_search_population_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--config", str(SHIPPED / "three_domain.json"),
                "--set", 'agents.0.cma={"population": 6, "elite": 8}', "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("adaptfly: agents[0]: cma: elite size 8") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        pytest.param(b'{"seed": ' + b"1" * 5000 + b"}", id="beyond-int-digits"),
        pytest.param(b"[" * 100000, id="deep-nesting"),
        pytest.param(b'{"seed": "\xff"}', id="invalid-utf8"),
    ])
    def test_config_beyond_the_parser_exits_2_with_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_bytes(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"adaptfly: config {path} is not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["[" * 100000, "1" * 5000])
    def test_override_beyond_the_parser_exits_2_with_one_line(self, tmp_path, capsys, value):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(mini_config()))
        argv = ["run", "--config", str(path), "--set", f"seed={value}", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("adaptfly: --set seed is not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("raw, value", [
        ("stream", "stream"), ("[1,2", "[1,2"), ("nan", "nan"), ("[1, 2]", [1, 2]),
        ("0.5", 0.5), ("null", None), ('"7"', "7"),
    ])
    def test_override_values_not_json_stay_strings(self, raw, value):
        assert _parse_value("key", raw) == value

    def test_top_level_must_be_an_object(self, tmp_path):
        assert _run_exit_code(tmp_path, [mini_config()]) == 2

    @given(
        path=st.sampled_from(MINI_PATHS),
        action=st.sampled_from(["replace", "replace", "delete", "add"]),
        value=BAD_VALUES,
    )
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_config_exits_0_or_2(self, tmp_path, path, action, value):
        config = mini_config()
        node = config
        for key in path[:-1]:
            node = node[key]
        if action == "replace":
            node[path[-1]] = value
        elif action == "delete":
            del node[path[-1]]
        elif isinstance(node, dict):
            node["flavor"] = value
        else:
            node.append(value)
        assert _run_exit_code(tmp_path, config) in (0, 2)


# -- one rule set for configs read from JSON and built in code ---------------
def _at(config, path):
    return reduce(lambda node, key: node[key], path, config)


MINI_LEAVES = [p for p in MINI_PATHS if not isinstance(_at(mini_config(), p), (dict, list))]

# JSON keys that fill a field of another name, and nested JSON settings that
# are fields of the scenario itself.
_FIELD_NAMES = {"lambda": "smoothing", "z": "threshold", "n": "retrieval_n",
                "tau_merge": "merge_threshold", "eta": "merge_weight"}
_SCENARIO_FIELDS = {("pool", "refine_period"): "refine_period",
                    ("calibration", "frames"): "calibration_frames",
                    ("calibration", "quantile"): "calibration_quantile"}


def _retyped(spec, kind):
    """``spec`` rebuilt as the spec type of the JSON ``kind`` from all its
    settings, so a setting that type does not take is refused, as from JSON.
    A value that names no kind gives a bare AgentSpec, which no scenario takes."""
    make = next((t for t in (LimitedSpec, MassiveSpec) if t.kind == kind), None)
    if make is None:
        return AgentSpec(**{f.name: getattr(spec, f.name) for f in dataclasses.fields(AgentSpec)})
    try:
        return make(**{f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)})
    except TypeError as exc:  # a setting of the other kind
        raise ConfigError(str(exc)) from exc


def _replaced(node, path, value):
    """``node`` with ``value`` at the field path of a JSON path, rebuilt by
    dataclasses.replace (NamedTuple._replace for a fault) level by level. An
    agent's kind is its spec type."""
    key, *rest = path
    if path == ["kind"]:
        return _retyped(node, value)
    key = _FIELD_NAMES.get(key, key)
    if rest:
        inner = node[key] if isinstance(node, dict) or isinstance(key, int) else getattr(node, key)
        value = _replaced(inner, rest, value)
    if isinstance(node, dict):
        return {**node, key: value}
    if hasattr(node, "_replace"):
        return node._replace(**{key: value})
    if isinstance(node, tuple):
        return node[:key] + (value,) + node[key + 1:]
    return dataclasses.replace(node, **{key: value})


def _rejects(build) -> bool:
    """Whether ``build()`` raises ConfigError; any other exception propagates."""
    try:
        build()
    except ConfigError:
        return True
    return False


def _rejected_from_json_and_in_code(config: dict, path: tuple, value) -> tuple[bool, bool]:
    """Whether from_dict rejects ``config`` with ``value`` at ``path``, and
    whether setting the same value on the parsed config in code is rejected."""
    mutated = copy.deepcopy(config)
    _at(mutated, path[:-1])[path[-1]] = value
    parsed = ScenarioConfig.from_dict(config)
    fields = (_SCENARIO_FIELDS[path[:2]], *path[2:]) if path[:2] in _SCENARIO_FIELDS else path
    return (_rejects(lambda: ScenarioConfig.from_dict(mutated)),
            _rejects(lambda: _replaced(parsed, fields, value)))


# Values from_dict rejected before every type checked its own fields, while
# the same value set in code was accepted or failed untyped.
PROBED = [
    pytest.param(mini_config(), ("agents", 0, "id"), "uav,h1", id="id-comma"),
    # on the only agent, so no other rule (equal stream lengths) rejects it
    pytest.param({**mini_config(), "agents": mini_config()["agents"][:1]},
                 ("agents", 0, "schedule", 0, "frames"), 0, id="frames-0"),
    pytest.param(mini_config(), ("agents", 0, "schedule", 0, "motion", 0), 2**70, id="motion"),
    pytest.param({**mini_config(), "faults": [{"agent": "uav-h1", "step": 3}]},
                 ("faults", 0, "step"), 3.0, id="fault-step"),
    pytest.param(clean_config(0), ("seed",), 1.5, id="seed-clean"),
    pytest.param(reference_config(0), ("seed",), 1.5, id="seed-reference"),
    pytest.param(mini_config(), ("agents", 0, "warmup"), 2.5, id="warmup"),
    pytest.param({**clean_config(0), "calibration": {"frames": 60}}, ("calibration", "frames"),
                 0, id="calibration-frames-numeric-z"),
    pytest.param(mini_config(), ("pool", "capacity"), 2.5, id="pool-capacity"),
    pytest.param(mini_config(), ("agents", 0, "cma", "flavor"), 1, id="cma-key"),
    pytest.param(mini_config(), ("agents", 0, "cma", "dimension"), 3, id="cma-dimension"),
]


class TestOneRuleSet:
    @pytest.mark.parametrize("config, path, value", PROBED)
    def test_probed_value_is_rejected_from_json_and_in_code(self, config, path, value):
        assert _rejected_from_json_and_in_code(config, path, value) == (True, True)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda c: PoolConfig(capacity=2.5), id="pool-capacity"),
        pytest.param(lambda c: dataclasses.replace(c, pool={"capacity": 3}), id="pool-dict"),
        pytest.param(lambda c: dataclasses.replace(c, agents=({"id": "x"},)), id="agent-dict"),
        pytest.param(lambda c: dataclasses.replace(c, distill={"step_size": 0.1}),
                     id="distill-key"),
        pytest.param(lambda c: dataclasses.replace(c, oracle={"seed": 7}), id="oracle-dict"),
        pytest.param(lambda c: dataclasses.replace(c.oracle, temperature=0.0),
                     id="oracle-temperature"),
    ])
    def test_value_built_in_code_raises_config_error(self, edit):
        with pytest.raises(ConfigError):
            edit(ScenarioConfig.from_dict(mini_config()))

    def test_json_oracle_takes_every_spec_field_and_no_other_key(self):
        """The keys JSON reads under ``oracle`` are the fields a spec built in
        code takes: each is read at its value, and any other key is refused
        from JSON as it is in code."""
        values = {"seed": 3, "classes": 4, "height": 16, "width": 16, "stem_channels": 6,
                  "patch": 2, "temperature": 0.1}
        assert set(values) == {f.name for f in dataclasses.fields(OracleSpec)}
        config = mini_config()
        config["oracle"] = values
        assert ScenarioConfig.from_dict(config).oracle == OracleSpec(**values)
        for key in ("position_decay", "flavor", "Seed"):
            config["oracle"] = {key: 0.5}
            with pytest.raises(ConfigError, match=rf"^unknown key\(s\) \['{key}'\] in oracle$"):
                ScenarioConfig.from_dict(config)
            with pytest.raises(TypeError):
                OracleSpec(**{key: 0.5})

    @given(path=st.sampled_from(MINI_LEAVES), value=BAD_VALUES.filter(lambda v: v is not None))
    @example(path=("agents", 0, "id"), value="uav,h1")
    @example(path=("agents", 0, "schedule", 0, "motion", 0), value=2**70)
    @example(path=("agents", 0, "warmup"), value=2.5)
    @example(path=("seed",), value=1.5)
    @example(path=("pool", "capacity"), value=2.5)
    @example(path=("agents", 0, "kind"), value="hybrid")
    @example(path=("agents", 0, "kind"), value="limited")
    @example(path=("agents", 1, "kind"), value="massive")
    @example(path=("agents", 1, "kind"), value="limited")
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_json_and_code_reject_the_same_values(self, path, value):
        """null is left out: JSON reads it as an absent key. A kind is the
        spec's type: another kind's spec refuses the agent's settings."""
        json_rejects, code_rejects = _rejected_from_json_and_in_code(mini_config(), path, value)
        assert json_rejects == code_rejects


class TestTransportEquivalence:
    def test_dropped_fetches_write_the_same_outputs(self, tmp_path):
        """uav-l1's fetch at step 42 would bring entries in full and the one
        at step 54 only back-references; with both dropped, both transports
        still write the same outputs."""
        faults = '[{"agent":"uav-l1","step":42},{"agent":"uav-l1","step":54}]'
        inproc, stream = (tmp_path / t for t in ("inproc", "stream"))
        for out in (inproc, stream):
            assert main(["run", "--config", str(SHIPPED / "three_domain.json"),
                         "--set", f"faults={faults}", "--set", f"transport={out.name}",
                         "--out", str(out)]) == 0
        for name in ("metrics.csv", "pool.jsonl"):
            assert (inproc / name).read_bytes() == (stream / name).read_bytes()
        a, b = (json.loads((out / "summary.json").read_text()) for out in (inproc, stream))
        assert (a.pop("transport"), b.pop("transport")) == ("inproc", "stream")
        assert a == b
        rows = parse_metrics_csv((inproc / "metrics.csv").read_text())
        dropped = [(r.step, r.adaptation_event) for r in rows if r.degraded]
        assert dropped == [(42, "retrieve"), (54, "retrieve")]
