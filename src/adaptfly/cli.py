"""Operator entry point.

Subcommands:

* run       — execute a scenario config, writing metrics.csv, pool.jsonl
              and summary.json into the output directory.
* bench     — optimizer regression harness on standard test functions,
              emitting one CSV row per seed.
* calibrate — derive a drift threshold from a clean (shift-free) scenario.
* report    — per-agent, per-domain entropy before and after the first
              adaptation, as in summary.json, from a metrics file.

``--set key=value`` applies dotted-path overrides to the loaded config
(e.g. ``--set pool.capacity=128`` or ``--set agents.0.rho=0.1``); values
parse as JSON with a plain-string fallback. ADAPTFLY_LOG in
{error, info, debug} controls log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .cmaes import BENCH_FUNCTIONS, MODES, run_benchmark
from .errors import AdaptflyError, parse_json
from .fleet import (
    ScenarioConfig,
    adaptation_summary,
    calibrate_scenario,
    metrics_csv,
    parse_metrics_csv,
    run_scenario,
)

log = logging.getLogger("adaptfly")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

# Early-exit targets and evaluation budgets for the bench subcommand.
_BENCH_DEFAULTS = {"sphere": (1e-8, 10_000), "rosenbrock": (1e-4, 50_000)}


class CliError(AdaptflyError):
    """Fatal CLI problem; message is printed as a one-line diagnostic."""


def _configure_logging() -> None:
    raw = os.environ.get("ADAPTFLY_LOG")
    if raw is None:
        level = logging.WARNING
    elif raw in _LOG_LEVELS:
        level = _LOG_LEVELS[raw]
    else:
        raise CliError(
            f"ADAPTFLY_LOG must be one of {sorted(_LOG_LEVELS)}, got {raw!r}"
        )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_config(args) -> dict:
    """The JSON object at ``--config``, with the ``--set`` overrides applied."""
    path = args.config
    p = Path(path)
    if not p.is_file():
        raise CliError(f"config not found: {path}")
    config = parse_json(p.read_bytes(), CliError, f"config {path} is not valid JSON")
    if not isinstance(config, dict):
        raise CliError(f"config {path} must hold a JSON object")
    for assignment in args.set or ():
        _apply_override(config, assignment)
    return config


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout without one."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_value(dotted: str, raw: str):
    """A ``--set`` value as JSON; text with a JSON syntax error stays a plain string.

    Text JSON cannot read for any other reason (an integer past the digit
    limit, nesting past the recursion limit) is a CliError naming the key.
    """
    try:
        return parse_json(raw, CliError, f"--set {dotted} is not valid JSON")
    except CliError as exc:
        if type(exc.__cause__) is json.JSONDecodeError:
            return raw
        raise


def _digits(text: str) -> int | None:
    """``text`` as a non-negative integer if it is ASCII decimal digits, else None.

    ``int()`` also reads signs, spaces, underscores and other scripts' digits.
    """
    return int(text) if text.isascii() and text.isdigit() else None


def _slot(node, key: str, assignment: str):
    """The index ``key`` names in an object or list node of an override path."""
    if isinstance(node, dict):
        return key
    if isinstance(node, list):
        if _digits(key) in range(len(node)):
            return int(key)
        raise CliError(
            f"{key!r} is not an index of a {len(node)}-item list in override {assignment!r}"
        )
    raise CliError(f"cannot descend into {key!r} of override {assignment!r}")


def _apply_override(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise CliError(f"override must look like key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    *path, leaf = dotted.split(".")
    node = config
    for key in path:
        i = _slot(node, key, assignment)
        node = node.setdefault(i, {}) if isinstance(node, dict) else node[i]
    node[_slot(node, leaf, assignment)] = _parse_value(dotted, raw)


def _cmd_run(args) -> int:
    config = _load_config(args)
    if args.seed is not None:
        config["seed"] = args.seed
    scenario = ScenarioConfig.from_dict(config)  # a rejected config leaves no directory
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = run_scenario(scenario)
    (out / "metrics.csv").write_text(metrics_csv(result.records), encoding="utf-8")
    result.pool.save(out / "pool.jsonl")
    (out / "summary.json").write_text(
        json.dumps(result.summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    log.info("wrote metrics.csv, pool.jsonl, summary.json to %s", out)
    return 0


def _cmd_bench(args) -> int:
    if args.function not in BENCH_FUNCTIONS:
        raise CliError(
            f"unknown function {args.function!r}, expected one of {sorted(BENCH_FUNCTIONS)}"
        )
    seeds = [_digits(s) for s in args.seeds.split(",") if s != ""]
    if None in seeds:
        raise CliError(f"--seeds must be comma-separated non-negative integers, got {args.seeds!r}")
    if not seeds:
        raise CliError("no seeds given")
    target, budget = _BENCH_DEFAULTS[args.function]
    if args.target is not None:
        target = args.target
    if args.max_evals is not None:
        budget = args.max_evals

    lines = ["function,n,mode,seed,evaluations,best_fitness"]
    for seed in seeds:
        r = run_benchmark(
            args.function,
            args.n,
            args.mode,
            seed,
            max_evaluations=budget,
            target=target,
            sigma0=args.sigma0,
        )
        lines.append(
            f"{r.function},{r.dimension},{r.mode},{r.seed},{r.evaluations},{r.best_fitness!r}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_calibrate(args) -> int:
    result = calibrate_scenario(_load_config(args), quantile=args.quantile)
    _emit(json.dumps(result, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cell(value: float | None) -> str:
    return f"{'-':>9s}" if value is None else f"{value:9.4f}"


def _cmd_report(args) -> int:
    path = Path(args.metrics)
    if not path.is_file():
        raise CliError(f"metrics file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8 text: invalid byte at offset {exc.start}") from None
    records = parse_metrics_csv(text, source=str(path))
    if not records:
        raise CliError(f"{path} contains no data rows")
    out = sys.stdout
    out.write(f"{'agent':10s} {'domain':8s} {'frames':>6s} {'pre_H':>9s} {'post_H':>9s} {'reduction':>9s}\n")
    for agent, domains in sorted(adaptation_summary(records).items()):
        for dom, d in domains.items():
            pre = d["pre_adaptation_mean_entropy"]
            post = d["post_adaptation_mean_entropy"]
            reduction = None if pre is None or post is None else pre - post
            out.write(f"{agent:10s} {dom or '-':8s} {d['frames']:6d} "
                      f"{_cell(pre)} {_cell(post)} {_cell(reduction)}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptfly",
        description="Prompt-guided test-time adaptation fleet simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True, help="scenario JSON path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path config override (repeatable)")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.set_defaults(fn=_cmd_run)

    p_bench = sub.add_parser("bench", help="optimizer regression benchmarks")
    p_bench.add_argument("--function", required=True, help="sphere | rosenbrock")
    p_bench.add_argument("--n", type=int, required=True, help="problem dimension")
    p_bench.add_argument("--mode", default="full-cma", help=" | ".join(MODES))
    p_bench.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    p_bench.add_argument("--max-evals", type=int, default=None)
    p_bench.add_argument("--target", type=float, default=None)
    p_bench.add_argument("--sigma0", type=float, default=0.3)
    p_bench.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_bench.set_defaults(fn=_cmd_bench)

    p_cal = sub.add_parser("calibrate", help="threshold from a clean scenario")
    p_cal.add_argument("--config", required=True, help="clean scenario JSON path")
    p_cal.add_argument("--quantile", type=float, default=None,
                       help="default: the scenario's calibration.quantile")
    p_cal.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_cal.add_argument("--out", default=None, help="JSON path (default stdout)")
    p_cal.set_defaults(fn=_cmd_calibrate)

    p_rep = sub.add_parser("report", help="summary tables from metrics.csv")
    p_rep.add_argument("--metrics", required=True, help="metrics.csv path")
    p_rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        _configure_logging()
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except AdaptflyError as exc:
        print(f"adaptfly: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"adaptfly: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
