"""Operator entry point.

Subcommands:

* run       — execute a scenario config, writing metrics.csv, pool.jsonl
              and summary.json into the output directory.
* bench     — optimizer regression harness on standard test functions,
              emitting one CSV row per seed.
* calibrate — derive a drift threshold from a clean (shift-free) scenario.
* report    — per-agent, per-domain entropy summary from a metrics file.

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

from .cmaes import BENCH_FUNCTIONS, run_benchmark
from .errors import AdaptflyError
from .fleet import calibrate_scenario, metrics_csv, run_scenario
from .fleet.agents import RECORD_COLUMNS

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


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"config not found: {path}")
    try:
        config = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return config


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_override(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise CliError(f"override must look like key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    keys = dotted.split(".")
    node = config
    for key in keys[:-1]:
        if isinstance(node, list):
            node = node[int(key)]
        elif isinstance(node, dict):
            node = node.setdefault(key, {})
        else:
            raise CliError(f"cannot descend into {key!r} of override {assignment!r}")
    leaf = keys[-1]
    if isinstance(node, list):
        node[int(leaf)] = _parse_value(raw)
    else:
        node[leaf] = _parse_value(raw)


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    for assignment in args.set or ():
        _apply_override(config, assignment)
    if args.seed is not None:
        config["seed"] = args.seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = run_scenario(config)
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
    seeds = [int(s) for s in args.seeds.split(",") if s != ""]
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
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_calibrate(args) -> int:
    config = _load_config(args.config)
    for assignment in args.set or ():
        _apply_override(config, assignment)
    result = calibrate_scenario(config, quantile=args.quantile)
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _read_metrics(path: str) -> list[dict]:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"metrics file not found: {path}")
    lines = p.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split(",") != list(RECORD_COLUMNS):
        raise CliError(f"{path} does not start with the metrics header")
    if len(lines) < 2:
        raise CliError(f"{path} contains no data rows")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(RECORD_COLUMNS):
            raise CliError(f"{path} line {i}: expected {len(RECORD_COLUMNS)} fields")
        try:
            rows.append(
                {
                    "step": int(parts[0]),
                    "agent_id": parts[1],
                    "domain": parts[2],
                    "drift_score": float(parts[3]),
                    "shift_flag": bool(int(parts[4])),
                    "mean_entropy": float(parts[5]),
                    "adaptation_event": parts[6],
                    "bytes_sent": int(parts[7]),
                    "bytes_received": int(parts[8]),
                    "pool_size": int(parts[9]),
                    "retrieved": int(parts[10]),
                    "degraded": bool(int(parts[11])),
                }
            )
        except ValueError as exc:
            raise CliError(f"{path} line {i}: {exc}") from exc
    return rows


def _cmd_report(args) -> int:
    rows = _read_metrics(args.metrics)
    agents = sorted({r["agent_id"] for r in rows})
    out = sys.stdout
    out.write(f"{'agent':10s} {'domain':8s} {'frames':>6s} {'pre_H':>9s} {'post_H':>9s} {'reduction':>9s}\n")
    for agent in agents:
        arows = [r for r in rows if r["agent_id"] == agent]
        domains = []
        for r in arows:  # preserve first-seen order
            if r["domain"] not in domains:
                domains.append(r["domain"])
        for dom in domains:
            drows = [r for r in arows if r["domain"] == dom]
            first = next(
                (r["step"] for r in drows
                 if r["adaptation_event"] in ("retrieve", "optimize") and
                 (r["adaptation_event"] == "optimize" or r["retrieved"] > 0)),
                None,
            )
            pre = [r["mean_entropy"] for r in drows if first is None or r["step"] < first]
            post = [r["mean_entropy"] for r in drows if first is not None and r["step"] >= first]

            def cell(xs):
                return f"{sum(xs) / len(xs):9.4f}" if xs else f"{'-':>9s}"

            red = (
                f"{(sum(pre) / len(pre) - sum(post) / len(post)):9.4f}"
                if pre and post
                else f"{'-':>9s}"
            )
            out.write(
                f"{agent:10s} {dom or '-':8s} {len(drows):6d} {cell(pre)} {cell(post)} {red}\n"
            )
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
    p_bench.add_argument("--mode", default="full-cma", help="full-cma | elite-eda")
    p_bench.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    p_bench.add_argument("--max-evals", type=int, default=None)
    p_bench.add_argument("--target", type=float, default=None)
    p_bench.add_argument("--sigma0", type=float, default=0.3)
    p_bench.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_bench.set_defaults(fn=_cmd_bench)

    p_cal = sub.add_parser("calibrate", help="threshold from a clean scenario")
    p_cal.add_argument("--config", required=True, help="clean scenario JSON path")
    p_cal.add_argument("--quantile", type=float, default=0.99)
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
