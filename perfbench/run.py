"""Benchmark command: run one workload by name and seed, print its metrics.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 20 --trace 0

A run sets up its inputs several times (the median is setup_s), warms up,
then repeats whole closed-loop rounds of the same operations until
--seconds have passed; the first round's outputs are checked and every
later round must reproduce them. Each op's time is its fastest over the
rounds. With --trace 1 untraced and traced rounds alternate, and the
per-layer metrics of the traced ones are printed. The last line of
standard output is one JSON object: correct, attempted, failed and
metrics.
"""

import os

# Pinned before numpy loads: with more BLAS threads the library's results
# change (metrics.csv of reference_config(0) diverges at step 20) and the
# CPU time doubles on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 3
# Rounds per run: each op's time is its fastest of these, which filters the
# host's speed drift (up to 1.8x between 5-second windows on the box the
# README describes).
MIN_ROUNDS = 3
MIN_TRACED = 2
# Op times are scaled to a host on which workloads.host_probe() takes this
# long, by the probe time measured during the same rounds (per probe point
# the fastest over rounds, then the median over points). About the probe's
# typical time on the box the README describes. Set-up is not scaled: it
# runs before the rounds, and scaling it by their probes widened its
# spread over ten seeds from 0.24 to 0.47 on reference.
PROBE_REF_S = 0.003


def import_library() -> float:
    """Import adaptfly from this checkout's src/; seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "adaptfly", "__init__.py")):
        sys.exit(f"perfbench: no adaptfly sources at {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import adaptfly  # noqa: F401

    elapsed = time.perf_counter() - t0
    if not os.path.abspath(adaptfly.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: adaptfly imported from {adaptfly.__file__}, not {SRC}")
    return elapsed


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile: at least (100 - q)% of samples lie at or above it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _best(series) -> list[float]:
    """Per position, the fastest time over rounds that repeat the same ops."""
    return [min(col) for col in zip(*series)]


def run(workload, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    import tracing

    workload.prepare(seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        st = workload.setup(seed)
        setups.append(time.perf_counter() - t0)
    workload.warmup(st)

    # Whole rounds until --seconds have passed, and at least MIN_ROUNDS of
    # them; the first is checked. A traced run alternates untraced and
    # traced rounds so that host drift hits both alike.
    plain, traced = [], []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    while len(plain) < (MIN_TRACED if trace else MIN_ROUNDS) or (
        time.perf_counter() - start < seconds
    ):
        plain.append(workload.round(st, check=not plain))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(workload.round(st, check=False))
            finally:
                tracer.uninstall()
    rounds = plain + traced
    checked = plain[0]

    failures = list(checked.failures)
    failures += [f"round {i} output differs from the checked round"
                 for i, r in enumerate(rounds) if r.digest != checked.digest]
    for msg in failures[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    best = _best(r.gaps for r in plain)
    if trace:
        overhead = 100.0 * (sum(_best(r.gaps for r in traced)) / sum(best) - 1.0)
        traced_wall = sum(sum(r.gaps) for r in traced)
        per_layer = tracer.reduce(traced_wall, overhead, rounds=len(traced))
        metrics = {name: {"value": value, "unit": tracing.PER_LAYER_UNITS[name]}
                   for name, value in per_layer.items()}
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.dump(os.path.join(HERE, "out", f"trace-{workload.name}-{seed}.jsonl"))
    else:
        probe = statistics.median(_best(r.probes for r in plain))
        unscaled = {
            "setup_s": import_s + statistics.median(setups),
            "ops_per_s": len(best) / sum(best),
            "op_p50_ms": 1000.0 * statistics.median(best),
            "op_p99_ms": 1000.0 * _percentile(best, 99),
        }
        print(json.dumps({"probe_s": probe, "unscaled": unscaled}), file=sys.stderr)
        scale = PROBE_REF_S / probe
        metrics = {
            "setup_s": (unscaled["setup_s"], "s"),
            "ops_per_s": (unscaled["ops_per_s"] / scale, "1/s"),
            "op_p50_ms": (unscaled["op_p50_ms"] * scale, "ms"),
            "op_p99_ms": (unscaled["op_p99_ms"] * scale, "ms"),
            "wire_bytes_per_op": (checked.wire_bytes / checked.ops, "bytes"),
            "entropy_nats": (checked.entropy, "nats"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return {"correct": not failures, "attempted": sum(r.ops for r in rounds),
            "failed": sum(r.failed for r in rounds), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_library()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    result = run(workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
