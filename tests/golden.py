"""Golden outputs of ``reference_config(0..4)``: metrics.csv, summary.json
and pool.jsonl.

    PYTHONPATH=src python tests/golden.py

rewrites ``tests/data/reference/seed<N>/`` from the current code, run under
the inproc transport with one BLAS thread; ``test_golden.py`` compares
fresh runs under both transports against these files. Regenerate them
only for a declared numerics or behaviour change, and name the rows that
moved in CHANGES.md.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

SEEDS = range(5)
DATA = Path(__file__).resolve().parent / "data" / "reference"


NAMES = ("metrics.csv", "summary.json", "pool.jsonl")


def outputs(seed: int, transport: str = "inproc") -> tuple[str, str, str]:
    """metrics.csv, summary.json and pool.jsonl of ``reference_config(seed)``,
    as ``adaptfly run`` writes them."""
    from adaptfly.fleet import metrics_csv, reference_config, run_scenario

    result = run_scenario(reference_config(seed, transport=transport))
    summary = json.dumps(result.summary, indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        result.pool.save(Path(tmp) / "pool.jsonl")
        pool = (Path(tmp) / "pool.jsonl").read_text("utf-8")
    return metrics_csv(result.records), summary, pool


def path(seed: int, name: str) -> Path:
    return DATA / f"seed{seed}" / name


def main() -> int:
    for seed in SEEDS:
        path(seed, "").mkdir(parents=True, exist_ok=True)
        for name, text in zip(NAMES, outputs(seed)):
            path(seed, name).write_text(text, encoding="utf-8")
        print(f"wrote {path(seed, '')}")
    return 0


if __name__ == "__main__":
    # Before numpy loads: the golden files are written with one BLAS thread.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(main())
