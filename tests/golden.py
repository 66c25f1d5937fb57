"""Golden outputs of ``reference_config(0..4)``: metrics.csv and summary.json.

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
from pathlib import Path

SEEDS = range(5)
DATA = Path(__file__).resolve().parent / "data" / "reference"


def outputs(seed: int, transport: str = "inproc") -> tuple[str, str]:
    """metrics.csv and summary.json of ``reference_config(seed)``, as
    ``adaptfly run`` writes them."""
    from adaptfly.fleet import metrics_csv, reference_config, run_scenario

    result = run_scenario(reference_config(seed, transport=transport))
    summary = json.dumps(result.summary, indent=2, sort_keys=True) + "\n"
    return metrics_csv(result.records), summary


def path(seed: int, name: str) -> Path:
    return DATA / f"seed{seed}" / name


def main() -> int:
    for seed in SEEDS:
        metrics, summary = outputs(seed)
        path(seed, "metrics.csv").parent.mkdir(parents=True, exist_ok=True)
        path(seed, "metrics.csv").write_text(metrics, encoding="utf-8")
        path(seed, "summary.json").write_text(summary, encoding="utf-8")
        print(f"wrote {path(seed, '')}")
    return 0


if __name__ == "__main__":
    # Before numpy loads: the golden files are written with one BLAS thread.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(main())
