"""Fresh runs of reference_config(0..4) against the committed golden outputs.

Discrete values (steps, ids, events, flags, byte and pool counts) must
match exactly. Floats must match to GOLDEN_REL_TOL: one and two BLAS
threads write the same bits on x86-64 with OpenBLAS, but numpy's SIMD
``exp`` and ``log`` may round differently on another CPU. Regenerate the
files with ``tests/golden.py``.
"""

import dataclasses
import json
import math

import pytest

import golden
from adaptfly.fleet import parse_metrics_csv

GOLDEN_REL_TOL = 1e-9


def _mismatches(got, want, where: str) -> list[str]:
    """Where ``got`` differs from ``want``: floats beyond GOLDEN_REL_TOL,
    anything else at all."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=GOLDEN_REL_TOL, abs_tol=0.0):
            return []
    elif isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [m for k in want for m in _mismatches(got[k], want[k], f"{where}.{k}")]
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: got {got!r}, golden {want!r}"]


@pytest.mark.parametrize("transport", ["inproc", "stream"])
@pytest.mark.parametrize("seed", golden.SEEDS)
def test_reference_outputs_match_the_golden_files(seed, transport):
    metrics, summary = golden.outputs(seed, transport)
    rows = [dataclasses.asdict(r) for r in parse_metrics_csv(metrics)]
    golden_rows = [dataclasses.asdict(r) for r in
                   parse_metrics_csv(golden.path(seed, "metrics.csv").read_text("utf-8"))]
    got, want = json.loads(summary), json.loads(golden.path(seed, "summary.json").read_text("utf-8"))
    assert got.pop("transport") == transport
    assert want.pop("transport") == "inproc"
    bad = (_mismatches(rows, golden_rows, "metrics.csv")
           + _mismatches(got, want, "summary.json"))
    assert not bad, f"{len(bad)} values differ from the golden files, first: {bad[:5]}"


def test_float_tolerance_is_relative_and_discrete_values_exact():
    assert not _mismatches({"a": [1.0, 0.5]}, {"a": [1.0 + 1e-12, 0.5]}, "x")
    assert _mismatches(1.0, 1.0 + 1e-6, "x")
    assert _mismatches(0.0, 1e-300, "x")
    assert _mismatches(3, 4, "x") and _mismatches(True, 1, "x") and _mismatches(None, 0.0, "x")
    assert _mismatches({"a": 1}, {"b": 1}, "x") and _mismatches([1], [1, 2], "x")
