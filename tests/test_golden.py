"""Fresh runs of reference_config(0..4) against the committed golden outputs.

Discrete values (steps, ids, events, flags, byte and pool counts, and
every pool entry's ids, stamps, tags, rows, dim and dtype) must match
exactly. Floats, pool keys among them, must match to GOLDEN_REL_TOL: one
and two BLAS threads write the same bits on x86-64 with OpenBLAS, but
numpy's SIMD ``exp`` and ``log`` may round differently on another CPU.
Stored prompt values must match to PROMPT_REL_TOL. Regenerate the files
with ``tests/golden.py``.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import golden
from adaptfly.fleet import parse_metrics_csv
from adaptfly.prompts import number_vector

GOLDEN_REL_TOL = 1e-9
# Prompt values are stored as float32. One and two BLAS threads wrote the
# same pool.jsonl bytes for every reference seed (a measured spread of
# zero), so the tolerance only has to absorb drift of the size
# GOLDEN_REL_TOL allows on another CPU. Such drift, far below a float32
# step, can still round a stored value to its neighbouring float32: one
# step, at most 2**-23 of the prompt's largest magnitude.
PROMPT_REL_TOL = 2.0**-23


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


def _pool_mismatches(got: str, want: str) -> list[str]:
    """Where pool.jsonl text ``got`` differs from ``want``: keys, decoded,
    beyond GOLDEN_REL_TOL, a prompt's values beyond PROMPT_REL_TOL of its
    largest magnitude, anything else at all."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"pool.jsonl: got {len(got_lines)} lines, golden {len(want_lines)}"]
    bad = []
    for i, (g, w) in enumerate(zip(map(json.loads, got_lines), map(json.loads, want_lines)), 1):
        where = f"pool.jsonl:{i}"
        if "key" in g and "key" in w:
            bad += _mismatches(number_vector(g.pop("key"), "key").tolist(),
                               number_vector(w.pop("key"), "key").tolist(), f"{where}.key")
        if isinstance(g.get("value"), dict) and isinstance(w.get("value"), dict):
            gv, wv = (np.asarray(e["value"].pop("values"), dtype=np.float64) for e in (g, w))
            if gv.shape != wv.shape or np.any(
                    np.abs(gv - wv) > PROMPT_REL_TOL * np.abs(wv).max(initial=0.0)):
                bad.append(f"{where}.value.values: differ beyond PROMPT_REL_TOL")
        bad += _mismatches(g, w, where)
    return bad


@pytest.mark.parametrize("transport", ["inproc", "stream"])
@pytest.mark.parametrize("seed", golden.SEEDS)
def test_reference_outputs_match_the_golden_files(seed, transport):
    metrics, summary, pool = golden.outputs(seed, transport)
    rows = [dataclasses.asdict(r) for r in parse_metrics_csv(metrics)]
    golden_rows = [dataclasses.asdict(r) for r in
                   parse_metrics_csv(golden.path(seed, "metrics.csv").read_text("utf-8"))]
    got, want = json.loads(summary), json.loads(golden.path(seed, "summary.json").read_text("utf-8"))
    assert got.pop("transport") == transport
    assert want.pop("transport") == "inproc"
    bad = (_mismatches(rows, golden_rows, "metrics.csv")
           + _mismatches(got, want, "summary.json")
           + _pool_mismatches(pool, golden.path(seed, "pool.jsonl").read_text("utf-8")))
    assert not bad, f"{len(bad)} values differ from the golden files, first: {bad[:5]}"


def test_float_tolerance_is_relative_and_discrete_values_exact():
    assert not _mismatches({"a": [1.0, 0.5]}, {"a": [1.0 + 1e-12, 0.5]}, "x")
    assert _mismatches(1.0, 1.0 + 1e-6, "x")
    assert _mismatches(0.0, 1e-300, "x")
    assert _mismatches(3, 4, "x") and _mismatches(True, 1, "x") and _mismatches(None, 0.0, "x")
    assert _mismatches({"a": 1}, {"b": 1}, "x") and _mismatches([1], [1, 2], "x")


def test_pool_keys_and_values_have_their_own_tolerances_and_the_rest_is_exact():
    want = golden.path(0, "pool.jsonl").read_text("utf-8")
    lines = want.splitlines()
    entry = json.loads(lines[2])  # line 1 holds the zero prompt of the base domain
    key = number_vector(entry["key"], "key")
    values = np.asarray(entry["value"]["values"], dtype=np.float32)
    top = np.argmax(np.abs(values))
    assert values[top] != 0

    def moved(**changes) -> str:
        return "\n".join([*lines[:2], json.dumps({**entry, **changes}), *lines[3:]]) + "\n"

    def value(**changes) -> dict:
        return {**entry["value"], **changes}

    def step(n: int) -> list:  # the largest value moved n float32 steps
        v = values.copy()
        for _ in range(n):
            v[top] = np.nextafter(v[top], np.float32(np.inf))
        return v.astype(np.float64).tolist()

    assert not _pool_mismatches(want, want)
    assert not _pool_mismatches(moved(), want)
    assert not _pool_mismatches(moved(key=(key * (1 + 1e-12)).tolist()), want)
    assert not _pool_mismatches(moved(value=value(values=step(1))), want)
    assert _pool_mismatches(moved(value=value(values=step(2))), want)
    assert _pool_mismatches(moved(key=(key * (1 + 1e-6)).tolist()), want)
    assert _pool_mismatches(moved(last_retrieved=entry["last_retrieved"] + 1), want)
    assert _pool_mismatches(moved(value=value(dtype="f16")), want)
    assert _pool_mismatches(want.replace('"next_id":', '"next_id":1', 1), want)
    assert _pool_mismatches("\n".join(lines[:-1]) + "\n", want)
