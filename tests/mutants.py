"""Mutation probe: which one-line faults does tier-1 catch?

    python tests/mutants.py [NAME ...]

For each mutant in MUTANTS (or only those named), copies ``src/``,
``tests/`` and the files the suite reads (``configs/``, ``perfbench/``,
``pyproject.toml``) to a temporary directory, applies the mutant's
one-line replacement there, and runs tier-1 with ``-x -q`` and one BLAS
thread, one mutant at a time. The copy's own ``tests/test_mutants.py`` is
left out, and the unmutated copy is run first and must pass, so a kill is
always a real test failing on the mutant. It prints each mutant as killed
or survived, and exits 1 if a survivor is not listed in EQUIVALENT with the
reason no test can catch it. Standard library only; it runs on demand, not
in CI. A kill stops at the first failing test; a survivor and the
unmutated copy each run the whole suite.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "perfbench", "pyproject.toml")
SKIPPED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # text on one line that occurs exactly once in the file
    new: str


AGENTS, CMAES = "src/adaptfly/fleet/agents.py", "src/adaptfly/cmaes.py"

MUTANTS = (
    Mutant("detector fires at its threshold", "src/adaptfly/drift.py",
           "shift = score > tracker.threshold", "shift = score >= tracker.threshold"),
    Mutant("reset_reference keeps the warmup count", "src/adaptfly/drift.py",
           "tracker.frames_seen = 0", "pass"),
    Mutant("sep-CMA without the (n + 2) / 3 scale of c_1", CMAES,
           "c_1 *= (n + 2.0) / 3.0", "c_1 *= 1.0"),
    Mutant("evaluation count without the baseline", CMAES,
           "evaluations=1 + config.population * len(history),",
           "evaluations=config.population * len(history),"),
    Mutant("unsorted mask", "src/adaptfly/prompts.py", "order.sort()", "pass"),
    Mutant("stall window of 4", CMAES, "STALL_WINDOW = 5", "STALL_WINDOW = 4"),
    Mutant("strict similarity floor", AGENTS,
           ">= self.ADOPT_SIMILARITY_FLOOR", "> self.ADOPT_SIMILARITY_FLOOR"),
    Mutant("adoption without its margin", AGENTS,
           "if adapted < baseline - 1e-9 * (1.0 + baseline):", "if adapted < baseline:"),
    Mutant("scorer without its clip", "src/adaptfly/oracle.py",
           "np.clip(prompted, 0.0, 1.0, out=prompted)", "pass"),
    Mutant("reload ignores the next_id line", "src/adaptfly/memory.py",
           "pool._next_id = max(pool._next_id, mark or 0)", "pass"),
    Mutant("warp step keeps the unwarped prompt", AGENTS, "self.prompt = warped", "pass"),
    Mutant("limited agent keeps a stale assembly", AGENTS,
           "self.prompt, self._adopted_ids, retrieved = adopted, ids, len(ids)",
           "self.prompt, self._adopted_ids, retrieved = "
           "self.prompt if adopted is None else adopted, ids, len(ids)"),
    Mutant("quiet step keeps any prompt unwarped", AGENTS,
           "if isinstance(self.prompt, TokenPrompt) and not shift:",
           "if self.prompt is not None and not shift:"),
    Mutant("mask on the negated map", AGENTS, "place_mask(umap,", "place_mask(-umap,"),
    Mutant("stale served text", "src/adaptfly/fleet/mec.py",
           "text = self._texts.get(entry)",
           "text = next((t for e, t in self._texts.items() "
           "if e.entry_id == entry.entry_id), None)"),
)

# Survivors that no test can kill, by name, with the reason they change
# no behaviour. Keep README's list of equivalent mutants in step.
EQUIVALENT: dict[str, str] = {}


def mutated(m: Mutant, text: str) -> str:
    """``text`` with the mutant's replacement; AssertionError unless it
    applies exactly once."""
    assert "\n" not in m.old + m.new and m.old != m.new, m.name
    count = text.count(m.old)
    assert count == 1, f"{m.name}: {m.old!r} occurs {count} times in {m.path}"
    return text.replace(m.old, m.new)


def killed(m: Mutant | None) -> str | None:
    """The first tier-1 test that fails on a copy of the tree carrying
    ``m`` (the unmutated tree for ``None``), or None if all pass.

    The copy's ``tests/test_mutants.py`` is left out of the run: it checks
    that every mutant applies to the tree it is in, so on a mutated copy it
    would fail for every mutant and hide the survivors."""
    with tempfile.TemporaryDirectory(prefix="adaptfly-mutant-") as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tmp / name, ignore=SKIPPED)
            else:
                shutil.copy2(ROOT / name, tmp / name)
        if m is not None:
            target = tmp / m.path
            target.write_text(mutated(m, target.read_text("utf-8")), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py"],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    name = "unmutated tree" if m is None else m.name
    if proc.returncode not in (0, 1):  # interrupted, internal error or no tests
        raise RuntimeError(f"{name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
    if proc.returncode == 0:
        return None
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0].split(" - ")[0] if failed else "a failing run"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    for m in chosen:  # fail before the first run if any mutant no longer applies
        mutated(m, (ROOT / m.path).read_text("utf-8"))
    broken = killed(None)  # a kill only counts if the copy passes without the mutant
    if broken:
        print(f"tier-1 fails on the unmutated copy ({broken}); no mutant can be judged",
              file=sys.stderr)
        return 2
    survivors = []
    for m in chosen:
        by = killed(m)
        if by:
            print(f"killed    {m.name} ({by})", flush=True)
        else:
            survivors.append(m.name)
            reason = EQUIVALENT.get(m.name)
            print(f"survived  {m.name}" + (f" (equivalent: {reason})" if reason else ""),
                  flush=True)
    unexplained = [n for n in survivors if n not in EQUIVALENT]
    print(f"{len(chosen) - len(survivors)} killed, {len(survivors)} survived, "
          f"{len(unexplained)} not known to be equivalent")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
