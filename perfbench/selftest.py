"""Fast self-test of the benchmark: tiny workloads and corrupted outputs.

    python3 perfbench/selftest.py

Runs every workload at its smallest size and requires its checks to pass,
then feeds each check a deliberately corrupted output (a permuted
retrieval, a tampered frame header, a perturbed fitness, ...) and requires
it to be rejected. Exits 1 if anything is not as expected.
"""

import os
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

run.import_library()

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, Reference  # noqa: E402
from adaptfly.fleet import MecServer, ProvenanceLog, Query, StreamClient, encode_message  # noqa: E402

RESULTS = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))


def tiny_rounds() -> dict:
    """One checked round of each workload at its smallest size."""
    rounds = {}
    for name, cls in WORKLOADS.items():
        t0 = time.perf_counter()
        w = cls(tiny=True)
        w.prepare(3)
        st = w.setup(3)
        w.warmup(st)
        rnd = w.round(st, check=True)
        again = w.round(st, check=False)
        expect(f"{name}: checks pass at tiny size ({time.perf_counter() - t0:.1f}s)",
               not rnd.failures and rnd.ops > 0, "; ".join(rnd.failures[:3]))
        expect(f"{name}: a second round repeats the checked one", again.digest == rnd.digest)
        rounds[name] = (w, st, rnd)
    return rounds


def corrupted_fitness(rnd) -> None:
    searches = rnd.extra["searches"]
    expect("searches: recorded fitness matches own entropy", not checks.check_searches(searches))
    oracle, x, coords, result = searches[0]
    bumped = replace(result, best_fitness=result.best_fitness + 1e-6)
    expect("searches: perturbed fitness rejected",
           bool(checks.check_searches([(oracle, x, coords, bumped)])))
    worse = replace(result, best_fitness=result.baseline_fitness + 1.0)
    expect("searches: fitness above baseline rejected",
           bool(checks.check_searches([(oracle, x, coords, worse)])))


def corrupted_adaptation(rnd, config) -> None:
    records = rnd.extra["results"][0].records
    limited = [a["id"] for a in config["agents"] if a["kind"] == "limited"]
    shifted = [d["id"] for d in config["domains"] if d["id"] != "base"]
    expect("adaptation: recorded entropies pass",
           not checks.check_adaptation(records, limited, shifted))
    flat = [replace(r, mean_entropy=1.0) for r in records]
    expect("adaptation: flat entropy after adoption rejected",
           bool(checks.check_adaptation(flat, limited, shifted)))


def corrupted_frames() -> None:
    frame = encode_message(Query(query=(0.6, 0.8), n=2, request_id=7))
    reader = checks.FrameReader()
    reader.feed(1, frame[:5])
    reader.feed(1, frame[5:])
    expect("frames: a split frame parses", not reader.finish(len(frame)))

    longer = (len(frame) - 3).to_bytes(4, "big") + frame[4:]
    reader = checks.FrameReader()
    reader.feed(1, longer)
    expect("frames: header claiming more bytes rejected", bool(reader.finish(len(frame))))

    shorter = (len(frame) - 5).to_bytes(4, "big") + frame[4:]
    reader = checks.FrameReader()
    reader.feed(1, shorter)
    expect("frames: header claiming fewer bytes rejected", bool(reader.finish(len(frame))))

    reader = checks.FrameReader()
    reader.feed(1, frame)
    expect("frames: byte total disagreeing with the clients rejected",
           bool(reader.finish(len(frame) + 1)))


def corrupted_retrieval(w, st) -> None:
    pool = w.load_pool(st)
    server = MecServer(pool, st["oracle"], w.distill, ProvenanceLog())
    client = StreamClient(server)
    msg = next(m for kind, m, _ in st["ops"] if kind == "query")
    reply = client.request(msg).entries
    refined = pool.entries()[: pool.refined_size]
    expect("retrieval: reply matches brute force",
           not checks.check_reply(refined, msg.query, msg.n, reply))
    expect("retrieval: permuted reply rejected",
           bool(checks.check_reply(refined, msg.query, msg.n, tuple(reversed(reply)))))
    other = [e for e in refined if e.entry_id not in {d["entry_id"] for d in reply}][0]
    swapped = (reply[0], other.to_dict())
    expect("retrieval: reply with a lower-ranked entry rejected",
           bool(checks.check_reply(refined, msg.query, msg.n, swapped)))
    expect("capacity: overfull pool rejected", bool(checks.check_capacity(5, 0, 4)))
    expect("capacity: pending left after a tick rejected", bool(checks.check_capacity(3, 1, 4)))


def corrupted_resolution(w, st) -> None:
    from adaptfly.distill import closed_form_solution, distill_iterative, distill_objective

    oracle, n = st["oracle"], w.distill.frames
    frames, svp = next(iter(st["provenance"].values()))
    good = distill_iterative(oracle, frames, svp, w.distill).values

    def objective(fr, s, v):
        return distill_objective(oracle, fr[:n], s, v)

    def closed(fr, s, rows):
        return closed_form_solution(oracle, fr[:n], s, rows)

    expect("resolution: distilled prompt near the closed form",
           not checks.check_resolution(objective, closed, frames, svp, w.distill.rows, good))
    bad = np.asarray(good, dtype=np.float64) * 0.5
    expect("resolution: halved prompt rejected",
           bool(checks.check_resolution(objective, closed, frames, svp, w.distill.rows, bad)))


def main() -> int:
    rounds = tiny_rounds()
    _, ref_st, ref_rnd = rounds[Reference.name]
    corrupted_fitness(ref_rnd)
    corrupted_adaptation(ref_rnd, ref_st["configs"][0])
    corrupted_frames()
    w, st, _ = rounds["pool_service"]
    corrupted_retrieval(w, st)
    corrupted_resolution(w, st)
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed}/{len(RESULTS)} self-test checks as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
