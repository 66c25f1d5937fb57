"""Grow-and-refine lifecycle of the shared prompt pool.

Three agents upload prompts for two appearance domains. Pending entries
stay invisible until a consolidation pass merges near-duplicate keys with
EMA weighting; retrieval then assembles the top matches in descending
similarity order. Finally the pool is pushed over capacity to show
least-recently-used eviction: every insert and every query ticks the
pool's one recency clock.
"""

import numpy as np

from adaptfly.memory import PoolConfig, PromptPool, assemble
from adaptfly.prompts import TokenPrompt

rng = np.random.default_rng(3)
pool = PromptPool(PoolConfig(capacity=3, merge_threshold=0.95, merge_weight=0.3))

dusk_key = rng.normal(size=8)
fog_key = rng.normal(size=8)

print("== grow phase ==")
pool.insert(dusk_key, TokenPrompt(np.full((2, 4), 1.0)), timestamp=0, agent_id="uav-h1",
            domain_tag="dusk")
pool.insert(dusk_key + rng.normal(scale=0.01, size=8),
            TokenPrompt(np.full((2, 4), 2.0)), timestamp=1, agent_id="uav-h2",
            domain_tag="dusk")
pool.insert(fog_key, TokenPrompt(np.full((2, 4), 5.0)), timestamp=2, agent_id="uav-h1",
            domain_tag="fog")
print(f"inserted 3 entries; pending={pool.pending_size}, refined={pool.refined_size}")
print("queries before consolidation see:",
      [e.entry_id for e in pool.query_topn(dusk_key, n=3)])

print("\n== refine phase ==")
pool.refine()
print(f"after refine: {pool.refined_size} refined entries")
for e in pool.entries():
    print(f"  entry {e.entry_id}: domain={e.domain_tag} contributors={e.agent_id} "
          f"value mean={float(np.mean(e.value.values)):.2f}")
print("(the two dusk uploads merged: value = 0.7*first + 0.3*second)")

print("\n== retrieval ==")
hits = pool.query_topn(dusk_key, n=2)
print("top-2 for a dusk query:", [(e.entry_id, e.domain_tag) for e in hits])
assembled = assemble(hits)
print(f"assembled prompt: {assembled.rows} rows x {assembled.dim} dims "
      f"(most similar entry first)")

print("\n== eviction ==")
for i in range(3):
    pool.insert(rng.normal(size=8), TokenPrompt(np.full((2, 4), 9.0)),
                timestamp=20 + i, agent_id="uav-h3")
pool.refine()
print(f"capacity {pool.config.capacity}; surviving entries:",
      [(e.entry_id, e.domain_tag) for e in pool.entries()])
print("(the least recently used entries were evicted first)")
