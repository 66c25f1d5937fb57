"""Convert a pixel-space prompt into a token prompt by feature matching.

The teacher representation is the encoder output of the prompt-corrected
frame; the student is the encoder output of a token-prompt-prefixed
sequence. Gradient descent on the squared feature discrepancy recovers a
token prompt whose effect transfers to other frames of the same domain,
and a closed-form least-squares solution verifies the optimum.
"""

import numpy as np

from adaptfly.distill import (
    DistillConfig,
    closed_form_solution,
    distill_closed_form,
    distill_iterative,
    distill_objective,
    entry_size_bytes,
)
from adaptfly.oracle import DomainSpec, make_toy_oracle, mean_entropy, render_frame
from adaptfly.prompts import apply_svp, place_mask
from adaptfly.oracle import planted_correction

oracle = make_toy_oracle(seed=7)
domain = DomainSpec(id="dusk", gain=(0.8, 0.78, 0.85), bias=(-0.2, 0.15, 0.1),
                    noise_scale=0.01, seed=21)
frames = [render_frame(oracle, domain, i) for i in range(5)]

# The sparse prompt being distilled: the planted correction at the most
# uncertain pixels of the first frame.
umap = oracle.entropy_map(frames[0])
coords = place_mask(umap, 51)
svp = planted_correction(oracle, domain, 0, coords)

print("sparse prompt:", svp.size, "pixels")
print(f"frame entropy without prompt: {mean_entropy(oracle.predict(frames[0])):.4f}")
print(f"frame entropy with pixel fix : "
      f"{mean_entropy(oracle.predict(apply_svp(frames[0], svp))):.4f}")

for rows in (8, oracle.num_patches):
    cfg = DistillConfig(rows=rows, steps=8, frames=5, precision="f32")
    student = distill_iterative(oracle, frames, svp, cfg)
    f_iter = distill_objective(oracle, frames, svp,
                               np.asarray(student.values, dtype=np.float64))
    f_closed = distill_objective(oracle, frames, svp,
                                 closed_form_solution(oracle, frames, svp, rows))
    print(f"\nrows={rows:3d}: objective iterative {f_iter:.6e} vs closed form "
          f"{f_closed:.6e}")
    # Transfer test: apply the distilled prompt to a fresh same-domain frame.
    fresh = render_frame(oracle, domain, 99)
    h0 = mean_entropy(oracle.predict(fresh))
    h1 = mean_entropy(oracle.predict(fresh, student))
    print(f"          transfer to unseen frame: {h0:.4f} -> {h1:.4f} nats")

full = distill_closed_form(oracle, frames, svp, rows=oracle.num_patches)
print(f"\nstored entry sizes: f32 {entry_size_bytes(full, 'f32')} B, "
      f"f16 {entry_size_bytes(full, 'f16')} B (matrix + 40 B metadata)")
