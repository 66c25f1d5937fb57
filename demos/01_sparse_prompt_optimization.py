"""Walk through gradient-free sparse-prompt adaptation on a single frame.

A synthetic scene is rendered under a channel-wise appearance shift, the
most uncertain pixels are located on the frame's entropy map, as a massive
agent places its mask, and the additive RGB offsets at those pixels are
optimized to minimize mean prediction entropy -- once with each update
mode: full covariance matrix adaptation, its diagonal (separable) form
that massive agents run, and the literal elite estimation-of-distribution
update.
"""

from adaptfly.cmaes import MODES, CmaConfig, optimize_svp
from adaptfly.oracle import (
    DomainSpec,
    make_toy_oracle,
    mean_entropy,
    planted_correction,
    render_frame,
)
from adaptfly.prompts import apply_svp, place_mask, sparsity_budget

oracle = make_toy_oracle(seed=7)
domain = DomainSpec(
    id="dusk",
    gain=(0.75, 0.8, 0.72),
    bias=(-0.15, 0.12, -0.1),
    noise_scale=0.01,
    seed=4,
)

source = oracle.base_image()
frame = render_frame(oracle, domain, frame_index=0)
print(f"source-domain mean entropy : {mean_entropy(oracle.predict(source)):.4f} nats")
print(f"shifted-domain mean entropy: {mean_entropy(oracle.predict(frame)):.4f} nats")

# Step 1: uncertainty-aware placement.
umap = oracle.entropy_map(frame)
budget = sparsity_budget(0.05, *oracle.frame_shape)
coords = place_mask(umap, budget)
rows, cols = coords.T
print(f"\nprompt budget: {budget} pixels ({100 * budget / umap.size:.1f}% of the frame)")

# Step 2: entropy-driven offset search, every update mode.
for mode in MODES:
    config = CmaConfig(
        dimension=3 * budget, population=16, elite=4, generations=30,
        sigma0=0.3, mode=mode, seed=1,
    )
    result = optimize_svp(oracle, frame, coords, config)
    gain = 100 * (result.baseline_fitness - result.best_fitness) / result.baseline_fitness
    print(
        f"{mode:9s}: {result.baseline_fitness:.4f} -> {result.best_fitness:.4f} nats "
        f"({gain:+.2f}%) in {result.evaluations} evaluations"
    )
    print(
        f"           masked-pixel entropy with prompt: "
        f"{oracle.entropy_map(apply_svp(frame, result.prompt))[rows, cols].mean():.4f}"
    )

# Reference: the planted correction restores the shifted pixels exactly.
planted = planted_correction(oracle, domain, 0, coords)
print(
    f"\nplanted optimum at the same pixels: "
    f"{mean_entropy(oracle.predict(apply_svp(frame, planted))):.4f} nats "
    f"(masked: {oracle.entropy_map(apply_svp(frame, planted))[rows, cols].mean():.4f})"
)
