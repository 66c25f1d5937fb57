"""Cross-format knowledge consolidation: sparse prompt to token prompt.

A sparse visual prompt optimized on one agent's frames is converted into a
token prompt by minimizing the squared discrepancy between encoder
features of the prompt-prefixed token sequence (student) and features of
the pixel-corrected image (teacher), averaged over a handful of frames
from the same domain window.

The oracle's prompt path is affine (``prompt_mix`` and
``feature_projection``), so the objective is an exact least-squares
problem: a closed-form minimizer computed from the normal equations serves
as the verification oracle for the iterative minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CompositionError, ConfigError, DistillError, check_fields
from .prompts import _DTYPES, SparseVisualPrompt, TokenPrompt, apply_svp, compose_tokens

__all__ = [
    "DistillConfig",
    "teacher_features",
    "distill_objective",
    "distill_iterative",
    "distill_closed_form",
    "closed_form_solution",
    "entry_size_bytes",
    "prompt_data_bytes",
    "METADATA_OVERHEAD_BYTES",
]

TIKHONOV_DAMPING = 1e-8

# Fixed serialized-entry overhead besides the raw prompt matrix: entry id,
# timestamp and last-retrieved step (8 bytes each), rows, dim, dtype code
# and flags (4 bytes each).
METADATA_OVERHEAD_BYTES = 40


def _bytes_per_value(precision: str) -> int:
    """Item size of a token prompt storage precision; ConfigError for another name."""
    if precision not in _DTYPES:
        raise ConfigError(f"precision must be one of {sorted(_DTYPES)}")
    return np.dtype(_DTYPES[precision]).itemsize


@dataclass(frozen=True)
class DistillConfig:
    """Distillation knobs.

    ``frames`` caps how many frames of the domain window contribute to the
    averaged objective.
    """

    rows: int = 8
    steps: int = 8
    frames: int = 5
    precision: str = "f16"

    def __post_init__(self):
        check_fields(self)
        if self.rows < 1:
            raise ConfigError("token prompt needs at least one row")
        if self.steps < 1:
            raise ConfigError("distillation needs at least one step")
        if self.frames < 1:
            raise ConfigError("distillation needs at least one frame")
        _bytes_per_value(self.precision)


def teacher_features(oracle, x: np.ndarray, svp: SparseVisualPrompt) -> np.ndarray:
    """Encoder features of the pixel-corrected frame. Pure and stateless."""
    return oracle.encode_image(apply_svp(x, svp))


def distill_objective(
    oracle, frames: list[np.ndarray], svp: SparseVisualPrompt, values: np.ndarray
) -> float:
    """Mean squared feature discrepancy of a candidate prompt over frames."""
    total = 0.0
    for x in frames:
        student = oracle.encode_tokens(compose_tokens(TokenPrompt(values), oracle.tokenize(x)))
        total += float(np.sum((student - teacher_features(oracle, x, svp)) ** 2))
    value = total / len(frames)
    if not math.isfinite(value):
        raise DistillError("distillation objective is non-finite")
    return value


def _frame_features(oracle, frames, svp, projection) -> tuple[list, np.ndarray]:
    """Each frame's (tokens, teacher features), built once per frame, and the
    mean of the (teacher - unprompted student) feature gaps across frames."""
    features = [(oracle.tokenize(x), teacher_features(oracle, x, svp)) for x in frames]
    if not features:
        raise ConfigError("distillation needs at least one frame")
    return features, np.mean([f - t @ projection for t, f in features], axis=0)


def distill_iterative(
    oracle, frames: list[np.ndarray], svp: SparseVisualPrompt, config: DistillConfig
) -> TokenPrompt:
    """Gradient-descent distillation starting from the all-zero prompt.

    Runs ``config.steps`` descent iterations on the frame-averaged
    objective with the analytic gradient and an exact line search (the
    objective is quadratic), so it is non-increasing per step. Each frame
    is encoded once: its tokens and teacher features serve the gap, the
    descent and the closing check that the objective is finite at the f32
    values. Raises DistillError if it is not, if any step overflows, or if
    the values overflow the configured storage precision, in which the
    prompt is returned.
    """
    mix, projection = oracle.prompt_mix(config.rows), oracle.feature_projection
    mix_t2, projection_t = 2.0 * mix.T, projection.T
    try:
        with np.errstate(over="raise", invalid="raise"):
            features, gap = _frame_features(oracle, list(frames)[: config.frames], svp, projection)
            values = np.zeros((config.rows, gap.shape[1]))
            for _ in range(config.steps):
                residual = mix @ values @ projection - gap
                grad = mix_t2 @ residual @ projection_t
                curv = 2.0 * float(np.sum((mix @ grad @ projection) ** 2))
                if curv <= 0.0:
                    break
                values = values - (float(np.sum(grad**2)) / curv) * grad
            shift = mix @ values.astype(np.float32)  # the values TokenPrompt(values) stores
            total = sum(float(np.sum(((t + shift) @ projection - f) ** 2)) for t, f in features)
    except FloatingPointError:  # an overflow, or inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise DistillError("distillation objective is non-finite")
    try:
        return TokenPrompt(values, dtype=config.precision)
    except CompositionError:
        raise DistillError(f"distilled prompt is non-finite in {config.precision}") from None


def closed_form_solution(
    oracle, frames: list[np.ndarray], svp: SparseVisualPrompt, rows: int
) -> np.ndarray:
    """Exact damped least-squares minimizer of the distillation objective.

    Solves the normal equations of the affine objective with Tikhonov
    damping, so rank deficiency never fails. Full float64 precision.
    Raises DistillError if the solution is non-finite or any step
    overflows.
    """
    mix, projection = oracle.prompt_mix(rows), oracle.feature_projection
    solution = None
    try:
        with np.errstate(over="raise", invalid="raise"):
            gap = _frame_features(oracle, frames, svp, projection)[1]
            lhs_rows = mix.T @ mix + TIKHONOV_DAMPING * np.eye(rows)
            lhs_cols = projection @ projection.T + TIKHONOV_DAMPING * np.eye(projection.shape[0])
            rhs = mix.T @ gap @ projection.T
            solution = np.linalg.solve(lhs_rows, np.linalg.solve(lhs_cols.T, rhs.T).T)
    except FloatingPointError:  # an overflow, or inf - inf
        pass
    if solution is None or not np.isfinite(solution).all():
        raise DistillError("closed-form distillation is non-finite")
    return solution


def distill_closed_form(oracle, frames: list[np.ndarray], svp: SparseVisualPrompt,
                        rows: int) -> TokenPrompt:
    """Closed-form counterpart of distill_iterative (verification oracle), in f32."""
    return TokenPrompt(closed_form_solution(oracle, frames, svp, rows))


def prompt_data_bytes(prompt: TokenPrompt, precision: str | None = None) -> int:
    """Raw matrix payload size at the given (or stored) precision."""
    return prompt.rows * prompt.dim * _bytes_per_value(precision or prompt.dtype)


def entry_size_bytes(prompt: TokenPrompt, precision: str | None = None) -> int:
    """Serialized pool-entry size: matrix payload plus fixed metadata."""
    return prompt_data_bytes(prompt, precision) + METADATA_OVERHEAD_BYTES
