import warnings

import numpy as np
import pytest

from adaptfly.distill import (
    METADATA_OVERHEAD_BYTES,
    DistillConfig,
    closed_form_solution,
    distill_closed_form,
    distill_iterative,
    distill_objective,
    entry_size_bytes,
    prompt_data_bytes,
    teacher_features,
)
from adaptfly.errors import ConfigError, DistillError
from adaptfly.oracle import DomainSpec, make_toy_oracle, render_frame
from adaptfly.prompts import SparseVisualPrompt, TokenPrompt, place_mask


@pytest.fixture(scope="module")
def oracle():
    return make_toy_oracle(seed=7)


@pytest.fixture(scope="module")
def problem(oracle):
    domain = DomainSpec(id="d", gain=(0.8, 0.78, 0.85), bias=(-0.2, 0.15, 0.1),
                        noise_scale=0.01, seed=21)
    frames = [render_frame(oracle, domain, i) for i in range(3)]
    umap = oracle.uncertainty_map(frames[0], passes=4, dropout_rate=0.1, seed=2)
    coords = place_mask(umap, 40)
    rng = np.random.default_rng(5)
    svp = SparseVisualPrompt(coords, rng.normal(scale=0.2, size=(40, 3)),
                             oracle.frame_shape)
    return frames, svp


@pytest.fixture(scope="module")
def five_frames(oracle):
    domain = DomainSpec(id="d", gain=(0.8, 0.78, 0.85), bias=(-0.2, 0.15, 0.1),
                        noise_scale=0.01, seed=21)
    return [render_frame(oracle, domain, i) for i in range(5)]


def _first_gap(oracle, frames, svp, projection):
    """The frame-averaged feature gap as first written: teacher and tokens per frame."""
    gaps = [
        teacher_features(oracle, x, svp) - oracle.tokenize(x) @ projection
        for x in frames
    ]
    return np.mean(gaps, axis=0)


def _first_iterative(oracle, frames, svp, config):
    """distill_iterative as first written, each frame encoded up to three times."""
    frames = list(frames)[: config.frames]
    dim = oracle.tokenize(frames[0]).shape[1]
    values = np.zeros((config.rows, dim))
    mix, projection = oracle.prompt_mix(config.rows), oracle.feature_projection
    gap = _first_gap(oracle, frames, svp, projection)
    for _ in range(config.steps):
        residual = mix @ values @ projection - gap
        grad = 2.0 * mix.T @ residual @ projection.T
        curv = 2.0 * float(np.sum((mix @ grad @ projection) ** 2))
        if curv <= 0.0:
            break
        values = values - (float(np.sum(grad**2)) / curv) * grad
    distill_objective(oracle, frames, svp, values)  # finiteness check
    return TokenPrompt(values, dtype=config.precision)


def _first_closed_form(oracle, frames, svp, rows):
    """closed_form_solution as first written."""
    mix, projection = oracle.prompt_mix(rows), oracle.feature_projection
    gap = _first_gap(oracle, list(frames), svp, projection)
    lhs_rows = mix.T @ mix + 1e-8 * np.eye(rows)
    lhs_cols = projection @ projection.T + 1e-8 * np.eye(projection.shape[0])
    rhs = mix.T @ gap @ projection.T
    return np.linalg.solve(lhs_rows, np.linalg.solve(lhs_cols.T, rhs.T).T)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOneFeaturePass:
    """Each frame encoded once gives the bits of the per-use encodings."""

    @pytest.mark.parametrize("rows", [1, 4, 64])
    @pytest.mark.parametrize("frames", [1, 3, 5])
    @pytest.mark.parametrize("steps", [1, 8])
    @pytest.mark.parametrize("precision", ["f32", "f16"])
    @pytest.mark.parametrize("zero_prompt", [False, True])
    def test_iterative_matches_the_first_formula(
        self, oracle, problem, five_frames, rows, frames, steps, precision, zero_prompt
    ):
        svp = problem[1]
        if zero_prompt:
            svp = SparseVisualPrompt.zeros(svp.coords, oracle.frame_shape)
        config = DistillConfig(rows=rows, steps=steps, frames=frames, precision=precision)
        got = distill_iterative(oracle, five_frames, svp, config)
        want = _first_iterative(oracle, five_frames, svp, config)
        assert got.dtype == want.dtype == precision
        assert _same_bits(got.values, want.values)

    @pytest.mark.parametrize("rows", [1, 4, 64])
    @pytest.mark.parametrize("frames", [1, 3, 5])
    def test_closed_form_matches_the_first_formula(
        self, oracle, problem, five_frames, rows, frames
    ):
        svp = problem[1]
        got = closed_form_solution(oracle, five_frames[:frames], svp, rows)
        assert _same_bits(got, _first_closed_form(oracle, five_frames[:frames], svp, rows))

    def test_frames_may_be_any_iterable(self, oracle, problem, five_frames):
        svp = problem[1]
        config = DistillConfig(rows=4, frames=3)
        assert distill_iterative(oracle, iter(five_frames), svp, config) == distill_iterative(
            oracle, five_frames, svp, config
        )
        assert _same_bits(closed_form_solution(oracle, iter(five_frames), svp, 4),
                          closed_form_solution(oracle, five_frames, svp, 4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e50, 1e150, 1e200])
    @pytest.mark.parametrize("position", [0, 1])
    def test_non_finite_or_overflowing_frame_is_a_distill_error(
        self, oracle, problem, five_frames, value, position
    ):
        frames = list(five_frames[:3])
        frames[position] = np.full_like(frames[position], value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DistillError, match="non-finite"):
                distill_iterative(oracle, frames, problem[1], DistillConfig(rows=4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 1])
    def test_closed_form_of_a_non_finite_frame_is_a_distill_error(
        self, oracle, problem, five_frames, value, position
    ):
        frames = list(five_frames[:3])
        frames[position] = np.full_like(frames[position], value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DistillError, match="non-finite"):
                closed_form_solution(oracle, frames, problem[1], 4)

    @pytest.mark.parametrize("position", [0, 1])
    def test_prompt_beyond_its_storage_precision_is_a_distill_error(
        self, oracle, problem, five_frames, position
    ):
        # The f32 objective is finite, but the values overflow f16.
        frames = list(five_frames[:3])
        frames[position] = np.full_like(frames[position], 1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert distill_iterative(oracle, frames, problem[1],
                                     DistillConfig(rows=4, precision="f32")).dtype == "f32"
            with pytest.raises(DistillError, match="non-finite in f16"):
                distill_iterative(oracle, frames, problem[1], DistillConfig(rows=4))

    def test_no_frame_is_a_config_error(self, oracle, problem):
        with pytest.raises(ConfigError, match="at least one frame"):
            distill_iterative(oracle, [], problem[1], DistillConfig())
        with pytest.raises(ConfigError, match="at least one frame"):
            closed_form_solution(oracle, [], problem[1], 4)


class TestTeacherFeatures:
    def test_zero_svp_equals_encode_image(self, oracle, problem):
        frames, _ = problem
        empty = SparseVisualPrompt.zeros(np.zeros((0, 2), dtype=np.int64),
                                         oracle.frame_shape)
        got = teacher_features(oracle, frames[0], empty)
        assert np.array_equal(got, oracle.encode_image(frames[0]))

    def test_matches_direct_affine_evaluation(self, oracle, problem):
        frames, svp = problem
        from adaptfly.prompts import apply_svp
        expected = oracle.tokenize(apply_svp(frames[0], svp)) @ oracle.feature_projection
        np.testing.assert_allclose(teacher_features(oracle, frames[0], svp),
                                   expected, atol=1e-12)

    def test_deterministic(self, oracle, problem):
        frames, svp = problem
        a = teacher_features(oracle, frames[0], svp)
        b = teacher_features(oracle, frames[0], svp)
        assert np.array_equal(a, b)


class TestIterative:
    def test_zero_svp_keeps_prompt_near_zero(self, oracle, problem):
        frames, _ = problem
        empty = SparseVisualPrompt.zeros(np.zeros((0, 2), dtype=np.int64),
                                         oracle.frame_shape)
        cfg = DistillConfig(rows=8, steps=8, precision="f32")
        prompt = distill_iterative(oracle, frames, empty, cfg)
        assert float(np.linalg.norm(prompt.values)) < 1e-3

    def test_reaches_closed_form_objective(self, oracle, problem):
        frames, svp = problem
        cfg = DistillConfig(rows=8, steps=8, precision="f32")
        iterative = distill_iterative(oracle, frames, svp, cfg)
        closed = distill_closed_form(oracle, frames, svp, rows=8)
        f_iter = distill_objective(oracle, frames, svp,
                                   np.asarray(iterative.values, dtype=np.float64))
        f_closed = distill_objective(oracle, frames, svp,
                                     np.asarray(closed.values, dtype=np.float64))
        assert f_iter <= f_closed * (1 + 1e-3) + 1e-12

    def test_objective_non_increasing_per_step(self, oracle, problem):
        frames, svp = problem
        values = []
        for steps in range(1, 6):
            cfg = DistillConfig(rows=4, steps=steps, precision="f32")
            p = distill_iterative(oracle, frames[:1], svp, cfg)
            values.append(distill_objective(oracle, frames[:1], svp,
                                            np.asarray(p.values, dtype=np.float64)))
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DistillConfig(steps=0)
        with pytest.raises(ConfigError):
            DistillConfig(rows=0)
        with pytest.raises(ConfigError):
            DistillConfig(precision="f64")

    def test_returns_configured_precision(self, oracle, problem):
        frames, svp = problem
        p16 = distill_iterative(oracle, frames, svp, DistillConfig(rows=4, precision="f16"))
        assert p16.dtype == "f16" and p16.values.dtype == np.float16


class TestClosedForm:
    def test_zero_svp_gives_zero_prompt(self, oracle, problem):
        frames, _ = problem
        empty = SparseVisualPrompt.zeros(np.zeros((0, 2), dtype=np.int64),
                                         oracle.frame_shape)
        solution = closed_form_solution(oracle, frames, empty, rows=8)
        assert float(np.abs(solution).max()) < 1e-6

    def test_satisfies_damped_normal_equations(self, oracle, problem):
        frames, svp = problem
        rows = 8
        solution = closed_form_solution(oracle, frames, svp, rows)
        mix = oracle.prompt_mix(rows)
        proj = oracle.feature_projection
        gaps = [teacher_features(oracle, x, svp) - oracle.tokenize(x) @ proj for x in frames]
        gap = np.mean(gaps, axis=0)
        lam = 1e-8
        lhs = (mix.T @ mix + lam * np.eye(rows)) @ solution @ (
            proj @ proj.T + lam * np.eye(proj.shape[0])
        )
        rhs = mix.T @ gap @ proj.T
        residual = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300)
        assert residual < 1e-8

    def test_full_rank_exact_transfer(self, oracle, problem):
        # With one prompt row per patch token the correction is recovered
        # exactly: the distilled prompt reproduces the teacher features.
        frames, svp = problem
        rows = oracle.num_patches
        solution = closed_form_solution(oracle, frames[:1], svp, rows)
        student = oracle.encode_tokens(
            np.vstack([solution, oracle.tokenize(frames[0])])
        )
        np.testing.assert_allclose(student, teacher_features(oracle, frames[0], svp),
                                   atol=1e-6)

    def test_objective_not_above_iterative(self, oracle, problem):
        frames, svp = problem
        for rows in (4, 8):
            cfg = DistillConfig(rows=rows, steps=8, precision="f32")
            f_iter = distill_objective(
                oracle, frames, svp,
                np.asarray(distill_iterative(oracle, frames, svp, cfg).values, dtype=np.float64),
            )
            f_closed = distill_objective(
                oracle, frames, svp, closed_form_solution(oracle, frames, svp, rows)
            )
            assert f_closed <= f_iter + 1e-9 * (1 + f_iter)


class TestEntrySizes:
    def test_reference_f32_payload(self):
        p = TokenPrompt.zeros(8, 768)
        assert prompt_data_bytes(p, "f32") == 24576
        assert entry_size_bytes(p, "f32") == 24576 + METADATA_OVERHEAD_BYTES

    def test_reference_f16_payload(self):
        p = TokenPrompt.zeros(8, 768)
        assert prompt_data_bytes(p, "f16") == 12288

    def test_empty_prompt_metadata_only(self):
        p = TokenPrompt(np.zeros((0, 4)))
        assert entry_size_bytes(p) == METADATA_OVERHEAD_BYTES

    def test_uses_stored_precision_by_default(self):
        p = TokenPrompt.zeros(2, 4, dtype="f16")
        assert prompt_data_bytes(p) == 2 * 4 * 2

    def test_f32_serialization_round_trip_bit_exact(self, oracle, problem):
        frames, svp = problem
        prompt = distill_iterative(oracle, frames, svp,
                                   DistillConfig(rows=8, precision="f32"))
        restored = TokenPrompt.from_dict(prompt.to_dict())
        assert restored == prompt
        assert np.array_equal(restored.values, prompt.values)
