import math

import numpy as np
import pytest

from adaptfly.drift import SIGMA_FLOOR, compute_stats
from adaptfly.errors import ConfigError, OracleError, StatsError
from adaptfly.oracle import (
    DomainSpec,
    ToyOracle,
    make_toy_oracle,
    mean_entropy,
    pixel_entropy,
    planted_correction,
    random_domain_spec,
    render_frame,
)
from adaptfly.prompts import (
    SparseVisualPrompt,
    TokenPrompt,
    apply_svp,
    compose_tokens,
    place_mask,
)


@pytest.fixture(scope="module")
def oracle() -> ToyOracle:
    return make_toy_oracle(seed=7)


@pytest.fixture(scope="module")
def source(oracle):
    return oracle.base_image()


def brute_force_probs(oracle: ToyOracle, x: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over Gaussian-classifier logits, pure Python."""
    h, w = oracle.frame_shape
    out = np.zeros((oracle.classes, h, w))
    for r in range(h):
        for c in range(w):
            logits = []
            for proto in oracle.prototypes:
                logits.append(
                    (2 * float(proto @ x[r, c]) - float(proto @ proto))
                    / oracle.temperature
                )
            logits = np.array(logits)
            e = np.exp(logits - logits.max())
            out[:, r, c] = e / e.sum()
    return out


class TestPredict:
    def test_source_argmax_is_planted_layout(self, oracle, source):
        probs = oracle.predict(source)
        np.testing.assert_array_equal(probs.argmax(axis=0), oracle.layout)

    def test_matches_brute_force_per_pixel(self, oracle):
        small = make_toy_oracle(seed=3, height=8, width=8, patch=4)
        x = render_frame(small, DomainSpec(id="d", gain=(0.8, 0.9, 0.7),
                                           bias=(0.1, -0.1, 0.05)), 0)
        np.testing.assert_allclose(
            small.predict(x), brute_force_probs(small, x), atol=1e-12
        )

    def test_probabilities_sum_to_one(self, oracle):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.random((oracle.height, oracle.width, 3))
            sums = oracle.predict(x).sum(axis=0)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_shifted_entropy_exceeds_source(self, oracle, source):
        shifted = render_frame(
            oracle, DomainSpec(id="s", gain=(0.8, 0.78, 0.85),
                               bias=(-0.2, 0.15, 0.1), noise_scale=0.01, seed=1), 0
        )
        assert mean_entropy(oracle.predict(shifted)) > mean_entropy(oracle.predict(source))

    def test_shape_check(self, oracle):
        with pytest.raises(OracleError):
            oracle.predict(np.zeros((4, 4, 3)))


class TestMeanEntropy:
    def test_uniform_distribution_is_log_c(self):
        out = np.full((7, 4, 4), 1.0 / 7.0)
        assert math.isclose(mean_entropy(out), math.log(7), rel_tol=1e-12)

    def test_one_hot_is_zero(self):
        out = np.zeros((5, 3, 3))
        out[2] = 1.0
        assert mean_entropy(out) == 0.0

    def test_half_uniform_half_one_hot(self):
        # 2 classes: left half uniform, right half one-hot -> ln(2)/2
        out = np.zeros((2, 2, 2))
        out[:, :, 0] = 0.5
        out[0, :, 1] = 1.0
        assert math.isclose(mean_entropy(out), math.log(2) / 2, rel_tol=1e-12)

    def test_bounds(self, oracle):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.random((oracle.height, oracle.width, 3))
            h = mean_entropy(oracle.predict(x))
            assert 0.0 <= h <= math.log(oracle.classes) + 1e-12


class TestSvpEntropies:
    """The batched fitness equals the per-candidate predict path exactly."""

    @pytest.mark.parametrize("shape", [(32, 32), (16, 24)])
    @pytest.mark.parametrize("population", [1, 2, 7, 16, 32])
    def test_equals_per_candidate_path(self, shape, population):
        h, w = shape
        oracle = make_toy_oracle(seed=3, height=h, width=w)
        rng = np.random.default_rng([population, h, w])
        domain = random_domain_spec(rng, "d", noise_scale=0.02)
        x = render_frame(oracle, domain, population)
        k = int(rng.integers(1, h * w // 4))
        coords = place_mask(rng.random(shape), k)
        # Offsets up to about +-2 push many prompted pixels past [0, 1].
        offsets = rng.normal(0.0, 0.7, size=(population, k, 3))
        batched = oracle.svp_scorer(x, coords)(offsets)
        reference = np.array([
            mean_entropy(oracle.predict(apply_svp(x, SparseVisualPrompt(coords, o, shape))))
            for o in offsets
        ])
        assert batched.shape == (population,)
        assert np.all(batched == reference)

    def test_offsets_shape_checked(self, oracle, source):
        score = oracle.svp_scorer(source, np.array([[0, 0], [1, 1]]))
        with pytest.raises(OracleError):
            score(np.zeros((4, 3, 3)))
        with pytest.raises(OracleError):
            score(np.zeros((2, 3)))


class TestPlantedShiftMonotonicity:
    def test_100_random_domain_specs(self):
        # Documented floor: bias magnitude >= MIN_SHIFT_BIAS per channel,
        # gains in [0.6, 0.95]. Holds even before additive noise.
        oracle = make_toy_oracle(seed=11)
        h_src = mean_entropy(oracle.predict(oracle.base_image()))
        rng = np.random.default_rng(123)
        for i in range(100):
            spec = random_domain_spec(rng, f"d{i}")
            h_shift = mean_entropy(oracle.predict(render_frame(oracle, spec, 0)))
            assert h_shift > h_src

    def test_floor_is_enforced(self):
        with pytest.raises(ConfigError):
            random_domain_spec(np.random.default_rng(0), "x", bias_floor=0.01)


class TestStochasticForward:
    def test_rate_zero_reproduces_predict_exactly(self, oracle, source):
        a = oracle.predict(source)
        b = oracle.stochastic_forward(source, 0.0, seed=999)
        assert np.array_equal(a, b)

    def test_deterministic_per_seed(self, oracle, source):
        a = oracle.stochastic_forward(source, 0.5, seed=4)
        b = oracle.stochastic_forward(source, 0.5, seed=4)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, oracle, source):
        a = oracle.stochastic_forward(source, 0.5, seed=1)
        b = oracle.stochastic_forward(source, 0.5, seed=2)
        assert not np.array_equal(a, b)

    def test_rate_validation(self, oracle, source):
        with pytest.raises(ConfigError):
            oracle.stochastic_forward(source, 1.0, seed=0)
        with pytest.raises(ConfigError):
            oracle.stochastic_forward(source, -0.1, seed=0)


class TestUncertaintyMap:
    def test_single_pass_rate_zero_equals_prediction_entropy(self, oracle, source):
        u = oracle.uncertainty_map(source, passes=1, dropout_rate=0.0, seed=0)
        np.testing.assert_array_equal(u, pixel_entropy(oracle.predict(source)))

    def test_near_one_hot_predictions_give_near_zero_map(self):
        sharp = make_toy_oracle(seed=5, temperature=0.002)
        u = sharp.uncertainty_map(sharp.base_image(), passes=1, dropout_rate=0.0, seed=0)
        assert u.max() < 1e-6

    def test_multi_pass_equals_enumerated_average(self, oracle, source):
        passes, rate, seed = 16, 0.3, 77
        acc = np.zeros((oracle.classes, oracle.height, oracle.width))
        for i in range(passes):
            acc += oracle.stochastic_forward(source, rate, seed * 1009 + i)
        expected = pixel_entropy(acc / passes)
        got = oracle.uncertainty_map(source, passes=passes, dropout_rate=rate, seed=seed)
        np.testing.assert_array_equal(got, expected)
        single = oracle.uncertainty_map(source, passes=1, dropout_rate=rate, seed=seed)
        assert not np.array_equal(got, single)

    def test_needs_at_least_one_pass(self, oracle, source):
        with pytest.raises(ConfigError):
            oracle.uncertainty_map(source, passes=0, dropout_rate=0.1, seed=0)


class TestEncoders:
    def test_zero_prompt_matches_encode_image_exactly(self, oracle, source):
        z = compose_tokens(TokenPrompt.zeros(8, oracle.token_dim), oracle.tokenize(source))
        assert np.array_equal(oracle.encode_tokens(z), oracle.encode_image(source))

    @pytest.mark.parametrize("dtype", ["f32", "f16"])
    @pytest.mark.parametrize("rows", [1, 5, 64, 130])
    def test_effective_image_equals_the_composed_sequence_formula(self, oracle, source,
                                                                  dtype, rows):
        # Reference: the prompt rows sliced back out of the prompt-prefixed
        # token sequence, as encode_tokens sees them.
        values = np.random.default_rng(rows).normal(scale=0.05, size=(rows, oracle.token_dim))
        tp = TokenPrompt(values, dtype=dtype)
        z = compose_tokens(tp, oracle.tokenize(source))
        delta_tokens = oracle.prompt_mix(tp.rows) @ z[: tp.rows]
        expected = source + oracle._unpatch(delta_tokens @ oracle.token_basis.T)
        assert np.array_equal(oracle.effective_image(source, tp), expected)

    def test_token_geometry(self, oracle, source):
        z = oracle.tokenize(source)
        assert z.shape == (oracle.num_patches, oracle.token_dim)
        feats = oracle.encode_image(source)
        assert feats.shape == (oracle.num_patches, oracle.token_dim)

    def test_short_sequence_rejected(self, oracle):
        with pytest.raises(OracleError):
            oracle.encode_tokens(np.zeros((3, oracle.token_dim)))

    def test_query_embedding_unit_norm_and_separation(self, oracle):
        d1 = DomainSpec(id="a", gain=(0.8, 0.78, 0.85), bias=(-0.2, 0.15, 0.1),
                        noise_scale=0.01, seed=1)
        d2 = DomainSpec(id="b", gain=(0.7, 0.9, 0.65), bias=(0.15, -0.2, -0.1),
                        noise_scale=0.01, seed=2)
        q1 = oracle.query_embedding(render_frame(oracle, d1, 0))
        q1b = oracle.query_embedding(render_frame(oracle, d1, 5))
        q2 = oracle.query_embedding(render_frame(oracle, d2, 0))
        assert math.isclose(np.linalg.norm(q1), 1.0, rel_tol=1e-9)
        assert float(q1 @ q1b) > 0.99
        assert float(q1 @ q2) < 0.9


class TestSceneRendering:
    def test_render_deterministic(self, oracle):
        d = DomainSpec(id="d", gain=(0.9, 0.9, 0.9), bias=(0.05, 0, 0),
                       noise_scale=0.02, seed=3)
        assert np.array_equal(render_frame(oracle, d, 4), render_frame(oracle, d, 4))
        assert not np.array_equal(render_frame(oracle, d, 4), render_frame(oracle, d, 5))

    def test_rendered_frames_stay_in_unit_interval(self, oracle):
        d = DomainSpec(id="d", gain=(1.5, 1.5, 1.5), bias=(0.4, 0.4, 0.4),
                       noise_scale=0.1, seed=3)
        x = render_frame(oracle, d, 0)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_planted_correction_restores_source_entropy(self, oracle):
        d = DomainSpec(id="d", gain=(0.8, 0.78, 0.85), bias=(-0.2, 0.15, 0.1),
                       noise_scale=0.01, seed=9)
        frame = render_frame(oracle, d, 2)
        u = oracle.uncertainty_map(frame, passes=4, dropout_rate=0.1, seed=5)
        coords = place_mask(u, 51)
        corrected = apply_svp(frame, planted_correction(oracle, d, 2, coords))
        r, c = coords[:, 0], coords[:, 1]
        ent_corrected = pixel_entropy(oracle.predict(corrected))[r, c]
        ent_source = pixel_entropy(oracle.predict(oracle.base_image()))[r, c]
        np.testing.assert_allclose(ent_corrected, ent_source, atol=1e-3)
        # strictly reduces entropy at the prompted pixels
        ent_shifted = pixel_entropy(oracle.predict(frame))[r, c]
        assert ent_corrected.mean() < ent_shifted.mean()

    @pytest.mark.parametrize("domain, offset", [
        (DomainSpec(id="shifted", gain=(0.8, 0.78, 0.85), bias=(-0.2, 0.15, 0.1),
                    noise_scale=0.01, seed=9), (3, -5)),
        (DomainSpec(id="noiseless", gain=(0.7, 0.9, 0.6), bias=(0.1, -0.05, 0.2)), (0, 0)),
        (DomainSpec(id="noiseless-moved", gain=(0.7, 0.9, 0.6), bias=(0.1, -0.05, 0.2)),
         (-7, 40)),
        (DomainSpec(id="clipped", gain=(1.5, 0.6, 1.2), bias=(0.4, -0.5, 0.05),
                    noise_scale=0.1, seed=3), (1, 2)),
    ], ids=lambda v: v.id if isinstance(v, DomainSpec) else str(v))
    def test_render_equals_the_reference_formula(self, oracle, domain, offset):
        index = 2**64 + 11  # reduced mod 2**63 for the noise stream
        base = np.roll(oracle.prototypes[oracle.layout], offset, axis=(0, 1))
        gain, bias = np.asarray(domain.gain), np.asarray(domain.bias)
        z = np.random.default_rng([domain.seed, index % 2**63]).standard_normal(base.shape)
        unclipped = gain * base + bias + domain.noise_scale * z
        x = render_frame(oracle, domain, index, offset)
        assert np.array_equal(x, np.clip(unclipped, 0.0, 1.0))
        assert x.flags.writeable
        if domain.id == "clipped":
            assert (unclipped > 1.0).any() and (unclipped < 0.0).any()

    def test_base_image_is_read_only_and_untouched_by_render(self, oracle):
        base = oracle.base_image()
        assert base is oracle.base_image()
        before = base.copy()
        for offset in ((0, 0), (2, 3)):
            with pytest.raises(ValueError):
                oracle.base_image(offset)[0, 0, 0] = 0.5
        render_frame(oracle, DomainSpec(id="d", gain=(2.0, 2.0, 2.0), bias=(0.1, 0, 0),
                                        noise_scale=0.5, seed=1), 0)
        assert np.array_equal(base, before)
        assert np.array_equal(base, oracle.prototypes[oracle.layout])

    def test_token_prompt_moves_effective_pixels(self, oracle, source):
        rng = np.random.default_rng(13)
        tp = TokenPrompt(rng.normal(scale=0.05, size=(8, oracle.token_dim)))
        assert not np.array_equal(oracle.predict(source, tp), oracle.predict(source))


class TestStemStats:
    """stem_stats against its brute-force reference, compute_stats(stem_features)."""

    @staticmethod
    def _assert_matches(oracle, x):
        fast = oracle.stem_stats(x)
        reference = compute_stats(oracle.stem_features(x))
        np.testing.assert_allclose(fast.means, reference.means, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(fast.stds, reference.stds, rtol=1e-12, atol=1e-12)
        return fast

    @pytest.mark.parametrize("channels", [1, 2, 3, 5, 8, 16])
    @pytest.mark.parametrize("height, width", [(32, 32), (16, 24), (24, 8)])
    def test_random_frames(self, channels, height, width):
        oracle = make_toy_oracle(seed=channels, height=height, width=width,
                                 stem_channels=channels)
        rng = np.random.default_rng(channels * 100 + height)
        for _ in range(5):
            stats = self._assert_matches(oracle, rng.random((height, width, 3)))
            assert len(stats) == channels

    def test_rendered_frames(self, oracle):
        for i in range(10):
            domain = random_domain_spec(np.random.default_rng(i), f"d{i}")
            self._assert_matches(oracle, render_frame(oracle, domain, i, offset=(i, -i)))
        self._assert_matches(oracle, oracle.base_image())

    @pytest.mark.parametrize("value", [0.0, 0.37, 1.0])
    def test_constant_frames_floor_the_std(self, value):
        oracle = make_toy_oracle(seed=3, height=16, width=24, stem_channels=16)
        stats = self._assert_matches(oracle, np.full((16, 24, 3), value))
        assert np.all(stats.stds == SIGMA_FLOOR)

    def test_non_finite_frame_rejected(self, oracle, source):
        x = source.copy()
        x[3, 4, 1] = np.nan
        with pytest.raises(StatsError):
            oracle.stem_stats(x)

    def test_shape_check(self, oracle):
        with pytest.raises(OracleError):
            oracle.stem_stats(np.zeros((oracle.height, oracle.width + 4, 3)))


class TestConstructionValidation:
    def test_frame_must_tile_into_patches(self):
        with pytest.raises(ConfigError):
            make_toy_oracle(seed=0, height=30, width=32, patch=4)

    def test_needs_two_classes(self):
        with pytest.raises(ConfigError):
            make_toy_oracle(seed=0, classes=1)

    def test_domain_gain_positive(self):
        with pytest.raises(ConfigError):
            DomainSpec(id="bad", gain=(0.0, 1.0, 1.0))

    def test_all_classes_present_in_layout(self):
        for seed in range(5):
            o = make_toy_oracle(seed=seed)
            assert len(np.unique(o.layout)) == o.classes
