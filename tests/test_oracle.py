import dataclasses
import math

import numpy as np
import pytest

import adaptfly.oracle as oracle_mod

from adaptfly.drift import SIGMA_FLOOR, compute_stats
from adaptfly.errors import ConfigError, OracleError, StatsError
from adaptfly.oracle import (
    DomainSpec,
    OracleSpec,
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
    """The batched fitness equals the per-candidate entropy map exactly."""

    @pytest.mark.parametrize("shape", [(32, 32), (16, 24)])
    @pytest.mark.parametrize("population", [1, 2, 7, 16, 32])
    def test_equals_per_candidate_path(self, shape, population):
        h, w = shape
        oracle = make_toy_oracle(seed=3, height=h, width=w)
        rng = np.random.default_rng([population, h, w])
        domain = dataclasses.replace(random_domain_spec(rng, "d"), noise_scale=0.02)
        x = render_frame(oracle, domain, population)
        k = int(rng.integers(1, h * w // 4))
        coords = place_mask(rng.random(shape), k)
        # Offsets up to about +-2 push many prompted pixels past [0, 1].
        offsets = rng.normal(0.0, 0.7, size=(population, k, 3))
        batched = oracle.svp_scorer(x, coords)(offsets)
        reference = np.array([
            oracle.entropy_map(apply_svp(x, SparseVisualPrompt(coords, o, shape))).mean()
            for o in offsets
        ])
        assert batched.shape == (population,)
        assert np.all(batched == reference)

    def test_one_scorer_across_population_sizes(self, oracle):
        # The scorer reuses a tiled base map per population size: every row
        # must still equal a fresh per-candidate pass, whatever came before,
        # and a returned array is the caller's to change.
        rng = np.random.default_rng(11)
        domain = dataclasses.replace(random_domain_spec(rng, "d"), noise_scale=0.02)
        x = render_frame(oracle, domain, 3)
        coords = place_mask(rng.random(oracle.frame_shape), 30)
        score = oracle.svp_scorer(x, coords)
        for population in (16, 1, 16, 3):
            offsets = rng.normal(0.0, 0.7, size=(population, 30, 3))
            got = score(offsets)
            fresh = [
                oracle.entropy_map(apply_svp(x, SparseVisualPrompt(coords, o, oracle.frame_shape)))
                .mean() for o in offsets
            ]
            assert got.shape == (population,)
            assert all(g == f for g, f in zip(got.tolist(), fresh))
            got[:] = np.nan

    def test_given_base_map_scores_as_the_computed_one(self, oracle):
        rng = np.random.default_rng(5)
        x = render_frame(oracle, random_domain_spec(rng, "d"), 0)
        coords = place_mask(rng.random(oracle.frame_shape), 40)
        offsets = rng.normal(0.0, 0.5, size=(6, 40, 3))
        base = oracle.entropy_map(x)  # the massive agents' trigger map
        single = oracle.uncertainty_map(x, 1, 0.0, 0)
        assert np.array_equal(single, pixel_entropy(oracle.predict(x)))
        np.testing.assert_allclose(single, base, rtol=0, atol=1e-12)
        assert np.array_equal(oracle.svp_scorer(x, coords, base)(offsets),
                              oracle.svp_scorer(x, coords)(offsets))
        with pytest.raises(OracleError):
            oracle.svp_scorer(x, coords, base[:, :-1])

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

    def test_drawn_biases_lie_between_the_floor_and_0_3(self):
        rng = np.random.default_rng(0)
        specs = [random_domain_spec(rng, f"d{i}") for i in range(200)]
        magnitudes = np.abs([s.bias for s in specs])
        assert magnitudes.min() >= oracle_mod.MIN_SHIFT_BIAS and magnitudes.max() <= 0.3
        assert {s.noise_scale for s in specs} == {0.01}


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
        np.testing.assert_allclose(u, oracle.entropy_map(source), rtol=0, atol=1e-12)

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

    @pytest.mark.parametrize("settings, message", [
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"classes": 1}, "need at least two classes"),
        ({"stem_channels": 0}, "height, width, stem_channels and patch must be at least 1"),
        ({"height": 30}, "frame 30x32 must tile into 4x4 patches"),
        ({"temperature": -0.5}, "temperature must be positive, got -0.5"),
    ])
    def test_out_of_range_settings_name_their_range(self, settings, message):
        with pytest.raises(ConfigError) as err:
            OracleSpec(**settings)
        assert str(err.value) == message
        with pytest.raises(ConfigError, match=f"^{message}$"):
            make_toy_oracle(**{"seed": 0, **settings})

    def test_position_decay_is_a_constant_not_a_setting(self, oracle):
        """Prompt rows behind the first N mix in at POSITION_DECAY per block of N."""
        n = oracle.num_patches
        mix = oracle.prompt_mix(3 * n)
        for block in range(3):
            np.testing.assert_array_equal(
                mix[:, block * n:(block + 1) * n],
                oracle.prompt_mix_base * oracle_mod.POSITION_DECAY ** block,
            )
        with pytest.raises(TypeError):
            OracleSpec(position_decay=0.25)

    def test_domain_gain_positive(self):
        with pytest.raises(ConfigError):
            DomainSpec(id="bad", gain=(0.0, 1.0, 1.0))

    @pytest.mark.parametrize("domain", [
        {"gain": (np.nan, 1.0, 1.0)}, {"gain": (1.0, np.inf, 1.0)}, {"gain": (0.9, 0.8)},
        {"gain": (1.0, 1.0, 1.0, 1.0)}, {"gain": ("a", "b", "c")}, {"bias": (0.0, np.nan, 0.0)},
        {"bias": (0.0, 0.0, -np.inf)}, {"bias": (0.1,)}, {"noise_scale": np.nan},
        {"noise_scale": np.inf}, {"noise_scale": -0.1}, {"noise_scale": "0.01"},
        {"seed": 1.5}, {"seed": True}, {"seed": "3"}, {"seed": -1},
    ])
    def test_domain_spec_rejects_malformed_values(self, domain):
        # Three finite gain and bias components, a finite scale and an
        # integer seed, also when built in code rather than from a config.
        with pytest.raises(ConfigError):
            DomainSpec(id="bad", **domain)

    @pytest.mark.parametrize("argument, value", [
        ("seed", 7.0), ("seed", True), ("seed", "7"), ("classes", 5.0), ("height", 32.0),
        ("width", np.float64(32.0)), ("stem_channels", 8.5), ("patch", False),
        ("temperature", "x"), ("temperature", None), ("temperature", [0.08]),
        ("temperature", True),
    ])
    def test_mistyped_arguments_raise_config_error(self, argument, value):
        arguments = {"seed": 0, "classes": 5, "height": 32, "width": 32, "stem_channels": 8,
                     "patch": 4, "temperature": 0.08, argument: value}
        with pytest.raises(ConfigError, match=argument):
            OracleSpec(**arguments)
        with pytest.raises(ConfigError, match=argument):
            make_toy_oracle(**arguments)

    def test_numpy_integers_and_floats_are_accepted(self):
        assert make_toy_oracle(np.int64(7), temperature=np.float64(0.08)).seed == 7

    def test_all_classes_present_in_layout(self):
        for seed in range(5):
            o = make_toy_oracle(seed=seed)
            assert len(np.unique(o.layout)) == o.classes


def reference_pixel_entropy(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, -p * np.log(p), 0.0).sum(axis=0)


def reference_delta(oracle: ToyOracle, tp: TokenPrompt) -> np.ndarray:
    delta_tokens = oracle.prompt_mix(tp.rows) @ np.asarray(tp.values, np.float64)
    return oracle._unpatch(delta_tokens @ oracle.token_basis.T)


def reference_logits(oracle: ToyOracle, e: np.ndarray) -> np.ndarray:
    """The einsum logits the affine matmul replaced, shape (C, H, W)."""
    proj = np.einsum("ijc,kc->kij", e, oracle.prototypes)
    sq = np.sum(oracle.prototypes**2, axis=1)
    return (2.0 * proj - sq[:, None, None]) / oracle.temperature


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    ez = np.exp(logits - logits.max(axis=0, keepdims=True))
    return ez / ez.sum(axis=0, keepdims=True)


def reference_predict(oracle: ToyOracle, x: np.ndarray, tp: TokenPrompt | None = None):
    """The forward pass as fresh temporaries, prompt delta built on every call."""
    e = x if tp is None else x + reference_delta(oracle, tp)
    w = 2.0 * oracle.prototypes / oracle.temperature
    b = -np.sum(oracle.prototypes**2, axis=1, keepdims=True) / oracle.temperature
    logits = w @ e.reshape(-1, 3).T + b
    return reference_softmax(logits).reshape(oracle.classes, *oracle.frame_shape)


class TestForwardFastPaths:
    """The in-place and cached forward pass against the formulas it replaced."""

    def test_pixel_entropy_matches_the_where_formula(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.full(5, 0.3), size=(12, 9)).transpose(2, 0, 1).copy()
        p[:, 0, :] = 0.0
        p[1, 0, :] = 1.0                                    # one-hot rows
        p[:, 1, :3] = [[0.5], [0.5], [0.0], [0.0], [0.0]]   # exact zeros beside mass
        p[:, 2, 0] = 0.0                                    # an all-zero pixel
        p[:, 3, 0] = [1e-320, 0.0, 1.0, 0.0, 0.0]           # a subnormal
        got = pixel_entropy(p)
        assert np.array_equal(got, reference_pixel_entropy(p))
        assert not np.signbit(got).any()                    # +0.0, never -0.0
        assert np.array_equal(got[0], np.zeros(9))

    def test_pixel_entropy_of_every_one_hot_is_positive_zero(self):
        for c in range(4):
            h = pixel_entropy(np.eye(4)[:, c].reshape(4, 1, 1))
            assert h[0, 0] == 0.0 and not np.signbit(h[0, 0])

    @pytest.mark.parametrize("shape", [(32, 32, 3), (7, 51, 3), (1, 0, 3)])
    def test_in_place_logits_and_softmax_match_the_old_formulas(self, oracle, shape):
        # The affine matmul rounds differently from the einsum it replaced,
        # by a few ulps; the softmax equals the fresh one exactly.
        e = np.random.default_rng(len(shape) + shape[1]).uniform(-0.2, 1.2, size=shape)
        logits = oracle._logits(e)
        n = shape[0] * shape[1]
        assert logits.shape == (oracle.classes, max(n, 2) if n else 0)
        old = reference_logits(oracle, e).reshape(oracle.classes, -1)
        np.testing.assert_allclose(logits, old, rtol=1e-14, atol=1e-13)
        before = logits.copy()
        assert np.array_equal(oracle._softmax(logits), reference_softmax(before))
        assert np.array_equal(logits, before)   # the softmax leaves its input alone

    @pytest.mark.parametrize("seed", range(4))
    def test_entropy_map_matches_the_einsum_softmax_path(self, seed):
        # Entropy straight from the logits against einsum -> softmax ->
        # where-formula entropy: random, sharp and far-out frames, with
        # pixels whose logit spread underflows exp.
        oracle = make_toy_oracle(seed=seed, temperature=[0.08, 0.02, 0.002, 1e-4][seed])
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.5, 1.5, size=(oracle.height, oracle.width, 3))
        x[0] = oracle.base_image()[0]                       # pixels on their prototype
        got = oracle.entropy_map(x)
        expected = reference_pixel_entropy(reference_softmax(reference_logits(oracle, x)))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        assert not np.signbit(got).any()
        assert np.all(got <= math.log(oracle.classes) + 1e-12)

    def test_underflowing_logit_spread_gives_positive_zero(self):
        sharp = make_toy_oracle(seed=5, temperature=1e-4)
        logits = sharp._logits(sharp.base_image())
        spread = logits.max(axis=0) - np.sort(logits, axis=0)[-2]
        assert spread.min() > 745.0                         # exp(-spread) underflows to 0
        h = sharp.entropy_map(sharp.base_image())
        assert np.array_equal(h, np.zeros(sharp.frame_shape))
        assert not np.signbit(h).any()
        for c in range(sharp.classes):                      # every one-hot class
            one_hot = sharp.entropy_map(np.broadcast_to(sharp.prototypes[c], (32, 32, 3)))
            assert np.all(one_hot == 0.0) and not np.signbit(one_hot).any()

    def test_a_pixels_forward_does_not_depend_on_its_batch(self, oracle):
        # numpy hands a one-column product to gemv, which rounds unlike
        # gemm; a lone pixel goes down the batched path all the same.
        rng = np.random.default_rng(11)
        pixels = rng.uniform(-0.2, 1.2, size=(140, 3))
        logits = oracle._logits(pixels)
        entropy = oracle._entropy(logits.copy())
        for n in range(1, 71):
            start = int(rng.integers(0, 140 - n + 1))
            picked = rng.permutation(140)[:n]               # any pixels, any order
            for batch, index in ((pixels[start:start + n], slice(start, start + n)),
                                 (pixels[picked], picked)):
                z = oracle._logits(batch)
                assert np.array_equal(z[:, :n], logits[:, index]), n
                assert np.array_equal(oracle._entropy(z)[:n], entropy[index]), n

    def test_predict_matches_the_uncached_path(self, oracle):
        rng = np.random.default_rng(1)
        x = render_frame(oracle, random_domain_spec(rng, "d"), 0)
        assert np.array_equal(oracle.predict(x), reference_predict(oracle, x))
        seen_ids, reused = set(), 0
        for i in range(3 * oracle_mod.DELTA_CACHE_PROMPTS + 5):
            tp = TokenPrompt(rng.normal(scale=0.05, size=(1 + i % 5, oracle.token_dim)))
            reused += id(tp) in seen_ids   # a dead, evicted prompt's id handed out again
            seen_ids.add(id(tp))
            expected = reference_predict(oracle, x, tp)
            assert np.array_equal(oracle.predict(x, tp), expected)
            assert np.array_equal(oracle.predict(x, tp), expected)  # from the cache
            del tp
        assert reused
        assert len(oracle._deltas) <= oracle_mod.DELTA_CACHE_PROMPTS

    def test_delta_cache_stays_bounded_over_fresh_assemblies(self, oracle):
        rng = np.random.default_rng(2)
        x = render_frame(oracle, random_domain_spec(rng, "d"), 0)
        prompts = [TokenPrompt(rng.normal(scale=0.05, size=(4, oracle.token_dim)))
                   for _ in range(789)]
        for tp in prompts:
            oracle.predict(x, tp)
            assert len(oracle._deltas) <= oracle_mod.DELTA_CACHE_PROMPTS
        held = [tp for tp, _ in oracle._deltas.values()]
        assert held == prompts[-oracle_mod.DELTA_CACHE_PROMPTS:]  # least recent evicted

    def test_prompt_dim_checked_on_every_call(self, oracle, source):
        tp = TokenPrompt(np.zeros((2, oracle.token_dim + 1)))
        for _ in range(2):
            with pytest.raises(OracleError):
                oracle.predict(source, tp)


class TestMemoizedOracle:
    def test_equal_arguments_return_the_same_oracle(self):
        a = make_toy_oracle(7)
        assert make_toy_oracle(seed=7) is a
        assert make_toy_oracle(7, classes=5, height=32, width=32, stem_channels=8, patch=4,
                               temperature=0.08) is a
        # the spec holds a real setting as a float, so 1 and 1.0 are one oracle
        assert make_toy_oracle(7, temperature=1) is make_toy_oracle(7, temperature=1.0)
        assert make_toy_oracle(7, classes=4) is not a
        assert make_toy_oracle(8) is not a

    def test_invalid_arguments_raise_and_are_not_cached(self):
        before = oracle_mod._build_toy_oracle.cache_info()
        for kwargs in ({"seed": -1}, {"seed": 0, "classes": 1},
                       {"seed": 0, "height": 30}, {"seed": 0, "temperature": 0.0}):
            with pytest.raises(ConfigError):
                make_toy_oracle(**kwargs)
        after = oracle_mod._build_toy_oracle.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)

    def test_cache_is_bounded(self):
        for seed in range(100, 100 + 2 * oracle_mod.ORACLE_CACHE_SIZE):
            make_toy_oracle(seed=seed, height=8, width=8)
        assert oracle_mod._build_toy_oracle.cache_info().currsize <= oracle_mod.ORACLE_CACHE_SIZE

    def test_every_array_refuses_writes(self):
        oracle = make_toy_oracle(seed=7)
        tp = TokenPrompt(np.full((2, oracle.token_dim), 0.01))
        oracle.predict(oracle.base_image(), tp)
        arrays = {f.name: getattr(oracle, f.name) for f in dataclasses.fields(oracle)
                  if isinstance(getattr(oracle, f.name), np.ndarray)}
        assert len(arrays) == 7
        arrays.update(base_image=oracle.base_image(), shifted=oracle.base_image((1, 2)),
                      source_anchor=oracle.source_anchor(),
                      affine_w=oracle._affine[0], affine_b=oracle._affine[1],
                      delta=oracle._deltas[id(tp)][1])
        for name, a in arrays.items():
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a.flat[0] = 0
