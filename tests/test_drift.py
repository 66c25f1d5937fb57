import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptfly.drift import (
    SIGMA_FLOOR,
    ActivationStats,
    DriftTracker,
    calibrate_threshold,
    compute_stats,
    detect,
    divergence,
    ema_update,
    kl_gaussian,
    reset_reference,
)
from adaptfly.errors import CalibrationError, ConfigError, StatsError


class TestComputeStats:
    def test_constant_channel_floored_std(self):
        stats = compute_stats(np.full((3, 4, 4), 2.5))
        np.testing.assert_allclose(stats.means, 2.5)
        np.testing.assert_allclose(stats.stds, SIGMA_FLOOR)

    def test_population_std(self):
        features = np.array([[[0.0, 2.0]]])  # one channel, values {0, 2}
        stats = compute_stats(features)
        assert stats.means[0] == 1.0
        assert stats.stds[0] == 1.0

    def test_output_length_matches_channels(self):
        stats = compute_stats(np.random.default_rng(0).normal(size=(11, 5, 7)))
        assert len(stats) == 11

    def test_empty_features_rejected(self):
        with pytest.raises(StatsError):
            compute_stats(np.zeros((3, 0)))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(StatsError):
            ActivationStats(np.zeros(3), np.ones(4))


class TestEmaUpdate:
    def _tracker(self, lam):
        t = DriftTracker(smoothing=lam, threshold=1.0, warmup=0)
        t.ema = ActivationStats(np.zeros(2), np.ones(2))
        return t

    def test_lambda_one_replaces(self):
        t = self._tracker(1.0)
        stats = ActivationStats(np.array([3.0, 4.0]), np.array([2.0, 2.0]))
        ema_update(t, stats)
        np.testing.assert_array_equal(t.ema.means, stats.means)

    def test_lambda_zero_keeps(self):
        t = self._tracker(0.0)
        ema_update(t, ActivationStats(np.array([3.0, 4.0]), np.array([2.0, 2.0])))
        np.testing.assert_array_equal(t.ema.means, np.zeros(2))

    def test_partial_blend(self):
        t = self._tracker(0.1)
        ema_update(t, ActivationStats(np.array([10.0, 10.0]), np.ones(2)))
        np.testing.assert_allclose(t.ema.means, [1.0, 1.0])

    def test_geometric_convergence(self):
        t = self._tracker(0.25)
        target = ActivationStats(np.array([1.0, 1.0]), np.ones(2))
        gaps = []
        for _ in range(10):
            ema_update(t, target)
            gaps.append(abs(t.ema.means[0] - 1.0))
        for before, after in zip(gaps, gaps[1:]):
            assert math.isclose(after, before * 0.75, rel_tol=1e-9) or after == 0.0

    def test_blend_is_built_as_the_constructor_builds_it(self):
        rng = np.random.default_rng(4)
        t = self._tracker(0.1)
        # The last channel sits on the floor in both, so the blend can round below it.
        t.ema = ActivationStats(rng.normal(size=8), np.r_[rng.uniform(0.5, 2.0, 7), SIGMA_FLOOR])
        stats = ActivationStats(rng.normal(size=8), np.r_[rng.uniform(0.5, 2.0, 7), SIGMA_FLOOR])
        old = t.ema
        ema_update(t, stats)
        expected = ActivationStats(0.1 * stats.means + 0.9 * old.means,
                                   0.1 * stats.stds + 0.9 * old.stds)
        assert np.array_equal(t.ema.means, expected.means)
        assert np.array_equal(t.ema.stds, expected.stds)
        assert t.ema.stds[7] >= SIGMA_FLOOR
        assert not (t.ema.means.flags.writeable or t.ema.stds.flags.writeable)


class TestKlGaussian:
    def test_identical_simplified_is_half(self):
        assert kl_gaussian((0.3, 1.7), (0.3, 1.7), "simplified") == 0.5

    def test_identical_standard_is_zero(self):
        assert abs(kl_gaussian((0.3, 1.7), (0.3, 1.7), "standard")) < 1e-15

    def test_simplified_reference_value(self):
        assert kl_gaussian((0.0, 1.0), (1.0, 2.0), "simplified") == 0.25

    def test_standard_closed_form(self):
        got = kl_gaussian((0.0, 1.0), (1.0, 2.0), "standard")
        expected = math.log(2.0) + 0.25 - 0.5
        assert math.isclose(got, expected, rel_tol=1e-12)

    def test_floored_sigma_rejected(self):
        with pytest.raises(StatsError):
            kl_gaussian((0.0, 0.0), (0.0, 1.0), "standard")


class TestDivergence:
    def test_identical_simplified_is_one(self):
        stats = ActivationStats(np.array([0.1, -0.5]), np.array([1.0, 2.0]))
        assert divergence(stats, stats, "simplified") == 1.0

    def test_identical_standard_is_zero(self):
        stats = ActivationStats(np.array([0.1, -0.5]), np.array([1.0, 2.0]))
        assert abs(divergence(stats, stats, "standard")) < 1e-15

    def test_single_channel_reference(self):
        a = ActivationStats(np.array([0.0]), np.array([1.0]))
        b = ActivationStats(np.array([1.0]), np.array([2.0]))
        assert divergence(a, b, "simplified") == 2.75

    def test_matches_per_channel_kl_sum(self):
        rng = np.random.default_rng(0)
        a = ActivationStats(rng.normal(size=4), rng.uniform(0.5, 2, 4))
        b = ActivationStats(rng.normal(size=4), rng.uniform(0.5, 2, 4))
        for variant in ("standard", "simplified"):
            manual = np.mean(
                [
                    kl_gaussian((a.means[i], a.stds[i]), (b.means[i], b.stds[i]), variant)
                    + kl_gaussian((b.means[i], b.stds[i]), (a.means[i], a.stds[i]), variant)
                    for i in range(4)
                ]
            )
            assert math.isclose(divergence(a, b, variant), manual, rel_tol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_floors(self, seed):
        rng = np.random.default_rng(seed)
        a = ActivationStats(rng.normal(size=3), rng.uniform(0.1, 3, 3))
        b = ActivationStats(rng.normal(size=3), rng.uniform(0.1, 3, 3))
        for variant, floor in (("standard", 0.0), ("simplified", 1.0)):
            d_ab = divergence(a, b, variant)
            d_ba = divergence(b, a, variant)
            assert math.isclose(d_ab, d_ba, rel_tol=1e-10)
            assert d_ab >= floor - 1e-12

    @staticmethod
    def _exact_standard(a, b) -> Fraction:
        """The standard score in exact rational arithmetic on the stored floats."""
        total = Fraction(0)
        for ma, sa, mb, sb in zip(a.means, a.stds, b.means, b.stds):
            ma, sa, mb, sb = map(Fraction, (float(ma), float(sa), float(mb), float(sb)))
            va, vb = sa * sa, sb * sb
            total += ((va - vb) ** 2 + (ma - mb) ** 2 * (va + vb)) / (2 * va * vb)
        return total / len(a)

    def test_standard_matches_exact_rationals_from_1e_8_to_10(self):
        rng = np.random.default_rng(12)
        scores = []
        for target in np.geomspace(1e-8, 10.0, 60):
            step = math.sqrt(target / 3.0)
            a = ActivationStats(rng.normal(scale=3.0, size=8), rng.uniform(0.05, 2.0, 8))
            b = ActivationStats(a.means + step * a.stds * rng.normal(size=8),
                                a.stds * np.exp(step * rng.normal(size=8)))
            exact = self._exact_standard(a, b)
            got = divergence(a, b, "standard")
            assert abs(Fraction(got) - exact) <= Fraction(1, 10**13) * exact
            scores.append(got)
        assert min(scores) < 1e-7 and max(scores) > 5.0

    def test_length_mismatch(self):
        with pytest.raises(StatsError):
            divergence(
                ActivationStats(np.zeros(2), np.ones(2)),
                ActivationStats(np.zeros(3), np.ones(3)),
            )


def _stats_pairs():
    """Two stat summaries of one length, means in +-1e6 and stds from the
    floor to 1e6, with the floored ones kept."""
    def summary(n):
        means = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
        stds = st.lists(st.one_of(st.just(SIGMA_FLOOR), st.floats(0.0, 1e6)),
                        min_size=n, max_size=n)
        return st.builds(ActivationStats, means, stds)

    return st.integers(1, 16).flatmap(lambda n: st.tuples(summary(n), summary(n)))


class TestFastPathFormulas:
    """divergence and ema_update equal their docstring formulas bit for bit."""

    @given(_stats_pairs())
    @settings(deadline=None)
    def test_divergence_equals_the_formulas(self, pair):
        a, b = pair
        sa, sb, ma, mb = a.stds, b.stds, a.means, b.means
        va, vb = sa**2, sb**2
        dv = (sa - sb) * (sa + sb)
        dm = ma - mb
        standard = (dv * dv + dm * dm * (va + vb)) / (2.0 * va * vb)
        simplified = ((sa**2 + (ma - mb) ** 2) / (2.0 * sb**2)
                      + (sb**2 + (mb - ma) ** 2) / (2.0 * sa**2))
        assert divergence(a, b, "standard") == float(standard.mean())
        assert divergence(a, b, "simplified") == float(simplified.mean())
        assert not (a.means.flags.writeable or a.stds.flags.writeable)

    @given(_stats_pairs(), st.floats(0.0, 1.0))
    @settings(deadline=None)
    def test_ema_update_equals_the_formula(self, pair, lam):
        old, new = pair
        tracker = DriftTracker(smoothing=lam, warmup=0, ema=old)
        ema_update(tracker, new)
        expected = ActivationStats(lam * new.means + (1.0 - lam) * old.means,
                                   lam * new.stds + (1.0 - lam) * old.stds)
        assert np.array_equal(tracker.ema.means, expected.means)
        assert np.array_equal(tracker.ema.stds, expected.stds)
        assert not (tracker.ema.means.flags.writeable or tracker.ema.stds.flags.writeable)


class TestStatsOwnTheirVectors:
    def test_constructor_copies_the_callers_arrays(self):
        m, s = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, 2.0])
        stats = ActivationStats(m, s)
        m[0], s[0] = 99.0, 99.0
        assert stats.means.tolist() == [1.0, 2.0, 3.0]
        assert stats.stds.tolist() == [0.5, SIGMA_FLOOR, 2.0]
        assert not (stats.means.flags.writeable or stats.stds.flags.writeable)

    def test_the_floor_never_writes_into_the_callers_arrays(self):
        s = np.array([[0.0, 1e-9], [3.0, -1.0]])
        grid = np.zeros((2, 2))
        stats = ActivationStats(grid, s)
        assert s.tolist() == [[0.0, 1e-9], [3.0, -1.0]] and grid.flags.writeable
        assert stats.stds.tolist() == [SIGMA_FLOOR, SIGMA_FLOOR, 3.0, SIGMA_FLOOR]
        tracker = DriftTracker(smoothing=0.5, warmup=0)
        ema_update(tracker, stats)
        ema_update(tracker, ActivationStats(np.ones(4), np.zeros(4)))
        assert stats.stds.tolist() == [SIGMA_FLOOR, SIGMA_FLOOR, 3.0, SIGMA_FLOOR]
        assert s.tolist() == [[0.0, 1e-9], [3.0, -1.0]]


def synthetic_stream(n_frames, channels=8, seed=0, shift_at=None, shift_size=0.0):
    """Per-frame activation stats with optional mean shift injection."""
    rng = np.random.default_rng(seed)
    base_mean = rng.uniform(-1, 1, channels)
    base_std = rng.uniform(0.5, 1.5, channels)
    jitter = 0.02 * base_std
    frames = []
    for t in range(n_frames):
        means = base_mean + jitter * rng.standard_normal(channels)
        stds = base_std * (1 + 0.01 * rng.standard_normal(channels))
        if shift_at is not None and t >= shift_at:
            means = means + shift_size
        frames.append(ActivationStats(means, stds))
    return frames


class TestTrackerSettings:
    @pytest.mark.parametrize("settings, named", [
        ({"threshold": math.nan}, "threshold"),
        ({"threshold": 0.0}, "threshold"),
        ({"warmup": -1}, "warmup"),
        ({"smoothing": 1.5}, "smoothing"),
        ({"smoothing": math.nan}, "smoothing"),
    ])
    def test_out_of_range_setting_is_a_config_error(self, settings, named):
        with pytest.raises(ConfigError, match=named):
            DriftTracker(**{"smoothing": 0.1, "warmup": 0, **settings})

    @pytest.mark.parametrize("settings, named", [
        ({"smoothing": "0.1"}, "smoothing"),
        ({"threshold": None}, "threshold"),
        ({"warmup": 2.5}, "warmup"),
        ({"warmup": True}, "warmup"),
    ])
    def test_setting_of_another_kind_is_a_config_error(self, settings, named):
        with pytest.raises(ConfigError, match=named):
            DriftTracker(**{"smoothing": 0.1, "warmup": 3, **settings})

    def test_the_divergence_is_not_a_setting(self):
        """The detector scores with the standard symmetric KL."""
        with pytest.raises(TypeError, match="kl_variant"):
            DriftTracker(smoothing=0.1, warmup=3, kl_variant="standard")


class TestDetect:
    def test_score_exactly_at_threshold_does_not_fire(self):
        frames = synthetic_stream(30, seed=3)
        probe = DriftTracker(smoothing=0.1, threshold=1.0, warmup=5)
        scores = [detect(probe, f)[1] for f in frames]
        target = scores[20]
        assert target > 0
        tracker = DriftTracker(smoothing=0.1, threshold=target, warmup=5)
        for f in frames[:20]:
            detect(tracker, f)
        shift, score, _ = detect(tracker, frames[20])
        assert score == target
        assert shift is False

    def test_warmup_reports_no_shift_and_zero_score(self):
        tracker = DriftTracker(smoothing=0.1, threshold=1e-12, warmup=4)
        for f in synthetic_stream(4, seed=1):
            shift, score, _ = detect(tracker, f)
            assert shift is False and score == 0.0

    def test_detection_precedes_ema_update(self):
        # A massive shift is flagged on the frame that carries it even
        # though the EMA then absorbs that frame.
        tracker = DriftTracker(smoothing=1.0, threshold=0.5, warmup=1)
        quiet = ActivationStats(np.zeros(2), np.ones(2))
        loud = ActivationStats(np.full(2, 50.0), np.ones(2))
        detect(tracker, quiet)
        shift, score, _ = detect(tracker, loud)
        assert shift is True and score > 0.5

    def test_synthetic_stream_detection_latency_and_fpr(self):
        channels, warmup = 8, 10
        clean = synthetic_stream(1000, channels, seed=42)
        jitter = 0.02 * np.mean([f.stds.mean() for f in clean])
        # calibration pass over the clean stream
        cal = DriftTracker(smoothing=0.1, threshold=1.0, warmup=warmup)
        cal_scores = [detect(cal, f)[1] for f in clean[:500]][warmup:]
        z = calibrate_threshold(cal_scores, 0.99)

        pooled_std = np.mean(
            np.std([f.means for f in clean[:500]], axis=0)
        )
        shifted = synthetic_stream(1000, channels, seed=42, shift_at=500,
                                   shift_size=5 * pooled_std)
        tracker = DriftTracker(smoothing=0.1, threshold=z, warmup=warmup)
        flags = [detect(tracker, f)[0] for f in shifted]
        false_positives = sum(flags[:500])
        assert false_positives / 500 <= 0.01
        first = next(i for i, f in enumerate(flags) if f and i >= 500)
        assert first <= 502
        assert jitter > 0  # stream sanity

    def test_clean_stream_false_positive_rate_over_1000_frames(self):
        warmup = 10
        clean = synthetic_stream(1000, seed=17)
        cal = DriftTracker(smoothing=0.1, threshold=1.0, warmup=warmup)
        scores = [detect(cal, f)[1] for f in clean][warmup:]
        z = calibrate_threshold(scores, 0.99)
        tracker = DriftTracker(smoothing=0.1, threshold=z, warmup=warmup)
        flags = [detect(tracker, f)[0] for f in clean]
        assert sum(flags) / len(flags) <= 0.01

    def test_reset_reference_restarts_settling(self):
        frames = synthetic_stream(40, seed=5)
        tracker = DriftTracker(smoothing=0.1, threshold=1e-12, warmup=5)
        for f in frames[:20]:
            detect(tracker, f)
        reset_reference(tracker, frames[20])
        assert tracker.frames_seen == 0
        shift, score, _ = detect(tracker, frames[21])
        assert shift is False and score == 0.0


class TestCalibration:
    def test_constant_scores(self):
        assert calibrate_threshold([3.0] * 40, 0.99) == 3.0

    def test_linear_interpolation_reference(self):
        scores = list(range(1, 101))
        assert math.isclose(calibrate_threshold(scores, 0.99), 99.01, rel_tol=1e-12)

    def test_too_few_scores(self):
        with pytest.raises(CalibrationError):
            calibrate_threshold(list(range(10)), 0.99)

    @pytest.mark.parametrize("quantile", [0.0, -0.1, 1.5, math.nan])
    def test_quantile_outside_unit_interval_is_a_config_error(self, quantile):
        with pytest.raises(ConfigError, match=r"^quantile must lie in \(0, 1\], got "):
            calibrate_threshold([3.0] * 40, quantile)
        assert calibrate_threshold(list(range(40)), 1.0) == 39.0
