"""Online domain-shift detection from activation statistics.

Each frame is summarized by per-channel (mean, std) pairs of early-layer
features. A tracker keeps an exponential moving average of these
statistics and flags a shift whenever the symmetric Gaussian KL divergence
between the incoming frame and the average exceeds a threshold.

Two KL variants are available. The detector uses "standard", the full
closed form for univariate Gaussians, which scores identical distributions
as 0. "simplified" drops the log-variance and constant terms, scoring
identical distributions as 0.5 per direction; it is kept as a library
reference for bit-faithful comparison against detectors specified that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ConfigError, StatsError, check_fields

__all__ = [
    "SIGMA_FLOOR",
    "KL_VARIANTS",
    "MIN_CALIBRATION_SCORES",
    "ActivationStats",
    "DriftTracker",
    "compute_stats",
    "ema_update",
    "kl_gaussian",
    "divergence",
    "detect",
    "check_quantile",
    "calibrate_threshold",
]

SIGMA_FLOOR = 1e-6
KL_VARIANTS = ("standard", "simplified")
MIN_CALIBRATION_SCORES = 30


@dataclass(frozen=True)
class ActivationStats:
    """Per-channel (mean, std) summary of a feature tensor."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        means = np.array(self.means, dtype=np.float64).ravel()
        stds = np.array(self.stds, dtype=np.float64).ravel()
        if means.shape != stds.shape:
            raise StatsError("means and stds must have equal length")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(stds))):
            raise StatsError("activation statistics must be finite")
        self._store(means, stds)

    def _store(self, means: np.ndarray, stds: np.ndarray) -> None:
        """Hold the vectors, which this object now owns, read-only; the
        stds floored at SIGMA_FLOOR in place."""
        np.maximum(stds, SIGMA_FLOOR, out=stds)
        means.setflags(write=False)
        stds.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)

    def __len__(self) -> int:
        return self.means.shape[0]

    @classmethod
    def _of_checked(cls, means: np.ndarray, stds: np.ndarray) -> "ActivationStats":
        """Stats from fresh float64 vectors of equal length, known to be finite.

        Skips the copies and checks of the constructor and applies only its
        floor, in place, so stats are built as the constructor would build
        them. The vectors must belong to no one else.
        """
        stats = object.__new__(cls)
        stats._store(means, stds)
        return stats


def compute_stats(features: np.ndarray) -> ActivationStats:
    """Spatially pool a (channels, ...) feature tensor into per-channel stats.

    Uses the population standard deviation, floored at SIGMA_FLOOR so the
    divergence stays finite for constant channels.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim < 2 or f[0].size == 0:
        raise StatsError(f"features need a non-empty spatial extent, got shape {f.shape}")
    flat = f.reshape(f.shape[0], -1)
    return ActivationStats(flat.mean(axis=1), flat.std(axis=1))


@dataclass
class DriftTracker:
    """EMA tracker of activation statistics for one agent (single writer).

    The moving average starts from the first observed frame; detection is
    disabled for the first ``warmup`` frames so the cold-start average
    cannot flag itself. An agent's defaults for these live in ``AgentSpec``.
    """

    smoothing: float
    warmup: int
    threshold: float = 1.0
    ema: ActivationStats | None = None
    frames_seen: int = 0

    def __post_init__(self):
        check_fields(self)
        if not (0.0 <= self.smoothing <= 1.0):
            raise ConfigError(f"smoothing factor must lie in [0, 1], got {self.smoothing!r}")
        if not self.threshold > 0.0:
            raise ConfigError(f"threshold must be positive, got {self.threshold!r}")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be non-negative, got {self.warmup!r}")


def ema_update(tracker: DriftTracker, stats: ActivationStats) -> DriftTracker:
    """Fold one frame's statistics into the tracker's moving average."""
    if tracker.ema is None:
        tracker.ema = stats
        return tracker
    lam = tracker.smoothing
    tracker.ema = ActivationStats._of_checked(
        lam * stats.means + (1.0 - lam) * tracker.ema.means,
        lam * stats.stds + (1.0 - lam) * tracker.ema.stds,
    )
    return tracker


def kl_gaussian(
    a: tuple[float, float], b: tuple[float, float], variant: str = "standard"
) -> float:
    """KL divergence between univariate Gaussians (mu, sigma).

    standard:   ln(s2/s1) + (s1^2 + (m1-m2)^2) / (2 s2^2) - 1/2
    simplified: (s1^2 + (m1-m2)^2) / (2 s2^2)
    """
    m1, s1 = a
    m2, s2 = b
    if s1 < SIGMA_FLOOR or s2 < SIGMA_FLOOR:
        raise StatsError(f"stds must be >= {SIGMA_FLOOR}")
    core = (s1**2 + (m1 - m2) ** 2) / (2.0 * s2**2)
    if variant == "simplified":
        return float(core)
    if variant == "standard":
        return float(math.log(s2 / s1) + core - 0.5)
    raise StatsError(f"kl variant must be one of {KL_VARIANTS}")


def divergence(a: ActivationStats, b: ActivationStats, variant: str = "standard") -> float:
    """Channel-averaged symmetric KL divergence between two stat summaries.

    In the standard variant the opposed log-ratio terms cancel and the two
    -1/2 terms are folded in over a common denominator, per channel

        ((sa^2 - sb^2)^2 + (ma - mb)^2 (sa^2 + sb^2)) / (2 sa^2 sb^2),

    with sa^2 - sb^2 taken as (sa - sb)(sa + sb). Every term is then
    non-negative, so a score of 1e-8 keeps all its digits instead of being
    the small difference of two numbers near 1. The simplified variant is,
    per channel,

        (sa^2 + (ma - mb)^2) / (2 sb^2) + (sb^2 + (mb - ma)^2) / (2 sa^2).

    Both are evaluated in the order written, sharing (ma - mb)^2: it is
    (mb - ma)^2 bit for bit, as rounding is symmetric. The channel mean is
    the one ``ndarray.mean`` computes, without its overhead.
    """
    n = len(a)
    if n != len(b):
        raise StatsError(f"stat lengths differ: {n} vs {len(b)}")
    va, vb = a.stds**2, b.stds**2
    dm2 = (a.means - b.means) ** 2
    if variant == "standard":
        dv = (a.stds - b.stds) * (a.stds + b.stds)
        total = (dv * dv + dm2 * (va + vb)) / (2.0 * va * vb)
    elif variant == "simplified":
        total = (va + dm2) / (2.0 * vb) + (vb + dm2) / (2.0 * va)
    else:
        raise StatsError(f"kl variant must be one of {KL_VARIANTS}")
    return float(np.add.reduce(total) / n)


def detect(
    tracker: DriftTracker, stats: ActivationStats
) -> tuple[bool, float, DriftTracker]:
    """Score one frame against the tracker and update the moving average.

    The divergence is computed before the EMA update, so a shifted frame
    cannot mask itself. During warmup the score is reported as 0 and no
    shift is ever flagged. The threshold is strict: a score exactly equal
    to it does not fire.
    """
    if tracker.ema is None or tracker.frames_seen < tracker.warmup:
        score, shift = 0.0, False
    else:
        score = divergence(tracker.ema, stats)
        shift = score > tracker.threshold
    ema_update(tracker, stats)
    tracker.frames_seen += 1
    return shift, score, tracker


def reset_reference(tracker: DriftTracker, stats: ActivationStats) -> DriftTracker:
    """Re-anchor the moving average on the given frame's statistics.

    Called after an agent has successfully adapted to a new domain: the
    detector re-arms for the next shift rather than re-firing on the one
    just handled. Warmup restarts so the refreshed average settles on a
    few frames of the new domain before detection resumes; a single-frame
    reference would otherwise inflate the scores right after adaptation.
    """
    tracker.ema = stats
    tracker.frames_seen = 0
    return tracker


def check_quantile(quantile: float) -> None:
    """Raise ConfigError unless ``calibrate_threshold`` takes this quantile."""
    if not (0.0 < quantile <= 1.0):
        raise ConfigError(f"quantile must lie in (0, 1], got {quantile}")


def calibrate_threshold(scores, quantile: float) -> float:
    """Empirical quantile of clean-stream scores (linear interpolation)."""
    check_quantile(quantile)
    scores = np.asarray(list(scores), dtype=np.float64)
    if scores.size < MIN_CALIBRATION_SCORES:
        raise CalibrationError(
            f"need at least {MIN_CALIBRATION_SCORES} clean scores to calibrate, got {scores.size}"
        )
    return float(np.quantile(scores, quantile))
