"""Frozen-model abstraction with deterministic synthetic oracles.

The toy oracle is a fully transparent stand-in for a frozen segmentation
backbone. It is built so that every adaptation mechanism in this library
has a measurable, plantable effect:

* A class layout is planted over the frame and each class is assigned a
  prototype color. Per-pixel logits are affine in the pixel value (the
  posterior of an isotropic Gaussian classifier), so source-domain frames
  are classified confidently and any brute-force per-pixel evaluation can
  reproduce the outputs.
* Domain shifts are channel-wise affine maps plus Gaussian noise applied
  to the rendered frame. Restoring a shifted pixel to its source value is
  therefore an additive correction, which is exactly what a sparse visual
  prompt can express: a planted optimal prompt always exists.
* Token prompts act through an orthogonal patch-token basis: prompt rows
  are mixed onto patch tokens and decoded back to an additive pixel-space
  adjustment. Because the basis is invertible, matching encoder features
  of a prompt-corrected frame transfers the correction itself, making
  cross-format distillation verifiable against linear algebra.

All oracles are immutable after construction and all operations are pure
functions of their explicit arguments (including seeds), so they may be
called from any number of concurrent workers. ``OracleSpec`` declares an
oracle's settings, their defaults and their ranges; ``make_toy_oracle``
returns one shared oracle per spec, and every array an oracle holds or
caches is read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .drift import ActivationStats
from .errors import ConfigError, OracleError, check_fields
from .prompts import SparseVisualPrompt, TokenPrompt

__all__ = [
    "DomainSpec",
    "OracleSpec",
    "ToyOracle",
    "make_toy_oracle",
    "check_uncertainty",
    "patch_count",
    "render_frame",
    "planted_correction",
    "random_domain_spec",
    "mean_entropy",
    "pixel_entropy",
]

# Smallest channel-wise bias magnitude for which a shifted frame is
# guaranteed (and property-tested) to have higher mean entropy than the
# source frame, given gains in [0.6, 0.95].
MIN_SHIFT_BIAS = 0.08

# Oracles kept by make_toy_oracle, and token-prompt pixel deltas kept per
# oracle (each about 24 KB on a 32x32 frame).
ORACLE_CACHE_SIZE = 8
DELTA_CACHE_PROMPTS = 8
# Weight ratio between successive blocks of N prompt rows (see prompt_mix).
POSITION_DECAY = 0.25


@dataclass(frozen=True)
class DomainSpec:
    """Channel-wise affine domain shift: x' = gain * x + bias + noise."""

    id: str
    gain: tuple[float, float, float] = (1.0, 1.0, 1.0)
    bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if min(self.gain) <= 0:
            raise ConfigError(f"domain gain must be positive, got {self.gain}")
        for name, value in [("noise scale", self.noise_scale), ("domain seed", self.seed)]:
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value!r}")


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spread_prototypes(rng: np.random.Generator, classes: int) -> np.ndarray:
    """Pick class colors maximizing the minimum pairwise distance.

    Starts from the best of several random draws, then repeatedly pushes
    the closest pair apart (fixed schedule, so the result is a pure
    function of the rng state). Near-equal margins keep every class pair
    confidently separated, which anchors the planted-shift entropy floor.
    """
    lo, hi = 0.12, 0.88
    best, best_score = None, -1.0
    for _ in range(32):
        cand = rng.uniform(lo, hi, size=(classes, 3))
        d = np.linalg.norm(cand[:, None, :] - cand[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        if d.min() > best_score:
            best, best_score = cand, d.min()
    protos = best.copy()
    iters = 300
    for it in range(iters):
        d = np.linalg.norm(protos[:, None, :] - protos[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        i, j = np.unravel_index(np.argmin(d), d.shape)
        u = protos[i] - protos[j]
        step = 0.02 * (1.0 - it / iters) / np.linalg.norm(u)
        protos[i] = np.clip(protos[i] + step * u, lo, hi)
        protos[j] = np.clip(protos[j] - step * u, lo, hi)
    return protos


@dataclass(frozen=True)
class OracleSpec:
    """The settings of a toy oracle, with their defaults and ranges.

    The frame must tile exactly into ``patch`` x ``patch`` patches; the
    token dimension is 3 * patch**2 so the patch-token basis is invertible.
    """

    seed: int = 7
    classes: int = 5
    height: int = 32
    width: int = 32
    stem_channels: int = 8
    patch: int = 4
    temperature: float = 0.08

    def __post_init__(self):
        check_fields(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.classes < 2:
            raise ConfigError("need at least two classes")
        if min(self.height, self.width, self.stem_channels, self.patch) < 1:
            raise ConfigError("height, width, stem_channels and patch must be at least 1")
        if self.height % self.patch or self.width % self.patch:
            raise ConfigError(f"frame {self.height}x{self.width} must tile into "
                              f"{self.patch}x{self.patch} patches")
        if not self.temperature > 0.0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")


@dataclass(frozen=True, eq=False, kw_only=True)
class ToyOracle(OracleSpec):
    """Deterministic synthetic segmentation oracle: its spec and the arrays
    built from it. Build via make_toy_oracle; equal specs give equal oracles."""

    layout: np.ndarray = field(repr=False)
    prototypes: np.ndarray = field(repr=False)
    stem_weight: np.ndarray = field(repr=False)
    stem_bias: np.ndarray = field(repr=False)
    token_basis: np.ndarray = field(repr=False)       # (d, d) orthogonal
    feature_projection: np.ndarray = field(repr=False)  # (d, d) orthogonal
    prompt_mix_base: np.ndarray = field(repr=False)     # (N, N) orthogonal
    # id(prompt) -> (prompt, its read-only pixel delta), least recent first
    _deltas: OrderedDict = field(default_factory=OrderedDict, init=False, repr=False)

    # -- geometry ------------------------------------------------------

    @property
    def num_patches(self) -> int:
        return patch_count(self.height, self.width, self.patch)

    @property
    def token_dim(self) -> int:
        return 3 * self.patch * self.patch

    @property
    def frame_shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    def _check_image(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.height, self.width, 3):
            raise OracleError(
                f"expected image of shape {(self.height, self.width, 3)}, got {x.shape}"
            )
        return x

    def _patch_vectors(self, x: np.ndarray) -> np.ndarray:
        p = self.patch
        hp, wp = self.height // p, self.width // p
        # (hp, wp, p, p, 3) -> (N, 3*p*p), patches enumerated row-major
        v = x.reshape(hp, p, wp, p, 3).transpose(0, 2, 1, 3, 4)
        return v.reshape(hp * wp, 3 * p * p)

    def _unpatch(self, vectors: np.ndarray) -> np.ndarray:
        p = self.patch
        hp, wp = self.height // p, self.width // p
        v = vectors.reshape(hp, wp, p, p, 3).transpose(0, 2, 1, 3, 4)
        return v.reshape(self.height, self.width, 3)

    # -- core forward passes -------------------------------------------

    def tokenize(self, x: np.ndarray) -> np.ndarray:
        """Embed the image as N patch tokens of dimension d."""
        return self._patch_vectors(self._check_image(x)) @ self.token_basis

    def prompt_mix(self, rows: int) -> np.ndarray:
        """Mixing matrix mapping `rows` prompt tokens onto patch tokens.

        Columns repeat in blocks of N with geometric decay, so prompts
        assembled behind a first prompt contribute with reduced weight.
        """
        n = self.num_patches
        cols = np.arange(rows)
        weights = POSITION_DECAY ** (cols // n)
        return self.prompt_mix_base[:, cols % n] * weights[None, :]

    def encode_tokens(self, z: np.ndarray) -> np.ndarray:
        """Encoder features for a (possibly prompt-prefixed) token sequence.

        Accepts (L + N) x d sequences for any L >= 0 and returns fixed-size
        N x d features; prompt rows enter additively, so an all-zero prompt
        reproduces encode_image exactly.
        """
        z = np.asarray(z, dtype=np.float64)
        n = self.num_patches
        if z.ndim != 2 or z.shape[0] < n or z.shape[1] != self.token_dim:
            raise OracleError(
                f"token sequence must be (L+{n}) x {self.token_dim}, got {z.shape}"
            )
        rows = z.shape[0] - n
        patch_tokens = z[rows:]
        if rows:
            patch_tokens = patch_tokens + self.prompt_mix(rows) @ z[:rows]
        return patch_tokens @ self.feature_projection

    def encode_image(self, x: np.ndarray) -> np.ndarray:
        return self.tokenize(x) @ self.feature_projection

    def effective_image(self, x: np.ndarray, tp: TokenPrompt | None) -> np.ndarray:
        """Image plus the pixel-space adjustment encoded by a token prompt."""
        x = self._check_image(x)
        if tp is None or tp.rows == 0:
            return x
        return x + self._prompt_delta(tp)

    def _prompt_delta(self, tp: TokenPrompt) -> np.ndarray:
        """The pixel-space adjustment of ``tp``, computed once per prompt.

        Kept in a small LRU keyed by ``id(tp)`` that holds the prompt
        itself, so no other prompt can take that id while it is held.
        """
        held = self._deltas.pop(id(tp), None)
        if held is None:
            if tp.dim != self.token_dim:
                raise OracleError(
                    f"token prompt dim {tp.dim} does not match oracle dim {self.token_dim}"
                )
            delta_tokens = self.prompt_mix(tp.rows) @ np.asarray(tp.values, np.float64)
            delta = self._unpatch(delta_tokens @ self.token_basis.T)
            delta.setflags(write=False)
            held = (tp, delta)
        self._deltas[id(tp)] = held
        if len(self._deltas) > DELTA_CACHE_PROMPTS:
            self._deltas.popitem(last=False)
        return held[1]

    @cached_property
    def _affine(self) -> tuple[np.ndarray, np.ndarray]:
        """The classifier as one affine map, read-only: logits = W e + b.

        The isotropic Gaussian posterior (2 e.p_k - |p_k|^2) / T gives
        W = 2P/T, shape (C, 3), and b = -|p_k|^2/T, shape (C, 1).
        """
        w = 2.0 * self.prototypes / self.temperature
        b = -np.sum(self.prototypes**2, axis=1, keepdims=True) / self.temperature
        w.setflags(write=False)
        b.setflags(write=False)
        return w, b

    def _logits(self, e: np.ndarray) -> np.ndarray:
        """Class-first logits, shape (C, N), of the N pixels of e (..., 3).

        One matmul for every N. A lone pixel is computed as a two-pixel
        batch and its column kept twice, shape (C, 2): numpy hands a
        one-column product to gemv and reduces a one-column array in
        another order, and either would round that pixel differently from
        the same pixel in a larger batch. So each pixel's logits, and all
        derived from them, are bit-identical in every batch.
        """
        w, b = self._affine
        pixels = e.reshape(-1, 3)
        if pixels.shape[0] == 1:
            pixels = np.repeat(pixels, 2, axis=0)
        logits = w @ pixels.T
        logits += b
        return logits

    def _frame(self, columns: np.ndarray) -> np.ndarray:
        """Per-pixel values (..., N) of a frame's logits as (..., H, W)."""
        n = self.height * self.width
        return columns[..., :n].reshape(*columns.shape[:-1], self.height, self.width)

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        """Class probabilities of class-first logits, shape (C, N)."""
        p = logits - logits.max(axis=0)
        np.exp(p, out=p)
        p /= p.sum(axis=0)
        return p

    @staticmethod
    def _entropy(logits: np.ndarray) -> np.ndarray:
        """Entropy in nats of the softmax of each column; overwrites the logits.

        With z = logits - max and S = sum e^z, the entropy is
        log S - sum(e^z z) / S: no probability, no log p and no zero mask.
        A pixel whose other classes underflow exp gets exactly +0.0.
        """
        logits -= logits.max(axis=0)
        ez = np.exp(logits)
        s = ez.sum(axis=0)
        ez *= logits
        h = ez.sum(axis=0)
        h /= s
        np.log(s, out=s)
        return np.subtract(s, h, out=s)

    def predict(self, x: np.ndarray, tp: TokenPrompt | None = None) -> np.ndarray:
        """Per-pixel class probabilities, shape (C, H, W)."""
        return self._frame(self._softmax(self._logits(self.effective_image(x, tp))))

    def entropy_map(self, x: np.ndarray, tp: TokenPrompt | None = None) -> np.ndarray:
        """Per-pixel prediction entropy in nats, shape (H, W), from the logits.

        Equals ``pixel_entropy(self.predict(x, tp))`` up to rounding; every
        entropy the library reports is this map or its mean.
        """
        return self._frame(self._entropy(self._logits(self.effective_image(x, tp))))

    def svp_scorer(self, x: np.ndarray, coords: np.ndarray, base: np.ndarray | None = None):
        """Scorer of sparse prompts at ``coords`` on frame x.

        Returns ``score(offsets) -> (P,)`` whose entry i equals
        ``self.entropy_map(apply_svp(x, p_i)).mean()`` bit for bit, where
        p_i carries ``offsets[i]`` (shape (K, 3)) at ``coords``. ``coords``
        must already be valid prompt coordinates: K unique in-frame
        (row, col) pairs. Without a token prompt the model is pixelwise,
        and a pixel's entropy does not depend on its batch, so the
        unprompted pass runs once and each score re-evaluates only the K
        prompted pixels of each candidate. ``base`` is that pass's (H, W)
        entropy map, ``self.entropy_map(x)``, when the caller already has
        it; it is computed here otherwise. A scorer keeps one tiled copy of
        that map per population size and rewrites only its masked columns,
        so one scorer must not be called from two threads at once; the
        array it returns is new on every call.
        """
        x = self._check_image(x)
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
        r, c = coords[:, 0], coords[:, 1]
        flat = r * self.width + c
        if base is None:
            base = self.entropy_map(x)
        elif np.shape(base) != self.frame_shape:
            raise OracleError(f"entropy map must be {self.frame_shape}, got {np.shape(base)}")
        base = np.asarray(base, dtype=np.float64).ravel()
        pixels = x[r, c, :]

        @lru_cache(maxsize=None)
        def base_rows(population: int) -> np.ndarray:
            return np.tile(base, (population, 1))

        def score(offsets: np.ndarray) -> np.ndarray:
            offsets = np.asarray(offsets, dtype=np.float64)
            if offsets.ndim != 3 or offsets.shape[1:] != pixels.shape:
                raise OracleError(
                    f"offsets must be (P, {coords.shape[0]}, 3), got {offsets.shape}"
                )
            prompted = pixels + offsets  # (P, K, 3)
            np.clip(prompted, 0.0, 1.0, out=prompted)
            entropies = self._entropy(self._logits(prompted))[: prompted.size // 3]
            tile = base_rows(offsets.shape[0])
            tile[:, flat] = entropies.reshape(offsets.shape[:2])
            return tile.mean(axis=1)

        return score

    def stochastic_forward(self, x: np.ndarray, dropout_rate: float, seed: int) -> np.ndarray:
        """Forward pass with multiplicative channel dropout on pixel values.

        Deterministic given (x, dropout_rate, seed); rate 0 reproduces
        predict bit-exactly.
        """
        check_uncertainty(1, dropout_rate)
        e = self._check_image(x)
        if dropout_rate > 0.0:
            rng = np.random.default_rng([self.seed, int(seed) % (2**63)])
            keep = rng.random(e.shape) >= dropout_rate
            e = e * keep / (1.0 - dropout_rate)
        return self._frame(self._softmax(self._logits(e)))

    def uncertainty_map(
        self, x: np.ndarray, passes: int, dropout_rate: float, seed: int
    ) -> np.ndarray:
        """Per-pixel predictive entropy of the mean over stochastic passes."""
        check_uncertainty(passes, dropout_rate)
        acc = np.zeros((self.classes, self.height, self.width))
        for i in range(passes):
            acc += self.stochastic_forward(x, dropout_rate, int(seed) * 1009 + i)
        return pixel_entropy(acc / passes)

    def stem_features(self, x: np.ndarray) -> np.ndarray:
        """Early-layer activations, shape (stem_channels, H, W)."""
        x = self._check_image(x)
        return (
            np.einsum("kc,ijc->kij", self.stem_weight, x)
            + self.stem_bias[:, None, None]
        )

    def stem_stats(self, x: np.ndarray) -> ActivationStats:
        """Per-channel mean and std of ``stem_features(x)``, in closed form.

        Stem channel k is affine in the pixel, w_k . x + b_k, so its spatial
        mean is w_k . mu + b_k and its population variance w_k' Sigma w_k,
        where mu and Sigma are the frame's 3-vector pixel mean and centred
        3x3 covariance. Equals ``compute_stats(stem_features(x))`` up to
        rounding, without building the (stem_channels, H, W) tensor.
        """
        channels = np.ascontiguousarray(self._check_image(x).reshape(-1, 3).T)
        pixels = channels.shape[1]
        mu = channels.sum(axis=1) / pixels
        centred = channels - mu[:, None]
        cov = np.einsum("ip,jp->ij", centred, centred) / pixels
        w = self.stem_weight
        var = np.einsum("ki,ij,kj->k", w, cov, w)
        return ActivationStats(w @ mu + self.stem_bias, np.sqrt(np.maximum(var, 0.0)))

    def query_embedding(self, x: np.ndarray) -> np.ndarray:
        """Unit-normalized domain embedding, used as pool key and query.

        Mean-pooled encoder features, centered on the frozen model's
        source-domain anchor so that different appearance shifts map to
        well-separated directions instead of all pointing at the shared
        scene content.
        """
        pooled = self.encode_image(x).mean(axis=0)
        centered = pooled - self.source_anchor()
        norm = np.linalg.norm(centered)
        if norm <= 1e-12 * (1.0 + np.linalg.norm(pooled)):
            # The frame sits exactly on the source anchor; fall back to the
            # raw pooled direction so the embedding stays well-defined.
            norm = np.linalg.norm(pooled)
            if norm == 0.0:
                raise OracleError("query embedding collapsed to zero")
            return pooled / norm
        return centered / norm

    def source_anchor(self) -> np.ndarray:
        """Mean-pooled encoder features of the source-domain scene; read-only."""
        return self._anchor

    @cached_property
    def _anchor(self) -> np.ndarray:
        anchor = self.encode_image(self.base_image()).mean(axis=0)
        anchor.setflags(write=False)
        return anchor

    # -- scene rendering -----------------------------------------------

    def base_image(self, offset: tuple[int, int] = (0, 0)) -> np.ndarray:
        """Noiseless source-domain frame: prototype colors on the layout.

        Read-only. The unshifted frame is built once per oracle and shared.
        """
        base = self._base
        if offset != (0, 0):
            base = np.roll(base, shift=(int(offset[0]), int(offset[1])), axis=(0, 1))
            base.setflags(write=False)
        return base

    @cached_property
    def _base(self) -> np.ndarray:
        base = self.prototypes[self.layout]
        base.setflags(write=False)
        return base


def check_uncertainty(passes: int, dropout_rate: float) -> None:
    """Raise ConfigError unless ``uncertainty_map`` takes these settings."""
    if passes < 1:
        raise ConfigError(f"uncertainty estimation needs at least one pass, got {passes}")
    if not (0.0 <= dropout_rate < 1.0):
        raise ConfigError(f"dropout rate must lie in [0, 1), got {dropout_rate}")


def patch_count(height: int, width: int, patch: int) -> int:
    """Patch tokens of a height x width frame cut into patch x patch tiles."""
    return (height // patch) * (width // patch)


def make_toy_oracle(seed: int, **settings) -> ToyOracle:
    """The reference synthetic oracle of ``OracleSpec(seed, **settings)``.

    Oracles are memoized: equal specs return the same read-only oracle,
    from a cache of the ``ORACLE_CACHE_SIZE`` most recent ones.
    """
    return _build_toy_oracle(OracleSpec(seed, **settings))


@lru_cache(maxsize=ORACLE_CACHE_SIZE)
def _build_toy_oracle(spec: OracleSpec) -> ToyOracle:
    rng = np.random.default_rng(spec.seed)
    classes, height, width, patch = spec.classes, spec.height, spec.width, spec.patch

    # Planted layout: Voronoi cells of one anchor pixel per class.
    anchors = np.stack(
        [rng.integers(0, height, size=classes), rng.integers(0, width, size=classes)],
        axis=1,
    ).astype(np.float64)
    anchors += rng.uniform(-0.25, 0.25, size=anchors.shape)
    rr, cc = np.mgrid[0:height, 0:width]
    d2 = (rr[..., None] - anchors[:, 0]) ** 2 + (cc[..., None] - anchors[:, 1]) ** 2
    layout = np.argmin(d2, axis=-1).astype(np.int64)

    prototypes = _spread_prototypes(rng, classes)
    stem_weight = rng.standard_normal((spec.stem_channels, 3))
    stem_bias = rng.standard_normal(spec.stem_channels) * 0.1

    d = 3 * patch * patch
    token_basis = _orthogonal(rng, d)
    feature_projection = _orthogonal(rng, d)
    prompt_mix_base = _orthogonal(rng, patch_count(height, width, patch))

    layout.setflags(write=False)
    for a in (prototypes, stem_weight, stem_bias, token_basis, feature_projection, prompt_mix_base):
        a.setflags(write=False)
    return ToyOracle(
        **vars(spec),
        layout=layout,
        prototypes=prototypes,
        stem_weight=stem_weight,
        stem_bias=stem_bias,
        token_basis=token_basis,
        feature_projection=feature_projection,
        prompt_mix_base=prompt_mix_base,
    )


def render_frame(
    oracle: ToyOracle,
    domain: DomainSpec,
    frame_index: int,
    offset: tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Render one frame of the planted scene under a domain shift.

    Deterministic given (oracle, domain, frame_index, offset); the result
    is ``clip(gain * base + bias + noise_scale * z, 0, 1)`` with z standard
    normal, computed in place in that order.
    """
    x = oracle.base_image(offset) * np.asarray(domain.gain)
    x += np.asarray(domain.bias)
    if domain.noise_scale > 0:
        rng = np.random.default_rng([domain.seed, int(frame_index) % (2**63)])
        z = rng.standard_normal(x.shape)
        z *= domain.noise_scale
        x += z
    return np.clip(x, 0.0, 1.0, out=x)


def planted_correction(
    oracle: ToyOracle,
    domain: DomainSpec,
    frame_index: int,
    coords: np.ndarray,
    offset: tuple[int, int] = (0, 0),
) -> SparseVisualPrompt:
    """Optimal sparse prompt for a rendered frame: restores source pixels.

    Adding the returned offsets to the shifted frame reproduces the
    noiseless source values exactly at the prompted coordinates, so entropy
    there matches the source frame.
    """
    frame = render_frame(oracle, domain, frame_index, offset)
    base = oracle.base_image(offset)
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    r, c = coords[:, 0], coords[:, 1]
    return SparseVisualPrompt(coords, base[r, c, :] - frame[r, c, :], oracle.frame_shape)


def random_domain_spec(
    rng: np.random.Generator,
    domain_id: str,
    bias_floor: float = MIN_SHIFT_BIAS,
    bias_ceil: float = 0.3,
    noise_scale: float = 0.01,
) -> DomainSpec:
    """Sample a shift whose bias magnitude stays above the documented floor."""
    if bias_floor < MIN_SHIFT_BIAS:
        raise ConfigError(f"bias floor below the documented minimum {MIN_SHIFT_BIAS}")
    gain = rng.uniform(0.6, 0.95, size=3)
    bias = rng.uniform(bias_floor, bias_ceil, size=3) * rng.choice([-1.0, 1.0], size=3)
    return DomainSpec(
        id=domain_id,
        gain=tuple(gain),
        bias=tuple(bias),
        noise_scale=noise_scale,
        seed=int(rng.integers(0, 2**31)),
    )


def pixel_entropy(out: np.ndarray) -> np.ndarray:
    """Per-pixel Shannon entropy in nats, shape (H, W); 0*ln(0) counts as 0.

    Equals ``np.where(p > 0, -p * log(p), 0).sum(axis=0)`` bit for bit,
    except that a zero entropy is always +0.0: the sum of p*log(p) is
    negated once, as 0 - sum, instead of term by term.
    """
    p = np.asarray(out, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(p)
        terms *= p
    np.copyto(terms, 0.0, where=~(p > 0.0))
    h = terms.sum(axis=0)
    return np.subtract(0.0, h, out=h)


def mean_entropy(out: np.ndarray) -> float:
    """Mean per-pixel Shannon entropy in nats; lies in [0, ln C]."""
    return float(pixel_entropy(out).mean())
