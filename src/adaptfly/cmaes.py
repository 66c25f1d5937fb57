"""Gradient-free search over sparse-prompt offsets.

Three update modes share one ask/tell interface:

* ``full-cma`` — rank-mu covariance matrix adaptation with log-rank
  weights, cumulative step-size adaptation and a rank-one evolution path,
  following the standard tutorial parameterization. The covariance is
  Cholesky-factored after every generation (any A with A A^T = C samples
  correctly), and the step-size path is whitened with the population's own
  standard-normal draws. Default.
* ``sep-cma`` — the same update restricted to a diagonal covariance (Ros
  and Hansen's separable CMA-ES): C is held as an (n,) vector, samples are
  ``m + sigma * z * sqrt(C)``, the rank-one and rank-mu terms are
  element-wise squares, and the covariance learning rates are scaled by
  (n + 2) / 3. O(n) per sample and no factorization.
* ``elite-eda`` — the literal loop this library's fleet pseudocode calls
  for: mean and covariance re-estimated from the elite samples each
  generation, no step-size path.

The optimizer loop owns its state. ``optimize_svp`` and ``run_benchmark``
share one ask/evaluate/tell loop and differ only in their stop rules.
``optimize_svp`` scores each generation as one population in a single
array pass of the oracle's ``svp_scorer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ConfigError, FitnessError, check_fields
from .prompts import SparseVisualPrompt

__all__ = [
    "CmaConfig",
    "CmaState",
    "cma_init",
    "cma_ask",
    "cma_tell",
    "project_mask",
    "optimize_svp",
    "OptimizeResult",
    "sphere",
    "rosenbrock",
    "run_benchmark",
    "BenchResult",
]

MODES = ("full-cma", "sep-cma", "elite-eda")

# Early stopping for optimize_svp: stop when the best-so-far fitness
# improves by less than TOL_F over a 5-generation window.
STALL_WINDOW = 5
TOL_F = 1e-6


@dataclass(frozen=True)
class CmaConfig:
    """Search configuration.

    ``population`` and ``elite`` default to 4 + floor(3 ln n) and half the
    population in the CMA modes, the customary choices. The elite-eda mode
    re-estimates its covariance from the elites alone each generation, so
    its defaults are far larger (max(128, 24 n) and a quarter of that) to
    avoid premature collapse.
    """

    dimension: int
    population: int | None = None
    elite: int | None = None
    generations: int = 100
    sigma0: float = 0.3
    mode: str = "full-cma"
    cov_floor: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.dimension < 1:
            raise ConfigError("dimension must be at least 1")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        m = self.population
        if m is None:
            if self.mode == "elite-eda":
                m = max(128, 24 * self.dimension)
            else:
                m = 4 + int(3 * math.log(self.dimension))
            object.__setattr__(self, "population", m)
        me = self.elite
        if me is None:
            me = max(1, m // 4 if self.mode == "elite-eda" else m // 2)
            object.__setattr__(self, "elite", me)
        if not (1 <= me <= m):
            raise ConfigError(f"elite size {me} must lie in [1, population {m}]")
        if self.generations < 1:
            raise ConfigError("generations must be at least 1")
        if self.sigma0 <= 0:
            raise ConfigError("initial std must be positive")
        if not (0.0 < self.cov_floor <= 1.0):
            raise ConfigError("covariance floor must lie in (0, 1]")


@dataclass
class CmaState:
    """Search distribution state, owned by a single optimizer loop."""

    config: CmaConfig
    mean: np.ndarray
    cov: np.ndarray            # (n, n); sep-cma: its (n,) diagonal
    sigma: float
    path_sigma: np.ndarray     # CMA modes only
    path_cov: np.ndarray       # CMA modes only
    generation: int = 0
    best_vector: np.ndarray | None = None
    best_fitness: float = math.inf
    # A with A A^T = C; dense modes only.
    _sample_factor: np.ndarray | None = field(default=None, repr=False)
    _rates: tuple | None = field(default=None, repr=False)  # CMA modes only
    # The population cma_ask last returned and the standard normals behind it.
    _asked: np.ndarray | None = field(default=None, repr=False)
    _z: np.ndarray | None = field(default=None, repr=False)


def _factor(state: CmaState) -> None:
    """Cache a sampling factor A with A A^T = C, in the dense modes only
    (sep-cma samples with the square root of its diagonal).

    full-cma takes the Cholesky factor. elite-eda, and full-cma when
    Cholesky fails (a covariance that is not numerically positive
    definite), take B diag(D) from the eigendecomposition C = B diag(D^2)
    B^T with the spectrum clipped to ``cov_floor``; the clipped covariance
    replaces C.
    """
    cfg = state.config
    if cfg.mode == "full-cma":
        try:
            state._sample_factor = np.linalg.cholesky(state.cov)
            return
        except np.linalg.LinAlgError:
            pass
    c = (state.cov + state.cov.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(c)
    # Reconstruction perturbs eigenvalues by O(n eps ||C||); lift the clip
    # level accordingly so the floored spectrum survives the round trip.
    scale = float(np.max(np.abs(eigvals), initial=0.0))
    lift = cfg.cov_floor + 32 * c.shape[0] * np.finfo(float).eps * scale
    eigvals = np.maximum(eigvals, lift)
    state.cov = (eigvecs * eigvals) @ eigvecs.T
    state.cov = (state.cov + state.cov.T) / 2.0
    state._sample_factor = eigvecs * np.sqrt(eigvals)


def _full_cma_rates(cfg: CmaConfig) -> tuple:
    """Recombination weights and learning rates of the full-cma update.

    sep-cma takes the same rates with c_1 and c_mu scaled by (n + 2) / 3,
    c_mu capped at 1 - c_1 as in the dense update.
    Returns (weights, mu_eff, c_sigma, d_sigma, c_c, c_1, c_mu, chi_n).
    """
    n, mu = cfg.dimension, cfg.elite
    raw = math.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / np.sum(weights**2)

    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(
        1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff)
    )
    if cfg.mode == "sep-cma":
        c_1 *= (n + 2.0) / 3.0
        c_mu = min(1.0 - c_1, c_mu * (n + 2.0) / 3.0)
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n**2))
    return weights, mu_eff, c_sigma, d_sigma, c_c, c_1, c_mu, chi_n


def cma_init(config: CmaConfig) -> CmaState:
    """Fresh state: mean at the origin, search covariance sigma0^2 * I."""
    n = config.dimension
    if config.mode == "elite-eda":
        # The covariance itself carries the scale; sigma stays 1.
        cov = np.eye(n) * config.sigma0**2
        sigma = 1.0
    else:
        cov = np.ones(n) if config.mode == "sep-cma" else np.eye(n)
        sigma = config.sigma0
    state = CmaState(
        config=config,
        mean=np.zeros(n),
        cov=cov,
        sigma=sigma,
        path_sigma=np.zeros(n),
        path_cov=np.zeros(n),
        _rates=None if config.mode == "elite-eda" else _full_cma_rates(config),
    )
    if config.mode != "sep-cma":
        _factor(state)
    return state


def cma_ask(state: CmaState, rng: np.random.Generator) -> np.ndarray:
    """Sample one population from the current search distribution.

    Returns a (population, n) array; deterministic given the rng stream.
    The distribution is left unchanged; the state keeps this population and
    its standard-normal draws, which a CMA-mode ``cma_tell`` needs.
    """
    cfg = state.config
    z = rng.standard_normal((cfg.population, cfg.dimension))
    state._z = z
    if cfg.mode == "sep-cma":
        steps = z * np.sqrt(state.cov)
    else:
        steps = z @ state._sample_factor.T
    state._asked = state.mean[None, :] + state.sigma * steps
    return state._asked.copy()


def cma_tell(state: CmaState, candidates: np.ndarray, fitnesses: np.ndarray) -> CmaState:
    """Fold one evaluated population into the search distribution.

    Mutates and returns the state. Candidates are ranked ascending by
    fitness (lower is better); the best-so-far record is updated from this
    population. In the CMA modes the candidates must be the population
    ``cma_ask`` last returned (ConfigError otherwise), since the step-size
    path is whitened with the draws behind them.
    """
    cfg = state.config
    candidates = np.asarray(candidates, dtype=np.float64)
    fitnesses = np.asarray(fitnesses, dtype=np.float64)
    if candidates.shape != (cfg.population, cfg.dimension) or fitnesses.shape != (cfg.population,):
        raise ConfigError(
            f"expected {cfg.population} candidates of dimension {cfg.dimension}"
        )
    if not np.all(np.isfinite(fitnesses)):
        raise FitnessError("non-finite fitness in population")
    if cfg.mode != "elite-eda" and not np.array_equal(candidates, state._asked):
        raise ConfigError(f"{cfg.mode} tell needs the population cma_ask last returned")

    order = np.argsort(fitnesses, kind="stable")
    if fitnesses[order[0]] < state.best_fitness:
        state.best_fitness = float(fitnesses[order[0]])
        state.best_vector = candidates[order[0]].copy()

    elite = order[: cfg.elite]
    if cfg.mode == "elite-eda":
        _tell_elite_eda(state, candidates[elite])
    else:
        _tell_cma(state, candidates[elite], state._z[elite])
    state.generation += 1
    if cfg.mode != "sep-cma":
        _factor(state)
    return state


def _tell_elite_eda(state: CmaState, elites: np.ndarray) -> None:
    cfg = state.config
    state.mean = elites.mean(axis=0)
    centered = elites - state.mean[None, :]
    state.cov = (centered.T @ centered) / elites.shape[0] + cfg.cov_floor * np.eye(
        cfg.dimension
    )
    state.sigma = 1.0


def _tell_cma(state: CmaState, elites: np.ndarray, elite_z: np.ndarray) -> None:
    """Rank-mu / rank-one update of mean, step size, paths and covariance.

    The step-size path takes A^-1 y_w for the factor A that sampled the
    population, which is the weighted mean of the elites' draws ``elite_z``.
    sep-cma keeps only the diagonal of each covariance term, clipped to
    ``cov_floor``.
    """
    cfg = state.config
    n = cfg.dimension
    weights, mu_eff, c_sigma, d_sigma, c_c, c_1, c_mu, chi_n = state._rates

    ys = (elites - state.mean[None, :]) / state.sigma
    y_w = weights @ ys

    state.path_sigma = (1.0 - c_sigma) * state.path_sigma + math.sqrt(
        c_sigma * (2.0 - c_sigma) * mu_eff
    ) * (weights @ elite_z)

    t = state.generation + 1
    ps_norm = float(np.linalg.norm(state.path_sigma))
    h_sigma = ps_norm / math.sqrt(1.0 - (1.0 - c_sigma) ** (2 * t)) < (
        1.4 + 2.0 / (n + 1.0)
    ) * chi_n
    state.path_cov = (1.0 - c_c) * state.path_cov + (
        h_sigma * math.sqrt(c_c * (2.0 - c_c) * mu_eff)
    ) * y_w

    decay = 1.0 - c_1 - c_mu
    rank_one_adj = (1.0 - h_sigma) * c_c * (2.0 - c_c)
    kept = (decay + c_1 * rank_one_adj) * state.cov
    if cfg.mode == "sep-cma":
        rank_mu = weights @ ys**2
        state.cov = np.maximum(
            kept + c_1 * state.path_cov**2 + c_mu * rank_mu, cfg.cov_floor
        )
    else:
        rank_mu = (ys.T * weights) @ ys
        state.cov = kept + c_1 * np.outer(state.path_cov, state.path_cov) + c_mu * rank_mu

    state.mean = state.mean + state.sigma * y_w
    state.sigma = state.sigma * math.exp((c_sigma / d_sigma) * (ps_norm / chi_n - 1.0))


def project_mask(
    candidate: np.ndarray, coords: np.ndarray, frame_shape: tuple[int, int]
) -> SparseVisualPrompt:
    """Map a 3K offset vector onto the K masked coordinates.

    Entry layout is three consecutive channel offsets per coordinate, in
    coordinate order; all unmasked pixels are implicitly zero.
    """
    candidate = np.asarray(candidate, dtype=np.float64).ravel()
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    if candidate.size != 3 * coords.shape[0]:
        raise ConfigError(
            f"candidate length {candidate.size} != 3 x {coords.shape[0]} masked pixels"
        )
    return SparseVisualPrompt(coords, candidate.reshape(-1, 3), frame_shape)


def _search(state: CmaState, rng: np.random.Generator, fitness):
    """Ask, evaluate and tell one population per step; yield the state after each.

    The caller owns the stop rule. ``cma_ask`` and ``cma_tell`` are looked
    up as module globals at each call, so a wrapper installed on them by
    name sees every generation.
    """
    while True:
        candidates = cma_ask(state, rng)
        state = cma_tell(state, candidates, fitness(candidates))
        yield state


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of one sparse-prompt search."""

    prompt: SparseVisualPrompt
    best_fitness: float
    baseline_fitness: float
    history: tuple[float, ...]   # best-so-far after each generation
    evaluations: int


def optimize_svp(
    oracle,
    x: np.ndarray,
    coords: np.ndarray,
    config: CmaConfig,
    base: np.ndarray | None = None,
) -> OptimizeResult:
    """Search sparse-prompt offsets minimizing mean prediction entropy.

    Runs ask/evaluate/tell for at most ``config.generations`` generations,
    stopping early once the best-so-far fitness stalls. The zero vector
    (no adaptation) is evaluated alongside generation one, so the returned
    argmin prompt is never worse than no prompt. The oracle's scorer is
    bound to (x, coords) once, so the unprompted pass runs at most once per
    search; ``base``, the frame's unprompted entropy map, skips it (see
    ``ToyOracle.svp_scorer``). ``best_fitness`` is then the returned
    prompt's mean entropy on x, bit for bit.
    """
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    if coords.shape[0] == 0:
        raise ConfigError("mask must contain at least one coordinate")
    frame_shape = x.shape[:2]
    if config.dimension != 3 * coords.shape[0]:
        raise ConfigError(
            f"config dimension {config.dimension} != 3 x {coords.shape[0]} masked pixels"
        )
    coords = SparseVisualPrompt.zeros(coords, frame_shape).coords  # validated once
    score = oracle.svp_scorer(x, coords, base)

    def fitness(pop: np.ndarray) -> np.ndarray:
        values = score(pop.reshape(pop.shape[0], -1, 3))
        if not np.all(np.isfinite(values)):
            raise FitnessError("entropy fitness is non-finite")
        return values

    state = cma_init(config)
    state.best_vector = np.zeros(config.dimension)
    baseline = state.best_fitness = float(fitness(state.best_vector[None, :])[0])

    history: list[float] = []
    search = _search(state, np.random.default_rng(config.seed), fitness)
    for state in islice(search, config.generations):
        history.append(state.best_fitness)
        if (
            len(history) > STALL_WINDOW
            and history[-STALL_WINDOW - 1] - history[-1] < TOL_F
        ):
            break

    return OptimizeResult(
        prompt=project_mask(state.best_vector, coords, frame_shape),
        best_fitness=state.best_fitness,
        baseline_fitness=baseline,
        history=tuple(history),
        evaluations=1 + config.population * len(history),
    )


# -- benchmark harness ----------------------------------------------------


def sphere(v: np.ndarray) -> np.ndarray:
    """Sum of squares, minimum 0 at the origin. Accepts (m, n) batches."""
    v = np.atleast_2d(v)
    return np.sum(v**2, axis=1)


def rosenbrock(v: np.ndarray) -> np.ndarray:
    """Classic banana valley, minimum 0 at all-ones. Accepts (m, n) batches."""
    v = np.atleast_2d(v)
    return np.sum(100.0 * (v[:, 1:] - v[:, :-1] ** 2) ** 2 + (1.0 - v[:, :-1]) ** 2, axis=1)


BENCH_FUNCTIONS = {"sphere": sphere, "rosenbrock": rosenbrock}


@dataclass(frozen=True)
class BenchResult:
    function: str
    dimension: int
    mode: str
    seed: int
    evaluations: int
    best_fitness: float


def run_benchmark(
    function: str,
    dimension: int,
    mode: str,
    seed: int,
    max_evaluations: int,
    target: float = 0.0,
    sigma0: float = 0.3,
    population: int | None = None,
    elite: int | None = None,
) -> BenchResult:
    """Minimize one benchmark function until target fitness or budget.

    Whole populations only: at most ``max_evaluations // population``
    generations. A budget below one population evaluates nothing and
    raises ConfigError.
    """
    if function not in BENCH_FUNCTIONS:
        raise ConfigError(
            f"unknown benchmark {function!r}, expected one of {sorted(BENCH_FUNCTIONS)}"
        )
    fn = BENCH_FUNCTIONS[function]
    config = CmaConfig(
        dimension=dimension,
        population=population,
        elite=elite,
        generations=max(1, max_evaluations),
        sigma0=sigma0,
        mode=mode,
        seed=seed,
    )
    if max_evaluations < config.population:
        raise ConfigError(
            f"evaluation budget {max_evaluations} is below one population "
            f"({config.population} evaluations)"
        )
    search = _search(cma_init(config), np.random.default_rng(seed), fn)
    for generations, state in enumerate(islice(search, max_evaluations // config.population), 1):
        if state.best_fitness < target:
            break
    return BenchResult(
        function=function,
        dimension=dimension,
        mode=mode,
        seed=seed,
        evaluations=generations * config.population,
        best_fitness=state.best_fitness,
    )
