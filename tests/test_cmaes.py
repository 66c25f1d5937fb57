import math

import numpy as np
import pytest

from adaptfly.cmaes import (
    CmaConfig,
    cma_ask,
    cma_init,
    cma_tell,
    optimize_svp,
    project_mask,
    rosenbrock,
    run_benchmark,
    sphere,
)
from adaptfly.errors import ConfigError, FitnessError
from adaptfly.oracle import DomainSpec, make_toy_oracle, mean_entropy, render_frame
from adaptfly.prompts import place_mask, sparsity_budget


def independent_csa_es(fn, n, sigma0, seed, max_evals, target):
    """Isotropic (mu/mu_w, lambda)-ES with cumulative step-size adaptation.

    Deliberately separate from the library implementation; serves as the
    convergence cross-check on the sphere.
    """
    rng = np.random.default_rng(seed)
    lam = 4 + int(3 * math.log(n))
    mu = lam // 2
    w = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    w /= w.sum()
    mu_eff = 1.0 / np.sum(w**2)
    c_s = (mu_eff + 2) / (n + mu_eff + 5)
    d_s = 1 + 2 * max(0.0, math.sqrt((mu_eff - 1) / (n + 1)) - 1) + c_s
    chi_n = math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n * n))

    m, sigma, p = np.zeros(n), sigma0, np.zeros(n)
    best, evals = math.inf, 0
    while evals + lam <= max_evals:
        z = rng.standard_normal((lam, n))
        x = m + sigma * z
        f = fn(x)
        evals += lam
        order = np.argsort(f)
        best = min(best, float(f[order[0]]))
        if best < target:
            break
        zw = w @ z[order[:mu]]
        m = m + sigma * zw
        p = (1 - c_s) * p + math.sqrt(c_s * (2 - c_s) * mu_eff) * zw
        sigma *= math.exp((c_s / d_s) * (np.linalg.norm(p) / chi_n - 1))
    return best, evals


class TestConfigAndInit:
    def test_init_state_sigma_one(self):
        state = cma_init(CmaConfig(dimension=4, sigma0=1.0, mode="elite-eda"))
        np.testing.assert_array_equal(state.mean, np.zeros(4))
        np.testing.assert_allclose(state.cov, np.eye(4))

    def test_init_state_scaled(self):
        state = cma_init(CmaConfig(dimension=4, sigma0=0.5, mode="elite-eda"))
        np.testing.assert_allclose(state.cov, 0.25 * np.eye(4))
        full = cma_init(CmaConfig(dimension=4, sigma0=0.5, mode="full-cma"))
        assert full.sigma == 0.5
        np.testing.assert_allclose(full.cov, np.eye(4))

    def test_elite_larger_than_population_rejected(self):
        with pytest.raises(ConfigError):
            CmaConfig(dimension=4, population=8, elite=9)

    def test_mode_validated(self):
        with pytest.raises(ConfigError):
            CmaConfig(dimension=4, mode="annealing")


class TestAsk:
    def test_same_seed_identical_samples(self):
        cfg = CmaConfig(dimension=6, population=10, seed=3)
        state = cma_init(cfg)
        a = cma_ask(state, np.random.default_rng(3))
        b = cma_ask(state, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_sample_mean_approaches_distribution_mean(self):
        cfg = CmaConfig(dimension=5, population=100_000, sigma0=1.0, seed=0)
        state = cma_init(cfg)
        state.mean = np.arange(5, dtype=float)
        samples = cma_ask(state, np.random.default_rng(11))
        se = 1.0 / math.sqrt(samples.shape[0])
        assert np.all(np.abs(samples.mean(axis=0) - state.mean) < 3 * se)

    def test_degenerate_covariance_sticks_to_mean(self):
        cfg = CmaConfig(dimension=4, population=64, sigma0=1.0, mode="elite-eda",
                        cov_floor=1e-12, seed=0)
        state = cma_init(cfg)
        state.cov = np.zeros((4, 4))
        from adaptfly.cmaes import _factor
        _factor(state)
        samples = cma_ask(state, np.random.default_rng(0))
        assert np.max(np.abs(samples - state.mean)) < 1e-4


def dense_full_cma_run(generations=30, n=153, seed=0):
    """Yield (state, candidates, fitnesses) for each generation before its tell."""
    state = cma_init(CmaConfig(dimension=n, population=16, elite=8, seed=seed))
    rng = np.random.default_rng(seed)
    for _ in range(generations):
        cands = cma_ask(state, rng)
        fits = rosenbrock(cands)
        yield state, cands, fits
        state = cma_tell(state, cands, fits)


class TestCholeskyFactor:
    """Dense full-cma samples and whitens with the Cholesky factor of C."""

    def test_factor_reproduces_covariance(self):
        for state, _, _ in dense_full_cma_run():
            factor = state._sample_factor
            assert np.array_equal(factor, np.tril(factor))
            err = np.linalg.norm(factor @ factor.T - state.cov) / np.linalg.norm(state.cov)
            assert err <= 1e-12

    def test_elite_draws_equal_triangular_solve(self):
        # weights @ z[elites] is L^-1 y_w, the whitened mean step.
        checked = 0
        for state, cands, fits in dense_full_cma_run():
            elite = np.argsort(fits, kind="stable")[: state.config.elite]
            weights = state._rates[0]
            y_w = weights @ ((cands[elite] - state.mean) / state.sigma)
            solved = np.linalg.solve(state._sample_factor, y_w)
            whitened = weights @ state._z[elite]
            assert np.linalg.norm(whitened - solved) <= 1e-10 * np.linalg.norm(solved)
            checked += 1
        assert checked == 30

    @pytest.mark.parametrize("cov", [np.zeros((4, 4)), np.diag([1.0, -1.0, 1.0, -1.0])])
    def test_zero_or_indefinite_covariance_falls_back_to_eigh(self, cov):
        from adaptfly.cmaes import _factor

        cfg = CmaConfig(dimension=4, population=64, sigma0=1.0, cov_floor=1e-12, seed=0)
        state = cma_init(cfg)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov)
        state.cov = cov
        _factor(state)
        # The clipped spectrum replaced C, as only the eigh path does.
        assert np.linalg.eigvalsh(state.cov).min() >= cfg.cov_floor
        degenerate = np.linalg.eigvalsh(cov) <= 0
        basis = np.linalg.eigh(cov)[1][:, degenerate]
        samples = cma_ask(state, np.random.default_rng(0))
        assert np.max(np.abs((samples - state.mean) @ basis)) < 1e-4


class TestProjectMask:
    def test_zero_candidate(self):
        coords = np.array([[0, 0], [1, 1]])
        p = project_mask(np.zeros(6), coords, (4, 4))
        assert p.size == 2 and np.all(p.offsets == 0)

    def test_channel_layout(self):
        coords = np.array([[0, 1], [2, 3]])
        p = project_mask(np.arange(6.0), coords, (4, 4))
        np.testing.assert_array_equal(p.offsets[0], [0, 1, 2])
        np.testing.assert_array_equal(p.offsets[1], [3, 4, 5])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            project_mask(np.zeros(7), np.array([[0, 0], [1, 1]]), (4, 4))


class TestTell:
    def test_elite_one_mean_is_best(self):
        cfg = CmaConfig(dimension=3, population=5, elite=1, mode="elite-eda", seed=0)
        state = cma_init(cfg)
        cands = np.arange(15.0).reshape(5, 3)
        fits = np.array([3.0, 0.5, 2.0, 4.0, 1.0])
        state = cma_tell(state, cands, fits)
        np.testing.assert_array_equal(state.mean, cands[1])
        np.testing.assert_array_equal(state.best_vector, cands[1])

    def test_identical_candidates_floor_covariance(self):
        cfg = CmaConfig(dimension=3, population=4, elite=4, mode="elite-eda",
                        cov_floor=1e-10, seed=0)
        state = cma_init(cfg)
        cands = np.ones((4, 3))
        state = cma_tell(state, cands, np.zeros(4))
        np.testing.assert_allclose(state.cov, 1e-10 * np.eye(3))

    def test_non_finite_fitness_rejected(self):
        cfg = CmaConfig(dimension=2, population=4, mode="elite-eda", seed=0)
        state = cma_init(cfg)
        with pytest.raises(FitnessError):
            cma_tell(state, np.zeros((4, 2)), np.array([1.0, np.nan, 0.0, 2.0]))

    def test_population_size_checked(self):
        cfg = CmaConfig(dimension=2, population=4, seed=0)
        state = cma_init(cfg)
        with pytest.raises(ConfigError):
            cma_tell(state, np.zeros((3, 2)), np.zeros(3))

    @pytest.mark.parametrize("mode", ["full-cma", "elite-eda"])
    def test_covariance_stays_positive_definite(self, mode):
        cfg = CmaConfig(dimension=6, population=8, elite=3, mode=mode,
                        cov_floor=1e-12, seed=1)
        state = cma_init(cfg)
        rng = np.random.default_rng(2)
        for _ in range(25):
            cands = cma_ask(state, rng)
            state = cma_tell(state, cands, sphere(cands))
            c = state.cov
            assert np.allclose(c, c.T)
            assert np.linalg.eigvalsh(c).min() >= cfg.cov_floor

    @pytest.mark.parametrize("mode, expected", [
        ("full-cma", 31),  # cma_init, then every generation
        ("elite-eda", 31),
        ("sep-cma", 0),    # samples with the square root of its diagonal
    ])
    def test_factorizations_per_search(self, monkeypatch, mode, expected):
        import adaptfly.cmaes as cmaes_mod

        calls = []
        factor = cmaes_mod._factor
        monkeypatch.setattr(cmaes_mod, "_factor", lambda s: calls.append(1) or factor(s))
        cfg = CmaConfig(dimension=153, population=16, elite=8, mode=mode, seed=0)
        state = cma_init(cfg)
        rng = np.random.default_rng(0)
        for _ in range(30):
            cands = cma_ask(state, rng)
            state = cma_tell(state, cands, sphere(cands))
        assert len(calls) == expected

    def test_full_cma_rejects_foreign_candidates(self):
        # The step-size path is whitened with the draws behind the asked
        # population, so only that population may be told.
        cfg = CmaConfig(dimension=4, population=6, elite=3, seed=0)
        state = cma_init(cfg)
        with pytest.raises(ConfigError):
            cma_tell(state, np.zeros((6, 4)), np.zeros(6))  # nothing asked yet
        rng = np.random.default_rng(0)
        cands = cma_ask(state, rng)
        with pytest.raises(ConfigError):
            cma_tell(state, cands + 1e-3, sphere(cands))
        cma_ask(state, rng)
        with pytest.raises(ConfigError):
            cma_tell(state, cands, sphere(cands))  # an earlier population
        cands = cma_ask(state, rng)
        cma_tell(state, cands, sphere(cands))

    @pytest.mark.parametrize("mode", ["full-cma", "elite-eda"])
    def test_best_so_far_non_increasing(self, mode):
        cfg = CmaConfig(dimension=5, population=12, elite=4, mode=mode, seed=5)
        state = cma_init(cfg)
        rng = np.random.default_rng(5)
        best = []
        for _ in range(30):
            cands = cma_ask(state, rng)
            state = cma_tell(state, cands, rosenbrock(cands))
            best.append(state.best_fitness)
        assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))


def ros_hansen_step(cfg, mean, sigma, path_sigma, path_cov, cov, generation,
                    candidates, fitnesses):
    """One separable CMA-ES update in plain Python loops over floats.

    Ros & Hansen (PPSN 2008): the tutorial's rates and paths with a
    diagonal covariance, whose learning rates c_1 and c_mu are scaled by
    (n + 2) / 3. The draws behind each elite are recovered from its step
    as y / sqrt(C), not taken from the library. Written apart from the
    library on purpose; returns (mean, sigma, path_sigma, path_cov, cov).
    """
    n, mu = cfg.dimension, cfg.elite
    raw = [math.log(mu + 0.5) - math.log(i) for i in range(1, mu + 1)]
    w = [r / sum(raw) for r in raw]
    mu_eff = 1.0 / sum(wi * wi for wi in w)
    c_s = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_s = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_s
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1_dense = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu_dense = min(1.0 - c_1_dense,
                     2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    c_1 = c_1_dense * (n + 2.0) / 3.0
    c_mu = min(1.0 - c_1, c_mu_dense * (n + 2.0) / 3.0)
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))

    order = sorted(range(len(fitnesses)), key=lambda k: fitnesses[k])[:mu]
    ys = [[(candidates[k][j] - mean[j]) / sigma for j in range(n)] for k in order]
    y_w = [sum(w[i] * ys[i][j] for i in range(mu)) for j in range(n)]
    z_w = [y_w[j] / math.sqrt(cov[j]) for j in range(n)]

    a = math.sqrt(c_s * (2.0 - c_s) * mu_eff)
    ps = [(1.0 - c_s) * path_sigma[j] + a * z_w[j] for j in range(n)]
    ps_norm = math.sqrt(sum(v * v for v in ps))
    h = ps_norm / math.sqrt(1.0 - (1.0 - c_s) ** (2 * (generation + 1))) < (
        1.4 + 2.0 / (n + 1.0)) * chi_n
    b = math.sqrt(c_c * (2.0 - c_c) * mu_eff) if h else 0.0
    pc = [(1.0 - c_c) * path_cov[j] + b * y_w[j] for j in range(n)]
    keep = 1.0 - c_1 - c_mu + (0.0 if h else c_1 * c_c * (2.0 - c_c))
    new_cov = []
    for j in range(n):
        rank_mu = sum(w[i] * ys[i][j] ** 2 for i in range(mu))
        new_cov.append(max(cfg.cov_floor, keep * cov[j] + c_1 * pc[j] ** 2 + c_mu * rank_mu))
    new_mean = [mean[j] + sigma * y_w[j] for j in range(n)]
    new_sigma = sigma * math.exp((c_s / d_s) * (ps_norm / chi_n - 1.0))
    return new_mean, new_sigma, ps, pc, new_cov


def ellipsoid(v: np.ndarray) -> np.ndarray:
    """Axis-aligned ellipsoid with condition number 1e6. Accepts (m, n) batches."""
    v = np.atleast_2d(v)
    return np.sum(1e6 ** (np.arange(v.shape[1]) / (v.shape[1] - 1)) * v**2, axis=1)


class TestSepCma:
    @pytest.mark.parametrize("n, population, elite, warm", [
        (7, 10, 5, 4),
        (2, 40, 20, 3),   # c_mu capped at 1 - c_1 after scaling
        (153, 16, 8, 6),  # a massive agent's search
    ])
    def test_tell_matches_plain_loop_reference(self, n, population, elite, warm):
        cfg = CmaConfig(dimension=n, population=population, elite=elite, mode="sep-cma",
                        seed=n)
        state = cma_init(cfg)
        rng = np.random.default_rng(n)
        for _ in range(warm):  # non-zero paths and a non-identity diagonal
            cands = cma_ask(state, rng)
            state = cma_tell(state, cands, ellipsoid(cands))
        assert state.cov.shape == (n,) and np.ptp(state.cov) > 0
        before = (state.mean.tolist(), state.sigma, state.path_sigma.tolist(),
                  state.path_cov.tolist(), state.cov.tolist(), state.generation)
        cands = cma_ask(state, rng)
        fits = ellipsoid(cands)
        expected = ros_hansen_step(cfg, *before, cands.tolist(), fits.tolist())
        state = cma_tell(state, cands, fits)
        got = (state.mean, state.sigma, state.path_sigma, state.path_cov, state.cov)
        for g, e in zip(got, expected):
            np.testing.assert_allclose(g, e, rtol=1e-12, atol=1e-12)

    def test_samples_scale_with_the_diagonal(self):
        cfg = CmaConfig(dimension=3, population=200_000, sigma0=0.5, mode="sep-cma", seed=0)
        state = cma_init(cfg)
        np.testing.assert_array_equal(state.cov, np.ones(3))
        state.cov = np.array([4.0, 1.0, 0.25])
        samples = cma_ask(state, np.random.default_rng(0))
        np.testing.assert_allclose(samples.std(axis=0), 0.5 * np.sqrt(state.cov), rtol=0.01)

    @pytest.mark.parametrize("seed", range(5))
    def test_sphere_within_criterion_one_budget(self, seed):
        r = run_benchmark("sphere", 20, "sep-cma", seed, max_evaluations=10_000, target=1e-8)
        assert r.best_fitness < 1e-8 and r.evaluations <= 10_000

    def test_rejects_foreign_candidates(self):
        cfg = CmaConfig(dimension=4, population=6, elite=3, mode="sep-cma", seed=0)
        state = cma_init(cfg)
        with pytest.raises(ConfigError, match="sep-cma"):
            cma_tell(state, np.zeros((6, 4)), np.zeros(6))  # nothing asked yet
        rng = np.random.default_rng(0)
        cands = cma_ask(state, rng)
        with pytest.raises(ConfigError):
            cma_tell(state, cands + 1e-3, sphere(cands))
        cma_ask(state, rng)
        with pytest.raises(ConfigError):
            cma_tell(state, cands, sphere(cands))  # an earlier population

    @pytest.mark.parametrize("floor", [1e-2, 0.5])
    def test_diagonal_clipped_at_cov_floor(self, floor):
        # The ellipsoid's steep axes pull their variances down to the floor.
        cfg = CmaConfig(dimension=8, population=10, elite=5, mode="sep-cma",
                        cov_floor=floor, seed=3)
        state = cma_init(cfg)
        rng = np.random.default_rng(3)
        clipped = 0
        for _ in range(60):
            cands = cma_ask(state, rng)
            state = cma_tell(state, cands, ellipsoid(cands))
            assert state.cov.min() >= floor
            clipped += int(np.sum(state.cov == floor))
        assert clipped > 0


class TestConvergence:
    def test_sphere_20d_reference(self):
        r = run_benchmark("sphere", 20, "full-cma", seed=0,
                          max_evaluations=10_000, target=1e-8)
        assert r.best_fitness < 1e-8
        assert r.evaluations <= 10_000

    def test_independent_reimplementation_agrees_on_sphere(self):
        # The simple isotropic ES reaches the same target in the same
        # budget, confirming the goal is attainable and our optimizer is
        # not trivially broken.
        best, evals = independent_csa_es(sphere, 20, 0.3, seed=0,
                                         max_evals=10_000, target=1e-8)
        assert best < 1e-8 and evals <= 10_000

    def test_rosenbrock_10d_reference(self):
        r = run_benchmark("rosenbrock", 10, "full-cma", seed=0,
                          max_evaluations=50_000, target=1e-4)
        assert r.best_fitness < 1e-4

    def test_elite_eda_sphere_relative_progress(self):
        # Default EDA population; fitness after 30 generations falls below
        # 1e-4 of the first generation's best.
        cfg = CmaConfig(dimension=5, sigma0=1.0, mode="elite-eda", seed=0)
        state = cma_init(cfg)
        rng = np.random.default_rng(0)
        initial = None
        for _ in range(30):
            cands = cma_ask(state, rng)
            state = cma_tell(state, cands, sphere(cands))
            if initial is None:
                initial = state.best_fitness
        assert state.best_fitness < 1e-4 * initial

    def test_unknown_benchmark_function(self):
        with pytest.raises(ConfigError):
            run_benchmark("ackley", 5, "full-cma", 0, 100)

    @pytest.mark.parametrize("mode", ["full-cma", "sep-cma", "elite-eda"])
    def test_benchmark_evaluates_whole_populations_within_budget(self, mode, monkeypatch):
        from adaptfly import cmaes

        batches = []
        monkeypatch.setitem(cmaes.BENCH_FUNCTIONS, "sphere",
                            lambda v: batches.append(len(v)) or sphere(v))
        result = run_benchmark("sphere", 3, mode, 0, max_evaluations=20, target=-1.0,
                               population=6, elite=3)
        assert batches == [6, 6, 6] and result.evaluations == 18
        batches.clear()
        result = run_benchmark("sphere", 3, mode, 0, max_evaluations=20, target=math.inf,
                               population=6, elite=3)
        assert batches == [6] and result.evaluations == 6


@pytest.fixture(scope="module")
def shifted_problem():
    oracle = make_toy_oracle(seed=7)
    domain = DomainSpec(id="d", gain=(0.75, 0.8, 0.72), bias=(-0.15, 0.12, -0.1),
                        noise_scale=0.01, seed=4)
    frame = render_frame(oracle, domain, 0)
    umap = oracle.uncertainty_map(frame, passes=4, dropout_rate=0.1, seed=9)
    coords = place_mask(umap, sparsity_budget(0.05, 32, 32))
    return oracle, frame, coords


class TestOptimizeSvp:
    def test_elite_eda_reduces_entropy_on_planted_shift(self, shifted_problem):
        oracle, frame, coords = shifted_problem
        cfg = CmaConfig(dimension=3 * coords.shape[0], population=16, elite=4,
                        generations=30, sigma0=0.3, mode="elite-eda", seed=1)
        result = optimize_svp(oracle, frame, coords, cfg)
        rel = (result.baseline_fitness - result.best_fitness) / result.baseline_fitness
        assert rel >= 0.02
        assert len(result.history) <= 30
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_never_worse_than_no_prompt_on_clean_frame(self):
        oracle = make_toy_oracle(seed=7)
        frame = oracle.base_image()
        coords = place_mask(oracle.uncertainty_map(frame, 1, 0.0, 0), 10)
        cfg = CmaConfig(dimension=30, population=8, elite=2, generations=10,
                        sigma0=0.2, mode="elite-eda", seed=2)
        result = optimize_svp(oracle, frame, coords, cfg)
        assert result.best_fitness <= result.baseline_fitness
        assert result.best_fitness <= mean_entropy(oracle.predict(frame)) + 1e-12

    def test_early_stop_on_stalled_fitness(self):
        oracle = make_toy_oracle(seed=7, temperature=0.002)  # razor sharp, no slope
        frame = oracle.base_image()
        coords = place_mask(oracle.uncertainty_map(frame, 1, 0.0, 0), 5)
        cfg = CmaConfig(dimension=15, population=8, elite=2, generations=200,
                        sigma0=0.05, mode="elite-eda", seed=3)
        result = optimize_svp(oracle, frame, coords, cfg)
        assert len(result.history) < 200

    def test_batched_path_predicts_once_per_search(self, shifted_problem, monkeypatch):
        # The scorer is bound to the frame and mask once: one unprompted
        # pass scores the baseline and every generation.
        oracle, frame, coords = shifted_problem
        calls = []
        for name in ("predict", "entropy_map"):
            forward = getattr(type(oracle), name)
            monkeypatch.setattr(type(oracle), name, lambda self, *a, _f=forward, **k:
                                calls.append(1) or _f(self, *a, **k))
        cfg = CmaConfig(dimension=3 * coords.shape[0], population=6, elite=2,
                        generations=4, sigma0=0.3, seed=4)
        result = optimize_svp(oracle, frame, coords, cfg)
        assert result.evaluations == 1 + 4 * 6
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["full-cma", "sep-cma", "elite-eda"])
    @pytest.mark.parametrize("generations", [3, 200])
    def test_evaluations_count_the_baseline_and_whole_populations(self, mode, generations):
        # 200 generations: the razor-sharp oracle stalls the search first.
        oracle = make_toy_oracle(seed=7, temperature=0.002)
        frame = oracle.base_image()
        coords = place_mask(oracle.uncertainty_map(frame, 1, 0.0, 0), 5)
        cfg = CmaConfig(dimension=15, population=8, elite=2, generations=generations,
                        sigma0=0.05, mode=mode, seed=3)
        result = optimize_svp(oracle, frame, coords, cfg)
        if generations == 3:
            assert len(result.history) == 3
        else:
            assert len(result.history) < 200
        assert result.evaluations == 1 + cfg.population * len(result.history)

    def test_each_generation_asks_and_tells_by_module_name(self, shifted_problem,
                                                           monkeypatch):
        # Wrappers installed on the module's names see every generation.
        from adaptfly import cmaes

        oracle, frame, coords = shifted_problem
        calls = []
        for name in ("cma_ask", "cma_tell"):
            fn = getattr(cmaes, name)
            monkeypatch.setattr(cmaes, name, lambda *a, _n=name, _f=fn:
                                calls.append(_n) or _f(*a))
        cfg = CmaConfig(dimension=3 * coords.shape[0], population=6, elite=2,
                        generations=4, sigma0=0.3, seed=4)
        result = optimize_svp(oracle, frame, coords, cfg)
        assert calls == ["cma_ask", "cma_tell"] * len(result.history)
        calls.clear()
        bench = cmaes.run_benchmark("sphere", 4, "sep-cma", 0, max_evaluations=40,
                                    target=-1.0, population=8)
        assert calls == ["cma_ask", "cma_tell"] * 5 and bench.evaluations == 40

    def test_empty_mask_rejected(self, shifted_problem):
        oracle, frame, _ = shifted_problem
        cfg = CmaConfig(dimension=3, population=4, elite=2, seed=0)
        with pytest.raises(ConfigError):
            optimize_svp(oracle, frame, np.zeros((0, 2)), cfg)

    def test_dimension_must_match_mask(self, shifted_problem):
        oracle, frame, coords = shifted_problem
        cfg = CmaConfig(dimension=5, population=4, elite=2, seed=0)
        with pytest.raises(ConfigError):
            optimize_svp(oracle, frame, coords, cfg)
