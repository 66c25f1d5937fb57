"""A brute-force floor under every sparse-prompt search.

The toy oracle classifies each pixel on its own, and a prompted pixel
becomes ``clip(x + offset, 0, 1)``, so any colour of the unit cube is
reachable. No prompt can therefore score below the unprompted entropy map
with each of its K masked pixels set to H*, the least pixel entropy over
the cube. H* is found here by a grid over the cube, refined locally around
its best cells; the library holds no code for it.
"""

import numpy as np
import pytest

from adaptfly.fleet import ScenarioConfig, reference_config, run_scenario
from adaptfly.oracle import ToyOracle, make_toy_oracle, render_frame


def _pixel_entropies(oracle, colours: np.ndarray) -> np.ndarray:
    """The oracle's entropy of each colour (N, 3), packed into frames."""
    size = oracle.height * oracle.width
    padded = np.concatenate([colours, np.repeat(colours[:1], -len(colours) % size, axis=0)])
    frames = padded.reshape(-1, oracle.height, oracle.width, 3)
    return np.concatenate([oracle.entropy_map(f).ravel() for f in frames])[: len(colours)]


def least_pixel_entropy(oracle, cells=16, keep=4, rounds=12):
    """(H*, its colour): a (cells + 1)^3 grid over the unit cube, then
    ``rounds`` finer grids of a quarter the spacing around the ``keep`` best
    points of the last one."""
    axis = np.linspace(0.0, 1.0, cells + 1)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    step = 1.0 / cells
    offsets = np.linspace(-step, step, 9)
    for _ in range(rounds):
        h = _pixel_entropies(oracle, points)
        best = points[np.argsort(h, kind="stable")[:keep]]
        local = np.stack(np.meshgrid(offsets, offsets, offsets, indexing="ij"), -1).reshape(-1, 3)
        points = np.unique(np.clip(best[:, None, :] + local[None], 0.0, 1.0).reshape(-1, 3), axis=0)
        offsets = offsets / 4
    h = _pixel_entropies(oracle, points)
    i = int(np.argmin(h))
    return float(h[i]), points[i]


def floor(base: np.ndarray, coords: np.ndarray, h_star: float) -> float:
    """The mean of ``base`` with the pixels at ``coords`` set to H*, as the scorer means."""
    values = np.array(base, dtype=np.float64).ravel()
    values[coords[:, 0] * base.shape[1] + coords[:, 1]] = h_star
    return float(values[None].mean(axis=1)[0])


@pytest.fixture(scope="module")
def oracle():
    return make_toy_oracle(**vars(ScenarioConfig.from_dict(reference_config(0)).oracle))


@pytest.fixture(scope="module")
def h_star(oracle):
    return least_pixel_entropy(oracle)


def test_the_least_entropy_colour_is_a_class_colour_corner(oracle, h_star):
    value, colour = h_star
    assert np.array_equal(colour, [1.0, 1.0, 1.0])
    assert 0.0 < value < 1e-3
    # every grid point of a fine uniform grid lies above it
    axis = np.linspace(0.0, 1.0, 41)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    assert _pixel_entropies(oracle, grid).min() >= value


def test_the_scorer_reaches_the_floor_at_the_argmin_colour(oracle, h_star):
    value, colour = h_star
    domain = ScenarioConfig.from_dict(reference_config(0)).domains[1]
    x = render_frame(oracle, domain, 3)
    coords = np.argwhere(np.ones(oracle.frame_shape, bool))[::37][:51]
    pixels = x[coords[:, 0], coords[:, 1]]
    # A step of 1 past a face of the cube lands on it exactly after the clip.
    offsets = np.where(colour >= 1.0, 1.0, np.where(colour <= 0.0, -1.0, colour - pixels))
    assert np.array_equal(np.clip(pixels + offsets, 0.0, 1.0), np.broadcast_to(colour, pixels.shape))
    base = oracle.entropy_map(x)
    score = oracle.svp_scorer(x, coords, base)
    assert score(offsets[None])[0] == floor(base, coords, value)
    assert score(np.zeros((1, *pixels.shape)))[0] > floor(base, coords, value)


@pytest.mark.parametrize("seed", range(5))
def test_no_reference_search_scores_below_the_floor(monkeypatch, h_star, seed):
    """Every candidate of every search, and every warped prompt scored."""
    value, _ = h_star
    scored = []
    svp_scorer = ToyOracle.svp_scorer

    def recording_scorer(self, x, coords, base=None):
        score = svp_scorer(self, x, coords, base)
        lowest = floor(self.entropy_map(x) if base is None else base,
                       np.asarray(coords).reshape(-1, 2), value)

        def recorded(offsets):
            values = score(offsets)
            scored.append((float(values.min()), lowest))
            return values

        return recorded

    monkeypatch.setattr(ToyOracle, "svp_scorer", recording_scorer)
    result = run_scenario(reference_config(seed))
    assert "optimize" in {r.adaptation_event for r in result.records}
    assert scored
    assert all(best >= lowest for best, lowest in scored), min(b - f for b, f in scored)
