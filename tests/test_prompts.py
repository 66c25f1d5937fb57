import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptfly.errors import CompositionError, ConfigError
from adaptfly.prompts import (
    SparseVisualPrompt,
    TokenPrompt,
    apply_svp,
    compose_tokens,
    place_mask,
    sparsity_budget,
    warp_svp,
)


class TestComposeTokens:
    def test_prompt_rows_first(self):
        prompt = TokenPrompt(np.arange(6).reshape(2, 3))
        seq = np.arange(100, 106).reshape(2, 3)
        out = compose_tokens(prompt, seq)
        assert out.shape == (4, 3)
        np.testing.assert_array_equal(out[:2], prompt.values)
        np.testing.assert_array_equal(out[2:], seq)

    def test_empty_prompt_is_identity(self):
        seq = np.random.default_rng(0).normal(size=(5, 4))
        out = compose_tokens(TokenPrompt.empty(4), seq)
        np.testing.assert_array_equal(out, seq)
        # the zero-dim empty prompt composes with any sequence
        out2 = compose_tokens(TokenPrompt(np.zeros((0, 0))), seq)
        np.testing.assert_array_equal(out2, seq)

    def test_reference_shape(self):
        prompt = TokenPrompt(np.zeros((8, 768)))
        seq = np.zeros((1024, 768))
        assert compose_tokens(prompt, seq).shape == (1032, 768)

    def test_dim_mismatch(self):
        with pytest.raises(CompositionError):
            compose_tokens(TokenPrompt(np.zeros((2, 3))), np.zeros((4, 5)))

    def test_inputs_not_mutated(self):
        prompt = TokenPrompt(np.ones((2, 3)))
        seq = np.ones((2, 3))
        before = seq.copy()
        out = compose_tokens(prompt, seq)
        out[:] = -1
        np.testing.assert_array_equal(seq, before)
        np.testing.assert_array_equal(prompt.values, np.ones((2, 3)))


class TestApplySvp:
    def test_zero_offsets_bit_identical(self):
        rng = np.random.default_rng(1)
        x = rng.random((6, 7, 3))
        p = SparseVisualPrompt.zeros(np.array([[0, 0], [5, 6]]), (6, 7))
        out = apply_svp(x, p)
        assert np.array_equal(out, x)

    def test_exactly_k_pixels_change(self):
        rng = np.random.default_rng(2)
        x = rng.random((8, 8, 3)) * 0.5
        p = SparseVisualPrompt(np.array([[1, 2], [3, 4]]), np.full((2, 3), 0.1), (8, 8))
        out = apply_svp(x, p)
        changed = np.any(out != x, axis=2)
        assert changed.sum() == 2
        assert changed[1, 2] and changed[3, 4]

    def test_clamped_to_unit_interval(self):
        x = np.full((4, 4, 3), 0.9)
        p = SparseVisualPrompt(np.array([[0, 0]]), np.array([[5.0, -5.0, 0.05]]), (4, 4))
        out = apply_svp(x, p)
        assert out[0, 0, 0] == 1.0 and out[0, 0, 1] == 0.0
        assert np.isclose(out[0, 0, 2], 0.95)

    def test_shape_mismatch(self):
        p = SparseVisualPrompt.zeros(np.array([[0, 0]]), (4, 4))
        with pytest.raises(CompositionError):
            apply_svp(np.zeros((5, 4, 3)), p)


class TestSparsityBudget:
    def test_reference_value(self):
        assert sparsity_budget(1e-3, 1024, 1024) == 1048

    def test_zero_ratio(self):
        assert sparsity_budget(0.0, 64, 64) == 0

    def test_small_frame(self):
        assert sparsity_budget(0.05, 32, 32) == 51

    def test_at_least_one_pixel(self):
        assert sparsity_budget(1e-9, 4, 4) == 1

    def test_ratio_out_of_range(self):
        with pytest.raises(ConfigError):
            sparsity_budget(1.5, 8, 8)
        with pytest.raises(ConfigError):
            sparsity_budget(-0.1, 8, 8)


def brute_force_topk(u: np.ndarray, k: int) -> list[tuple[int, int]]:
    h, w = u.shape
    cells = [(-u[r, c], r * w + c, (r, c)) for r in range(h) for c in range(w)]
    cells.sort()
    return sorted(cell[2] for cell in cells[:k])


class TestPlaceMask:
    def test_uniform_ties_row_major(self):
        coords = place_mask(np.ones((3, 4)), 3)
        np.testing.assert_array_equal(coords, [[0, 0], [0, 1], [0, 2]])

    def test_zero_budget(self):
        assert place_mask(np.ones((3, 3)), 0).shape == (0, 2)

    def test_budget_too_large(self):
        with pytest.raises(ConfigError):
            place_mask(np.ones((2, 2)), 5)

    def test_matches_brute_force_sort_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            h, w = rng.integers(1, 9, size=2)
            u = rng.random((h, w))
            if rng.random() < 0.3:
                # force ties
                u = np.round(u, 1)
            k = int(rng.integers(0, h * w + 1))
            got = [tuple(rc) for rc in place_mask(u, k)]
            assert got == brute_force_topk(u, k)

    @given(
        st.integers(1, 6), st.integers(1, 6), st.integers(0, 36),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_top_k(self, h, w, k, seed):
        u = np.random.default_rng(seed).integers(0, 5, size=(h, w)).astype(float)
        k = min(k, h * w)
        got = [tuple(rc) for rc in place_mask(u, k)]
        assert got == brute_force_topk(u, k)


class TestWarpSvp:
    def _prompt(self, coords):
        coords = np.asarray(coords)
        offsets = np.arange(coords.shape[0] * 3).reshape(-1, 3) * 0.01
        return SparseVisualPrompt(coords, offsets, (8, 8))

    def test_zero_motion_identity(self):
        p = self._prompt([[1, 1], [2, 3]])
        warped, flag = warp_svp(p, (0, 0))
        assert warped is p
        assert flag is False

    def test_a_pan_shifts_and_drops_what_leaves_the_frame(self):
        p = self._prompt([[0, 6], [3, 7], [5, 2], [7, 0]])
        warped, flag = warp_svp(p, (1, 1))
        assert warped is not p
        np.testing.assert_array_equal(warped.coords, [[1, 7], [6, 3]])
        np.testing.assert_array_equal(warped.offsets, p.offsets[[0, 2]])
        assert flag is True  # 2 of 4 dropped

    def test_translation(self):
        p = self._prompt([[1, 1], [2, 3]])
        warped, flag = warp_svp(p, (1, 0))
        np.testing.assert_array_equal(warped.coords, [[2, 1], [3, 3]])
        np.testing.assert_array_equal(warped.offsets, p.offsets)
        assert flag is False

    def test_dropping_more_than_quarter_sets_flag(self):
        # 10 coords on the top rows; moving up 2 drops 4 of 10 (40%).
        coords = [[0, c] for c in range(5)] + [[1, c] for c in range(5)]
        p = self._prompt(coords)
        warped, flag = warp_svp(p, (-2, 0))
        assert warped.size == 0 or warped.size == p.size - 10
        assert flag is True

    def test_quarter_exactly_does_not_flag(self):
        coords = [[0, 0], [4, 0], [4, 1], [4, 2]]
        p = self._prompt(coords)
        warped, flag = warp_svp(p, (-1, 0))  # drops 1 of 4 = 25%, not > 25%
        assert warped.size == 3
        assert flag is False

    def test_surviving_offsets_preserved_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            flat = rng.choice(64, size=n, replace=False)
            coords = np.stack([flat // 8, flat % 8], axis=1)
            p = SparseVisualPrompt(coords, rng.normal(size=(n, 3)), (8, 8))
            dy, dx = rng.integers(-3, 4, size=2)
            warped, _ = warp_svp(p, (dy, dx))
            for rc, off in zip(warped.coords, warped.offsets):
                src = np.where((coords == [rc[0] - dy, rc[1] - dx]).all(axis=1))[0]
                np.testing.assert_array_equal(off, p.offsets[src[0]])


class TestValidationAndSerialization:
    def test_coords_must_be_unique_and_in_bounds(self):
        with pytest.raises(CompositionError):
            SparseVisualPrompt(np.array([[0, 0], [0, 0]]), np.zeros((2, 3)), (4, 4))
        with pytest.raises(CompositionError):
            SparseVisualPrompt(np.array([[4, 0]]), np.zeros((1, 3)), (4, 4))

    def test_offsets_must_be_finite(self):
        with pytest.raises(CompositionError):
            SparseVisualPrompt(np.array([[0, 0]]), np.array([[np.inf, 0, 0]]), (4, 4))

    def test_token_prompt_values_finite(self):
        with pytest.raises(CompositionError):
            TokenPrompt(np.array([[np.nan, 0.0]]))

    @pytest.mark.parametrize("dtype, value", [("f32", 1e39), ("f32", -3.5e38),
                                              ("f16", 70000.0)])
    def test_value_beyond_the_dtype_range_is_a_composition_error(self, dtype, value):
        # Raised as the typed error, not as numpy's "overflow encountered in
        # cast" warning (the suite turns warnings into errors).
        d = {"rows": 1, "dim": 1, "values": [value], "dtype": dtype}
        with pytest.raises(CompositionError, match=f"within {dtype} range"):
            TokenPrompt.from_dict(d)
        with pytest.raises(CompositionError):
            TokenPrompt(np.array([[value]]), dtype=dtype)
        assert TokenPrompt(np.array([[65504.0]]), dtype="f16").values[0, 0] == 65504.0

    def test_token_prompt_json_round_trip_f32_bit_exact(self):
        values = np.random.default_rng(8).normal(size=(4, 6)).astype(np.float32)
        p = TokenPrompt(values, dtype="f32")
        d = p.to_dict()
        assert d["rows"] == 4 and d["dim"] == 6 and d["dtype"] == "f32"
        assert TokenPrompt.from_dict(d) == p

    def test_token_prompt_json_round_trip_f16(self):
        values = np.random.default_rng(9).normal(size=(3, 5))
        p = TokenPrompt(values, dtype="f16")
        assert TokenPrompt.from_dict(p.to_dict()) == p

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ConfigError):
            TokenPrompt(np.zeros((1, 1)), dtype="f64")

    @pytest.mark.parametrize("dtype", [["f16"], {"f16": 1}, None, 32])
    def test_dtype_of_another_kind_is_a_config_error_naming_it(self, dtype):
        with pytest.raises(ConfigError, match=f"dtype {re.escape(repr(dtype))}"):
            TokenPrompt(np.zeros((1, 1)), dtype=dtype)
