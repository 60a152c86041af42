"""Tests for procedural texture synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.verify.reference import ref_fbm_noise, ref_tint, ref_upsample
from repro.workloads.proctex import (
    _tint,
    _upsample,
    asphalt_texture,
    brick_texture,
    checker_texture,
    dirt_texture,
    facade_texture,
    fbm_noise,
    grass_texture,
    metal_texture,
    noise_texture,
    stone_texture,
    water_texture,
    wood_texture,
)

ALL_GENERATORS = (
    asphalt_texture,
    brick_texture,
    dirt_texture,
    facade_texture,
    grass_texture,
    metal_texture,
    noise_texture,
    stone_texture,
    water_texture,
    wood_texture,
)


class TestFbmNoise:
    def test_deterministic(self):
        a = fbm_noise(64, seed=3)
        b = fbm_noise(64, seed=3)
        assert np.array_equal(a, b)

    def test_seed_changes_content(self):
        assert not np.array_equal(fbm_noise(64, 1), fbm_noise(64, 2))

    def test_range(self):
        n = fbm_noise(128, seed=7)
        assert n.min() >= 0.0 and n.max() <= 1.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(WorkloadError):
            fbm_noise(100, seed=1)


class TestGenerators:
    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.__name__)
    def test_output_is_valid_texture(self, gen):
        tex = gen(f"t_{gen.__name__}", size=64)
        assert tex.width == tex.height == 64
        assert tex.data.shape == (64, 64, 4)
        assert np.isfinite(tex.data).all()

    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.__name__)
    def test_deterministic(self, gen):
        a = gen("a", size=64)
        b = gen("a", size=64)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.__name__)
    def test_has_high_frequency_contrast(self, gen):
        """Every game texture must keep AF perceptually relevant: the
        base level needs non-trivial local contrast."""
        tex = gen("c", size=128)
        luma = tex.data[..., :3].mean(axis=2)
        local_diff = max(
            np.abs(np.diff(luma, axis=1)).mean(),
            np.abs(np.diff(luma, axis=0)).mean(),
        )
        assert local_diff > 0.005

    def test_checker_exact_pattern(self):
        tex = checker_texture("chk", size=16, tiles=4,
                              color_a=(1, 1, 1), color_b=(0, 0, 0))
        assert np.allclose(tex.data[0, 0, :3], 1.0)
        assert np.allclose(tex.data[0, 4, :3], 0.0)
        assert np.allclose(tex.data[4, 4, :3], 1.0)

    def test_checker_rejects_bad_tiles(self):
        with pytest.raises(WorkloadError):
            checker_texture("chk", size=16, tiles=5)

    def test_facade_windows_have_lit_and_unlit(self):
        tex = facade_texture("f", size=128, seed=1)
        # Lit windows are warm yellow; unlit are dark blue.
        lit = (tex.data[..., 0] > 0.9) & (tex.data[..., 2] < 0.6)
        dark = (tex.data[..., 0] < 0.2) & (tex.data[..., 2] > 0.15)
        assert lit.any() and dark.any()


class TestSynthesisMatchesReference:
    """The in-place synthesis must equal the plain expressions byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.integers(1, 160),
        size=st.sampled_from([16, 48, 64, 100, 128, 256]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_upsample(self, cells, size, seed):
        grid = np.random.default_rng(seed).random((cells, cells))
        assert _upsample(grid, size).tobytes() == ref_upsample(grid, size).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        size=st.sampled_from([8, 32, 64, 128]),
        base_cells=st.sampled_from([1, 4, 6, 8, 16, 96, 128]),
        octaves=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_fbm_noise(self, size, base_cells, octaves, seed):
        got = fbm_noise(size, seed, octaves=octaves, base_cells=base_cells)
        want = ref_fbm_noise(size, seed, octaves=octaves, base_cells=base_cells)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        size=st.sampled_from([16, 64]),
        color=st.tuples(*[st.floats(0.0, 2.0)] * 3),
        variation=st.sampled_from([0.0, 0.15, 0.5, 1.5]),
        seed=st.integers(0, 2**16),
    )
    def test_tint(self, size, color, variation, seed):
        gray = fbm_noise(size, seed + 1) * 1.2 - 0.1  # spans the clip bounds
        got = _tint(gray, color, variation=variation, seed=seed)
        want = ref_tint(gray, color, variation=variation, seed=seed)
        assert got.tobytes() == want.tobytes()
