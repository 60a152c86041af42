"""Procedural texture synthesis.

Game textures mix low-frequency structure with high-frequency detail;
the high-frequency content is what makes anisotropic filtering visibly
matter at grazing angles (Fig. 3), so every generator layers multiple
octaves of band-limited noise or sharp-edged patterns. All generators
are deterministic in (name, size, seed).
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..texture.image import Texture2D


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _upsample(grid: np.ndarray, size: int) -> np.ndarray:
    """Bilinearly upsample a small random grid to ``size`` (periodic).

    Evaluates ``top*(1-fx)*(1-fy) + right*fx*(1-fy) + bottom*(1-fx)*fy
    + diag*fx*fy`` left to right, in place on the gathered corner
    arrays: every element sees the same IEEE operations in the same
    order as the plain expression, so the result is bit-identical to
    :func:`repro.verify.reference.ref_upsample`.
    """
    g = grid.shape[0]
    coords = np.arange(size) * g / size
    i0 = coords.astype(np.int64)
    f = coords - i0
    i1 = (i0 + 1) % g
    # grid[i0][:, i1] selects the same elements as grid[np.ix_(i0, i1)].
    rows0 = grid[i0]
    rows1 = grid[i1]
    fx = f[None, :]
    fy = f[:, None]
    gx = 1 - fx
    gy = 1 - fy
    out = rows0[:, i0]
    out *= gx
    out *= gy
    term = rows0[:, i1]
    term *= fx
    term *= gy
    out += term
    term = rows1[:, i0]
    term *= gx
    term *= fy
    out += term
    term = rows1[:, i1]
    term *= fx
    term *= fy
    out += term
    return out


def fbm_noise(size: int, seed: int, octaves: int = 5, base_cells: int = 4) -> np.ndarray:
    """Fractal (multi-octave) value noise in [0, 1], tileable."""
    if size & (size - 1):
        raise WorkloadError(f"noise size must be a power of two, got {size}")
    rng = _rng(seed)
    out = np.zeros((size, size), dtype=np.float64)
    amplitude = 1.0
    total = 0.0
    cells = base_cells
    for _ in range(octaves):
        cells = min(cells, size)
        grid = rng.random((cells, cells))
        octave = _upsample(grid, size)
        octave *= amplitude
        out += octave
        total += amplitude
        amplitude *= 0.55
        cells *= 2
    out /= total
    return out


def _tint(gray: np.ndarray, color, variation: float = 0.0, seed: int = 0) -> np.ndarray:
    """Colorize a grayscale field with an RGB tint and optional hue noise."""
    color = np.asarray(color, dtype=np.float64)
    out = np.empty(gray.shape + (4,), dtype=np.float64)
    rgb = out[..., :3]
    np.multiply(gray[..., None], color[None, None, :], out=rgb)
    if variation > 0:
        n = fbm_noise(gray.shape[0], seed + 7, octaves=3)
        n -= 0.5
        n *= variation
        n += 1.0
        rgb *= n[..., None]
    out[..., 3] = 1.0
    return np.clip(out, 0.0, 1.0, out=out)


def noise_texture(name: str, size: int = 256, seed: int = 1, color=(1, 1, 1)) -> Texture2D:
    """Plain fractal-noise texture."""
    return Texture2D(name, _tint(fbm_noise(size, seed), color))


def checker_texture(
    name: str, size: int = 256, tiles: int = 8,
    color_a=(0.9, 0.9, 0.9), color_b=(0.15, 0.15, 0.15),
) -> Texture2D:
    """Checkerboard — the classic worst case for grazing-angle aliasing."""
    if tiles < 1 or size % tiles:
        raise WorkloadError(f"tiles must divide size: {tiles} vs {size}")
    idx = np.indices((size, size)).sum(axis=0) // (size // tiles) % 2
    a = np.asarray(color_a, dtype=np.float64)
    b = np.asarray(color_b, dtype=np.float64)
    rgb = np.where(idx[..., None] == 0, a, b)
    alpha = np.ones((size, size, 1))
    return Texture2D(name, np.concatenate([rgb, alpha], axis=-1))


def grass_texture(name: str = "grass", size: int = 256, seed: int = 11) -> Texture2D:
    """Grass: green fbm with sharp blade detail, bare patches and flowers.

    The high-contrast micro-structure (dark patches, bright specks) is
    what keeps grazing-angle blur perceptible — a plain low-contrast
    noise field would make AF visually irrelevant.
    """
    base = fbm_noise(size, seed, octaves=6, base_cells=8)
    detail = fbm_noise(size, seed + 1, octaves=3, base_cells=64)
    gray = 0.3 + 0.45 * base + 0.35 * detail
    gray = np.where(base < 0.35, gray * 0.45, gray)  # bare-earth patches
    rgba = _tint(gray, (0.35, 0.62, 0.25), variation=0.5, seed=seed)
    specks = fbm_noise(size, seed + 5, octaves=2, base_cells=128) > 0.88
    rgba[specks] = (0.9, 0.85, 0.4, 1.0)  # dry blades / flowers
    return Texture2D(name, rgba)


def water_texture(name: str = "water", size: int = 256, seed: int = 13) -> Texture2D:
    """Water: rippled noise with strong directional streaks."""
    base = fbm_noise(size, seed, octaves=5, base_cells=4)
    y = np.linspace(0, 14 * np.pi, size)
    ripple = 0.5 + 0.5 * np.sin(y[:, None] + 6.0 * base)
    gray = 0.55 + 0.3 * ripple * base
    return Texture2D(name, _tint(gray, (0.4, 0.6, 0.9), variation=0.25, seed=seed))


def asphalt_texture(
    name: str = "asphalt", size: int = 256, seed: int = 17, lane_marks: bool = True
) -> Texture2D:
    """Road asphalt: coarse aggregate, cracks, optional lane markings."""
    grain = fbm_noise(size, seed, octaves=5, base_cells=32)
    gray = 0.18 + 0.35 * grain
    cracks = fbm_noise(size, seed + 2, octaves=4, base_cells=8)
    gray = np.where(np.abs(cracks - 0.5) < 0.015, 0.05, gray)
    speckle = fbm_noise(size, seed + 4, octaves=2, base_cells=128) > 0.9
    gray = np.where(speckle, 0.75, gray)
    rgba = _tint(gray, (1.0, 1.0, 1.05), variation=0.15, seed=seed)
    if lane_marks:
        x = np.arange(size)
        center = np.abs(x - size // 2) < size // 48
        dashes = (np.arange(size) // (size // 8)) % 2 == 0
        mark = center[None, :] & dashes[:, None]
        rgba[mark] = (0.95, 0.9, 0.55, 1.0)
    return Texture2D(name, rgba)


def dirt_texture(name: str = "dirt", size: int = 256, seed: int = 15) -> Texture2D:
    """Cracked earth: coarse grain, dark crack lines, bright stones.

    Strong macro contrast that survives several mip levels, so
    disabling AF blurs visibly even in the mid-field.
    """
    grain = fbm_noise(size, seed, octaves=5, base_cells=16)
    gray = 0.35 + 0.4 * grain
    cracks = fbm_noise(size, seed + 2, octaves=4, base_cells=6)
    gray = np.where(np.abs(cracks - 0.5) < 0.02, 0.08, gray)
    stones = fbm_noise(size, seed + 4, octaves=2, base_cells=96) > 0.87
    gray = np.where(stones, 0.85, gray)
    return Texture2D(name, _tint(gray, (0.62, 0.5, 0.36), variation=0.3, seed=seed))


def brick_texture(name: str = "brick", size: int = 256, seed: int = 19) -> Texture2D:
    """Brick wall: offset courses with mortar lines and surface noise."""
    rows = 8
    cols = 4
    y = np.arange(size)
    x = np.arange(size)
    row = y * rows // size
    offset = (row % 2) * (size // (2 * cols))
    xx = (x[None, :] + offset[:, None]) % size
    mortar_y = (y % (size // rows)) < max(size // 64, 1)
    mortar_x = (xx % (size // cols)) < max(size // 64, 1)
    mortar = mortar_y[:, None] | mortar_x
    grain = fbm_noise(size, seed, octaves=4, base_cells=16)
    gray = np.where(mortar, 0.75, 0.5 + 0.2 * grain)
    rgb = np.where(
        mortar[..., None], (0.78, 0.76, 0.72), (0.62, 0.3, 0.22)
    ) * gray[..., None] * 1.4
    alpha = np.ones((size, size, 1))
    return Texture2D(name, np.clip(np.concatenate([rgb, alpha], axis=-1), 0, 1))


def stone_texture(name: str = "stone", size: int = 256, seed: int = 23) -> Texture2D:
    """Rough stone blocks (Wolfenstein-style dungeon walls)."""
    blocks = 4
    y = np.arange(size)
    joint = (y % (size // blocks)) < max(size // 48, 1)
    grain = fbm_noise(size, seed, octaves=5, base_cells=8)
    gray = np.where(joint[:, None], 0.25, 0.45 + 0.3 * grain)
    return Texture2D(name, _tint(gray, (0.75, 0.72, 0.65), variation=0.3, seed=seed))


def metal_texture(name: str = "metal", size: int = 256, seed: int = 29) -> Texture2D:
    """Brushed tech metal with panel seams (Doom3/UT3 corridors)."""
    streaks = fbm_noise(size, seed, octaves=3, base_cells=64)
    x = np.arange(size)
    seam = ((x % (size // 4)) < max(size // 64, 1)).astype(np.float64)
    gray = 0.35 + 0.25 * streaks - 0.2 * seam[None, :]
    rivets = fbm_noise(size, seed + 3, octaves=2, base_cells=32) > 0.82
    gray = np.where(rivets, gray + 0.25, gray)
    return Texture2D(name, _tint(np.clip(gray, 0, 1), (0.62, 0.66, 0.72)))


def wood_texture(name: str = "wood", size: int = 256, seed: int = 31) -> Texture2D:
    """Plank wood: rings distorted by noise, plank gaps."""
    yy = np.linspace(0, 1, size)[:, None] * np.ones((1, size))
    warp = fbm_noise(size, seed, octaves=4, base_cells=4)
    rings = 0.5 + 0.5 * np.sin(2 * np.pi * (yy * 12 + warp * 2.5))
    x = np.arange(size)
    gaps = ((x % (size // 4)) < max(size // 96, 1))[None, :]
    gray = np.where(gaps, 0.2, 0.45 + 0.3 * rings)
    return Texture2D(name, _tint(gray, (0.72, 0.5, 0.3), variation=0.2, seed=seed))


def facade_texture(name: str = "facade", size: int = 256, seed: int = 37) -> Texture2D:
    """Building facade: window grid with lit/unlit variation.

    The high-contrast window lattice is what makes the Fig. 15 LOD
    shift visible (lights in the rooms disappearing at coarser LODs).
    """
    rng = _rng(seed)
    wall = 0.4 + 0.15 * fbm_noise(size, seed, octaves=3, base_cells=8)
    rgba = _tint(wall, (0.75, 0.73, 0.7))
    cells = 8
    cell = size // cells
    win0 = cell // 4
    win1 = cell - cell // 4
    lit = rng.random((cells, cells)) > 0.55
    for gy in range(cells):
        for gx in range(cells):
            y0, x0 = gy * cell, gx * cell
            color = (0.95, 0.85, 0.45, 1.0) if lit[gy, gx] else (0.1, 0.12, 0.2, 1.0)
            rgba[y0 + win0 : y0 + win1, x0 + win0 : x0 + win1] = color
    return Texture2D(name, rgba)
