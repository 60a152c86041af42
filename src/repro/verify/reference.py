"""Scalar reference oracle: naive re-derivations of the filtering math.

Every function here reimplements one vectorized kernel of
:mod:`repro.texture`, :mod:`repro.core` or :mod:`repro.memsys` as a
straight-line, per-fragment (or per-access) Python loop, directly from
the definitions (OpenGL-style bilinear/trilinear filtering, Eq. 3
anisotropic averaging, the paper's Eq. 5/6/8/9/10 predictors, and the
texture cache hierarchy as a tile-by-tile dict-LRU walk). The
differential oracle layer (:mod:`repro.verify.differential`) compares
the two implementations on seeded random inputs; because the
reference shares *no code path* with the production kernels (no
broadcasting, no fancy indexing, no grouped dense kernels), an indexing
or vectorization bug in either side shows up as a mismatch.

Deliberate exception to full independence: transcendentals
(``log2``/``hypot``) go through numpy *scalar* calls, which use the
same ufunc loops as the vectorized code. This pins their
last-ulp behaviour so integer LOD/N agreement can be asserted
*exactly* — a 1-ulp libm difference at a ``floor`` boundary would
otherwise be an un-actionable flake, not a caught bug.

Tolerance policy (see ``docs/testing.md``): colors within ``1e-6``
absolute (the production kernels blend in float32, the reference in
float64); integer state (mip levels, anisotropy degree, footprint
keys) must agree exactly.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import GpuConfig
from ..memsys.cache import CacheSim
from ..memsys.dram import DramModel
from ..memsys.hierarchy import HierarchyStats
from ..texture.mipmap import MipChain
from ..texture.sampler import _COORD_BITS, _COORD_MASK

__all__ = [
    "ref_af_ssim_n",
    "ref_af_ssim_txds",
    "ref_anisotropic",
    "ref_bilinear",
    "ref_compute_footprint",
    "ref_footprint_key",
    "ref_memory_hierarchy",
    "ref_trilinear",
    "ref_trilinear_levels",
    "ref_two_stage_decision",
    "ref_txds",
]


def _texel(level: np.ndarray, iy: int, ix: int) -> np.ndarray:
    """One RGBA texel with wrap addressing, as float64."""
    h, w = level.shape[:2]
    return np.asarray(level[iy % h, ix % w], dtype=np.float64)


def ref_bilinear(chain: MipChain, level: int, u: float, v: float) -> np.ndarray:
    """Bilinear filtering of one sample at one mip level (definition form).

    The sample point in texel space is ``u * W - 0.5`` (texel centers at
    half-integer normalized coordinates); the four surrounding texels
    are blended with the fractional weights.
    """
    arr = chain.levels[level]
    h, w = arr.shape[:2]
    tx = u * w - 0.5
    ty = v * h - 0.5
    ix = math.floor(tx)
    iy = math.floor(ty)
    fx = tx - ix
    fy = ty - iy
    out = np.zeros(4, dtype=np.float64)
    for dy, wy in ((0, 1.0 - fy), (1, fy)):
        for dx, wx in ((0, 1.0 - fx), (1, fx)):
            out += wy * wx * _texel(arr, iy + dy, ix + dx)
    return out


def ref_trilinear_levels(chain: MipChain, lod: float) -> "tuple[int, int, float]":
    """The two enclosing mip levels and the blend fraction for one LOD."""
    lod = min(max(float(lod), 0.0), float(chain.max_level))
    l0 = int(math.floor(lod))
    l1 = min(l0 + 1, chain.max_level)
    return l0, l1, lod - l0


def ref_trilinear(chain: MipChain, u: float, v: float, lod: float) -> np.ndarray:
    """Trilinear filtering: blend the bilinear results of two levels."""
    l0, l1, lfrac = ref_trilinear_levels(chain, lod)
    c0 = ref_bilinear(chain, l0, u, v)
    c1 = ref_bilinear(chain, l1, u, v)
    return c0 * (1.0 - lfrac) + c1 * lfrac


def ref_compute_footprint(
    dudx: float,
    dvdx: float,
    dudy: float,
    dvdy: float,
    tex_width: int,
    tex_height: int,
    *,
    max_aniso: int = 16,
    max_level: "int | None" = None,
) -> "dict[str, float]":
    """Footprint/LOD/anisotropy of one fragment, from the definitions.

    Returns a dict with ``px``, ``py``, ``n`` (int), ``lod_tf``,
    ``lod_af``, ``major_du``, ``major_dv`` — the scalar analogue of one
    row of :func:`repro.texture.footprint.compute_footprints`.
    """
    px = float(np.hypot(dudx * tex_width, dvdx * tex_height))
    py = float(np.hypot(dudy * tex_width, dvdy * tex_height))
    pmax = max(px, py)
    pmin = min(px, py)
    ratio = min(pmax / max(pmin, 1e-12), float(max_aniso))
    n = int(math.ceil(ratio - 1e-9))
    n = min(max(n, 1), max_aniso)
    if pmax <= 1.0:
        n = 1  # magnified: footprint smaller than a texel, AF is moot
    lod_tf = float(np.log2(max(pmax, 1.0)))
    lod_af = float(np.log2(max(pmax / n, 1.0)))
    if max_level is not None:
        lod_tf = min(lod_tf, float(max_level))
        lod_af = min(lod_af, float(max_level))
    if px >= py:
        major_du, major_dv = dudx, dvdx
    else:
        major_du, major_dv = dudy, dvdy
    return {
        "px": px,
        "py": py,
        "n": n,
        "lod_tf": lod_tf,
        "lod_af": lod_af,
        "major_du": major_du,
        "major_dv": major_dv,
    }


def ref_anisotropic(
    chain: MipChain,
    u: float,
    v: float,
    major_du: float,
    major_dv: float,
    lod_af: float,
    n: int,
) -> np.ndarray:
    """Eq. (3): average ``n`` trilinear samples along the major axis.

    Sample ``i`` sits at ``t_i = (i + 0.5) / n - 0.5`` along the
    footprint's major-axis extent, each taken at the anisotropic LOD.
    """
    acc = np.zeros(4, dtype=np.float64)
    for i in range(n):
        t = (i + 0.5) / n - 0.5
        acc += ref_trilinear(chain, u + t * major_du, v + t * major_dv, lod_af)
    return acc / n


def ref_footprint_key(
    chain: MipChain, u: float, v: float, lod: float
) -> int:
    """Pack one trilinear sample's 8-texel set identity (pure Python ints).

    Mirrors the documented layout of
    :func:`repro.texture.sampler.footprint_keys_from_info`: the coarse
    level index, then the wrapped footprint coordinates of both levels,
    each in ``_COORD_BITS``-bit fields.
    """
    l0, l1, _ = ref_trilinear_levels(chain, lod)
    parts = []
    for level in (l0, l1):
        w, h = chain.level_size(level)
        parts.append(math.floor(u * w - 0.5))
        parts.append(math.floor(v * h - 0.5))
    iu0, iv0, iu1, iv1 = parts
    key = l0
    for part in (iu0, iv0, iu1, iv1):
        key = (key << _COORD_BITS) | (part & _COORD_MASK)
    return key


# ---------------------------------------------------------------------------
# Predictors (paper Eq. 5, 6, 8, 9, 10)
# ---------------------------------------------------------------------------


def ref_af_ssim_n(n: float) -> float:
    """Eq. (6) exactly as printed: ``(2N / (N^2 + 1))^2``.

    The production kernel uses the overflow-free rewriting
    ``(2 / (N + 1/N))^2``; agreement of the two forms is itself part of
    what the differential oracle checks.
    """
    return (2.0 * n / (n * n + 1.0)) ** 2


def ref_txds(keys: "list[int]") -> float:
    """Eq. (8)+(9): entropy of the sample->texel-set distribution.

    ``keys`` are one pixel's AF sample footprint keys; samples sharing
    a key share an 8-texel set. Counting through a dict and summing
    ``-p log2 p`` per *group* is deliberately unlike the production
    per-element-count formulation.
    """
    n = len(keys)
    if n <= 1:
        return 1.0
    counts: "dict[int, int]" = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    h = 0.0
    for c in counts.values():
        p = c / n
        h -= p * math.log2(p)
    t = 1.0 - h / math.log2(n)
    return min(max(t, 0.0), 1.0)


def ref_af_ssim_txds(t: float) -> float:
    """Eq. (10): ``(2 Txds / (Txds^2 + 1))^2``."""
    return (2.0 * t / (t * t + 1.0)) ** 2


def ref_two_stage_decision(
    n: int,
    txds: float,
    threshold: float,
    *,
    use_stage1: bool = True,
    use_stage2: bool = True,
    stage2_threshold: "float | None" = None,
) -> "tuple[bool, bool]":
    """The Fig. 13 flow for one pixel: (stage1 fired, stage2 fired).

    A pixel with ``N <= 1`` never reaches either check (it is TF-only
    by construction, Section V-B); stage 2 only sees pixels stage 1
    let through.
    """
    thr2 = threshold if stage2_threshold is None else stage2_threshold
    if n <= 1:
        return False, False
    stage1 = use_stage1 and ref_af_ssim_n(n) > threshold
    stage2 = (
        use_stage2 and not stage1 and ref_af_ssim_txds(txds) > thr2
    )
    return stage1, stage2


def ref_memory_hierarchy(
    config: GpuConfig, tile_streams: "list[tuple[int, np.ndarray]]"
) -> HierarchyStats:
    """The texture hierarchy simulated tile by tile with dict LRUs.

    Each tile's lines go through its unit's :class:`CacheSim` L1 and
    the tile's L1 misses straight on through the shared L2, so the L2
    sees the units' misses interleaved in tile order.
    """
    l1s = [CacheSim(config.texture_l1) for _ in range(config.num_texture_units)]
    l2 = CacheSim(config.texture_l2)
    dram_lines = [np.empty(0, dtype=np.int64)]
    for unit, lines in tile_streams:
        l1_misses = l1s[unit].access(lines)
        if l1_misses.size:
            dram_lines.append(l2.access(l1_misses))
    stats = HierarchyStats()
    for l1 in l1s:
        stats.l1.merge(l1.stats)
    stats.l2.merge(l2.stats)
    stats.dram = DramModel(config.memory).observe(np.concatenate(dram_lines))
    return stats
