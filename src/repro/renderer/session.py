"""Render sessions: capture once, evaluate any design point.

The paper's key structural fact — PATU's decisions are pure functions
of per-pixel predictor state (N from texel generation, Txds from texel
address calculation) — lets the reproduction split work in two:

* :meth:`RenderSession.capture_frame` renders a workload frame once and
  captures all per-pixel filtering state and all three color variants;
* :meth:`RenderSession.evaluate` replays a (scenario, threshold) pair
  against a capture: applies the PATU decision logic, reconstructs the
  output image, scores MSSIM against the 16x-AF baseline, simulates
  the texture cache hierarchy on the design point's actual fetch
  stream, and runs the timing/energy models on the event counts.

Threshold sweeps (Fig. 17) therefore cost one render plus cheap
re-evaluations, exactly mirroring the hardware's structure.
"""

from __future__ import annotations

from dataclasses import asdict as dataclasses_asdict
from dataclasses import dataclass
from dataclasses import replace as dataclasses_replace

import numpy as np

from ..config import BASELINE_CONFIG, GpuConfig
from ..core.af_ssim import sharing_fraction_from_csr, txds_from_csr
from ..core.patu import FilterMode, PatuDecision, PerceptionAwareTextureUnit
from ..core.scenarios import Scenario
from ..errors import PipelineError
from ..memsys.hierarchy import HierarchyStats, TextureMemoryHierarchy, TileStreams
from ..memsys.traffic import BandwidthBreakdown, frame_breakdown
from ..obs import TELEMETRY
from ..power.components import EnergyParams
from ..power.energy import EnergyBreakdown, EnergyModel, FrameEvents
from ..quality.ssim import mssim as mssim_fn
from ..raster.quads import quad_divergence_fraction, quad_ids
from ..resilience.guards import sanitize_colors
from ..texture.addressing import TextureLayout
from ..texture.mipmap import MipChain
from ..texture.unit import TEXELS_PER_TRILINEAR, TextureUnit
from ..timing.gpu_timing import FrameTiming, FrameWorkload, GpuTimingModel
from ..timing.params import TimingParams
from ..timing.texpipe import TexturePipelineModel, TextureTiming
from ..geometry.tiling import tile_pixel_order
from ..workloads.scene import Workload
from .pipeline import DEFAULT_RASTER, DEFAULT_RASTER_TILE, render_gbuffer

_LUMA = np.asarray([0.299, 0.587, 0.114], dtype=np.float64)


@dataclass
class FrameCapture:
    """Everything captured from rendering one frame once (see module doc)."""

    workload_name: str
    frame_index: int
    width: int
    height: int
    tile_size: int
    # Visible pixels, in tile scheduling order.
    rows: np.ndarray
    cols: np.ndarray
    tile_ids: np.ndarray
    # Per-pixel filtering state.
    tex_ids: np.ndarray  # frame-local texture binding index per pixel
    n: np.ndarray
    lod_tf: np.ndarray
    lod_af: np.ndarray
    txds: np.ndarray
    share_fraction: np.ndarray
    af_color: np.ndarray
    tf_color: np.ndarray
    tfa_color: np.ndarray
    # CSR AF-sample data (row_ptr over pixels).
    sample_row_ptr: np.ndarray
    sample_keys: np.ndarray
    af_lines: np.ndarray  # 8 lines per sample, CSR rows x8
    tf_lines: np.ndarray  # (pixels, 8)
    tfa_lines: np.ndarray  # (pixels, 8)
    # Frame-level workload counts and the reference image.
    workload: FrameWorkload
    baseline_luminance: np.ndarray
    clear_luminance: float

    @property
    def num_pixels(self) -> int:
        return self.rows.shape[0]

    @property
    def mean_anisotropy(self) -> float:
        return float(self.n.mean()) if self.n.size else 0.0

    def luminance_image(self, colors: np.ndarray) -> np.ndarray:
        """Compose a full-frame luminance image from per-pixel colors."""
        img = np.full((self.height, self.width), self.clear_luminance,
                      dtype=np.float64)
        img[self.rows, self.cols] = colors[:, :3].astype(np.float64) @ _LUMA
        return img


@dataclass
class FrameResult:
    """One (capture, scenario, threshold) evaluation."""

    workload_name: str
    frame_index: int
    scenario: Scenario
    threshold: float
    mssim: float
    approximation_rate: float
    quad_divergence: float
    frame_timing: FrameTiming
    texture_timing: TextureTiming
    request_latency: float
    hierarchy: HierarchyStats
    bandwidth: BandwidthBreakdown
    energy: EnergyBreakdown
    events: FrameEvents
    fps: float
    #: Pixels whose predictor state was corrupted and fell back to
    #: exact AF, plus a capture is never allowed to carry NaN colors —
    #: see docs/resilience.md for the degradation policy.
    degraded_pixels: int = 0
    luminance: "np.ndarray | None" = None

    @property
    def frame_cycles(self) -> float:
        return self.frame_timing.total_cycles

    @property
    def total_energy_nj(self) -> float:
        return self.energy.total_nj

    def to_dict(self) -> "dict[str, object]":
        """JSON-ready summary of this evaluation (no image payload).

        This is the per-frame record the metrics JSONL sink consumes;
        external tooling should prefer it over reaching into the
        nested dataclasses.
        """
        return {
            "workload": self.workload_name,
            "frame": self.frame_index,
            "scenario": self.scenario.name,
            "threshold": self.threshold,
            "mssim": self.mssim,
            "approximation_rate": self.approximation_rate,
            "quad_divergence": self.quad_divergence,
            "degraded_pixels": self.degraded_pixels,
            "frame_cycles": self.frame_cycles,
            "fps": self.fps,
            "request_latency": self.request_latency,
            "total_energy_nj": self.total_energy_nj,
            "frame_timing": dataclasses_asdict(self.frame_timing),
            "texture_timing": dataclasses_asdict(self.texture_timing),
            "hierarchy": self.hierarchy.to_dict(),
            "bandwidth": {
                **self.bandwidth.as_dict(),
                "total": self.bandwidth.total_bytes,
            },
            "energy": {
                **dataclasses_asdict(self.energy),
                "total_nj": self.energy.total_nj,
            },
            "events": dataclasses_asdict(self.events),
        }


class RenderSession:
    """Renders workloads and evaluates PATU design points against them."""

    def __init__(
        self,
        config: GpuConfig = BASELINE_CONFIG,
        *,
        scale: float = 0.25,
        scale_caches: bool = True,
        compressed_textures: bool = False,
        timing_params: "TimingParams | None" = None,
        energy_params: "EnergyParams | None" = None,
        raster: str = DEFAULT_RASTER,
        raster_tile: int = DEFAULT_RASTER_TILE,
    ) -> None:
        if scale_caches and scale < 1.0:
            # Shrink the L2 in proportion to the rendered pixel count so
            # the capacity-to-frame-working-set ratio matches the nominal
            # resolution (the divisor is rounded to a power of two to
            # keep the set count a power of two). The L1 is left at full
            # size: it captures intra-tile footprint locality, whose
            # structure is resolution-independent.
            divisor = 1 << max(round(np.log2(1.0 / (scale * scale))), 0)
            config = dataclasses_replace(
                config,
                texture_l2=config.texture_l2.scaled_down(divisor),
            )
        self.config = config
        self.scale = scale
        #: Raster backend ("binned" sort-middle or "legacy" per-triangle)
        #: and the binned backend's fine-tile size; both produce
        #: bit-identical G-buffers (see repro.raster.binned).
        self.raster = raster
        self.raster_tile = raster_tile
        #: Sample lossily-compressed textures through block-compressed
        #: addressing (see repro.texture.compression).
        self.compressed_textures = compressed_textures
        self.timing_params = timing_params or TimingParams()
        self.energy_params = energy_params or EnergyParams()
        self._texpipe = TexturePipelineModel(config, self.timing_params)
        self._gpu_timing = GpuTimingModel(config, self.timing_params)
        self._energy_model = EnergyModel(config, self.energy_params)
        self._hierarchy = TextureMemoryHierarchy(config)
        self._layouts: "dict[int, tuple[TextureLayout, dict[str, int]]]" = {}

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------

    def _scene_layout(self, scene) -> "tuple[TextureLayout, dict[str, int]]":
        key = id(scene)
        cached = self._layouts.get(key)
        if cached is None:
            names = sorted(scene.textures)
            chains = [MipChain(scene.textures[name]) for name in names]
            if self.compressed_textures:
                from ..texture.compression import (
                    CompressedTextureLayout,
                    compress_chain,
                )

                chains = [compress_chain(c) for c in chains]
                layout = CompressedTextureLayout(chains)
            else:
                layout = TextureLayout(chains)
            cached = (layout, {name: i for i, name in enumerate(names)})
            self._layouts[key] = cached
        return cached

    def capture_frame(self, workload: Workload, frame_index: int) -> FrameCapture:
        """Render one frame and capture all per-pixel filtering state."""
        TELEMETRY.count("session.capture_frames")
        with TELEMETRY.span(
            "session.capture_frame", workload=workload.name, frame=frame_index
        ):
            capture = self._capture_frame_impl(workload, frame_index)
        TELEMETRY.progress(
            f"captured {workload.name} frame {frame_index}: "
            f"{capture.num_pixels} px, mean N {capture.mean_anisotropy:.2f}"
        )
        return capture

    def _capture_frame_impl(
        self, workload: Workload, frame_index: int
    ) -> FrameCapture:
        width, height = workload.scaled_size(self.scale)
        with TELEMETRY.span("capture.gbuffer"):
            rendered = render_gbuffer(
                workload.scene, workload.camera(frame_index), width, height,
                tile_size=self.config.tile_size,
                raster=self.raster, raster_tile=self.raster_tile,
            )
        gb = rendered.gbuffer
        # Tile scheduling order: iterate the surviving tiles (row-major
        # tiles, raster order inside) instead of sorting a full-frame
        # pixel scan.
        rows, cols, tile_ids = tile_pixel_order(
            gb.coverage_mask, self.config.tile_size
        )
        if rows.size == 0:
            raise PipelineError(
                f"frame {frame_index} of {workload.name} produced no fragments"
            )
        layout, name_to_chain = self._scene_layout(workload.scene)
        unit = TextureUnit(layout, max_aniso=self.config.texture_unit.max_anisotropy)

        npx = rows.shape[0]
        tex_of_pixel = gb.tex_id[rows, cols]

        # Hardware computes texture-coordinate derivatives per 2x2 quad
        # (intra-quad finite differences), so all pixels of a quad share
        # one footprint. Average the analytic per-pixel derivatives over
        # each (quad, texture) group to model that; this is what makes
        # PATU's predictor state quad-coherent (Section V-C reports only
        # ~1% of quads diverge).
        quad_group = _group_index(
            quad_ids(rows, cols, width).astype(np.int64), tex_of_pixel.astype(np.int64)
        )
        if TELEMETRY.enabled:
            TELEMETRY.count("capture.visible_pixels", npx)
            TELEMETRY.count(
                "raster.quads_emitted",
                int(quad_group.max()) + 1 if quad_group.size else 0,
            )
        deriv = {}
        for field_name in ("dudx", "dvdx", "dudy", "dvdy"):
            values = getattr(gb, field_name)[rows, cols].astype(np.float64)
            deriv[field_name] = _group_mean(values, quad_group)
        n = np.empty(npx, dtype=np.int64)
        lod_tf = np.empty(npx, dtype=np.float64)
        lod_af = np.empty(npx, dtype=np.float64)
        af_color = np.empty((npx, 4), dtype=np.float32)
        tf_color = np.empty((npx, 4), dtype=np.float32)
        tfa_color = np.empty((npx, 4), dtype=np.float32)
        tf_lines = np.empty((npx, TEXELS_PER_TRILINEAR), dtype=np.int64)
        tfa_lines = np.empty((npx, TEXELS_PER_TRILINEAR), dtype=np.int64)

        batches = []
        with TELEMETRY.span("capture.texture_filtering"):
            for frame_tid in np.unique(tex_of_pixel):
                mask = tex_of_pixel == frame_tid
                chain_index = name_to_chain[rendered.texture_names[int(frame_tid)]]
                batch = unit.filter_batch(
                    chain_index,
                    gb.u[rows, cols][mask].astype(np.float64),
                    gb.v[rows, cols][mask].astype(np.float64),
                    deriv["dudx"][mask],
                    deriv["dvdx"][mask],
                    deriv["dudy"][mask],
                    deriv["dvdy"][mask],
                )
                batches.append((np.nonzero(mask)[0], batch))
                n[mask] = batch.n
                lod_tf[mask] = batch.lod_tf
                lod_af[mask] = batch.lod_af
                af_color[mask] = batch.af_color
                tf_color[mask] = batch.tf_color
                tfa_color[mask] = batch.tf_af_lod_color
                tf_lines[mask] = batch.tf_lines
                tfa_lines[mask] = batch.tf_af_lod_lines

        # Degradation guard: corrupted texels (injected or genuine) are
        # clamped to a safe value here, so no NaN/inf ever reaches the
        # reference image, the quality model, or a FrameResult.
        af_color = sanitize_colors(af_color).value
        tf_color = sanitize_colors(tf_color).value
        tfa_color = sanitize_colors(tfa_color).value

        with TELEMETRY.span("capture.csr_merge"):
            # Frame-level CSR over AF samples, merged from per-texture batches.
            row_ptr = np.zeros(npx + 1, dtype=np.int64)
            np.cumsum(n, out=row_ptr[1:])
            total_samples = int(row_ptr[-1])
            sample_keys = np.empty(total_samples, dtype=np.int64)
            af_lines = np.empty(total_samples * TEXELS_PER_TRILINEAR, dtype=np.int64)
            for pixel_idx, batch in batches:
                lens = n[pixel_idx]
                starts = row_ptr[pixel_idx]
                dst = _expand_ranges(starts, lens)
                sample_keys[dst] = batch.sample_keys
                dst8 = _expand_ranges(
                    starts * TEXELS_PER_TRILINEAR, lens * TEXELS_PER_TRILINEAR
                )
                af_lines[dst8] = batch.af_lines

        with TELEMETRY.span("capture.txds"):
            # The per-pixel Txds still carries sub-texel alignment noise from
            # each pixel's own (u, v); the quad's pipelines process the quad
            # as one SIMD unit, so smooth the statistic over the quad too.
            txds = _group_mean(txds_from_csr(sample_keys, row_ptr), quad_group)
            share = sharing_fraction_from_csr(sample_keys, row_ptr)

        workload_counts = FrameWorkload(
            vertices=rendered.vertices,
            triangles=rendered.triangles_after_cull,
            tile_triangle_pairs=rendered.tile_triangle_pairs,
            fragments_generated=rendered.raster_stats.fragments_generated,
            fragments_shaded=npx,
        )
        clear_lum = float(np.asarray(workload.scene.clear_color[:3]) @ _LUMA)
        capture = FrameCapture(
            workload_name=workload.name,
            frame_index=frame_index,
            width=width,
            height=height,
            tile_size=self.config.tile_size,
            rows=rows,
            cols=cols,
            tile_ids=tile_ids,
            tex_ids=tex_of_pixel.astype(np.int16),
            n=n,
            lod_tf=lod_tf,
            lod_af=lod_af,
            txds=txds,
            share_fraction=share,
            af_color=af_color,
            tf_color=tf_color,
            tfa_color=tfa_color,
            sample_row_ptr=row_ptr,
            sample_keys=sample_keys,
            af_lines=af_lines,
            tf_lines=tf_lines,
            tfa_lines=tfa_lines,
            workload=workload_counts,
            baseline_luminance=np.empty(0),
            clear_luminance=clear_lum,
        )
        capture.baseline_luminance = capture.luminance_image(af_color)
        return capture

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self,
        capture: FrameCapture,
        scenario: Scenario,
        threshold: float,
        *,
        stage2_threshold: "float | None" = None,
        hash_entries: int = 16,
        store_image: bool = False,
    ) -> FrameResult:
        """Score one design point against a captured frame.

        ``stage2_threshold`` and ``hash_entries`` expose the ablation
        knobs of :class:`PerceptionAwareTextureUnit` (split thresholds,
        shrunken texel-address table).
        """
        patu = PerceptionAwareTextureUnit(
            scenario, threshold,
            stage2_threshold=stage2_threshold, hash_entries=hash_entries,
        )
        decision = patu.decide(capture.n, capture.txds)
        return self._evaluate_decision(
            capture, decision, scenario, threshold, store_image
        )

    def evaluate_software(
        self,
        capture: FrameCapture,
        threshold: float,
        *,
        store_image: bool = False,
    ) -> FrameResult:
        """Score the Section III software alternative (per-draw-call AF).

        See :mod:`repro.core.software` for the decision semantics.
        """
        from ..core.software import SOFTWARE, software_decision

        decision = software_decision(capture.tex_ids, capture.n, threshold)
        return self._evaluate_decision(
            capture, decision, SOFTWARE, threshold, store_image
        )

    def _evaluate_decision(
        self,
        capture: FrameCapture,
        decision: PatuDecision,
        scenario: Scenario,
        threshold: float,
        store_image: bool,
    ) -> FrameResult:
        with TELEMETRY.span(
            "session.evaluate",
            workload=capture.workload_name,
            frame=capture.frame_index,
            scenario=scenario.name,
            threshold=threshold,
        ):
            with TELEMETRY.span("evaluate.reconstruct"):
                colors = capture.af_color.copy()
                tf_mask = decision.mode == FilterMode.TF_TF_LOD
                tfa_mask = decision.mode == FilterMode.TF_AF_LOD
                colors[tf_mask] = capture.tf_color[tf_mask]
                colors[tfa_mask] = capture.tfa_color[tfa_mask]
                # Belt-and-braces: captures are sanitized at creation,
                # but a deserialized or hand-built capture must not be
                # able to push NaN into the quality model either.
                colors = sanitize_colors(colors).value

            with TELEMETRY.span("evaluate.mssim"):
                if scenario.name == "baseline":
                    quality = 1.0
                    lum = capture.baseline_luminance
                else:
                    lum = capture.luminance_image(colors)
                    quality = mssim_fn(capture.baseline_luminance, lum)
                if not np.isfinite(quality):
                    # Score a fully-degraded frame as zero quality
                    # rather than propagating NaN into results.
                    TELEMETRY.count("resilience.mssim_fallbacks")
                    quality = 0.0

            with TELEMETRY.span("evaluate.fetch_stream"):
                lines, lengths = self._fetch_stream(capture, decision)
            hier = self._simulate_hierarchy(capture, lines, lengths)

            events = self._frame_events(capture, decision, scenario, hier)
            tex_timing, frame_timing, req_latency = self._frame_timing(
                capture, decision, scenario, hier
            )

            bandwidth = frame_breakdown(
                texture_dram_bytes=hier.dram_bytes,
                visible_pixels=capture.num_pixels,
                fragments_generated=capture.workload.fragments_generated,
                fragments_passed=capture.num_pixels,
                vertices=capture.workload.vertices,
            )
            with TELEMETRY.span("evaluate.energy"):
                energy = self._energy_model.frame_energy(
                    events, frame_timing.total_cycles
                )

            divergence = quad_divergence_fraction(
                capture.rows, capture.cols, capture.width,
                decision.prediction.approximated,
            )
            result = FrameResult(
                workload_name=capture.workload_name,
                frame_index=capture.frame_index,
                scenario=scenario,
                threshold=threshold,
                mssim=quality,
                approximation_rate=decision.approximation_rate,
                quad_divergence=divergence,
                frame_timing=frame_timing,
                texture_timing=tex_timing,
                request_latency=req_latency,
                hierarchy=hier,
                bandwidth=bandwidth,
                energy=energy,
                events=events,
                fps=self._gpu_timing.fps(frame_timing),
                degraded_pixels=decision.prediction.degraded_count,
                luminance=lum if store_image else None,
            )
        if TELEMETRY.enabled:
            TELEMETRY.observe("session.mssim", result.mssim)
            TELEMETRY.observe("session.frame_cycles", result.frame_cycles)
            # Perceptual observability: the distributions behind the
            # scalar result — per-pixel anisotropy (the paper's N), the
            # LOD shift approximated pixels suffer, and the fraction
            # approximated — feed the ledger's quality rollup.
            TELEMETRY.observe_many("quality.aniso_n", capture.n)
            approximated = decision.prediction.approximated
            TELEMETRY.observe_many(
                "quality.lod_shift",
                np.abs(capture.lod_af - capture.lod_tf)[approximated],
            )
            TELEMETRY.observe(
                "quality.approximation_rate", result.approximation_rate
            )
            TELEMETRY.frame_record(result.to_dict(), patu=decision.to_dict())
        TELEMETRY.progress(
            f"evaluated {capture.workload_name} frame {capture.frame_index} "
            f"[{scenario.name} @ {threshold:g}]: MSSIM {result.mssim:.3f}, "
            f"approx {result.approximation_rate:.1%}"
        )
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _fetch_stream(
        self, capture: FrameCapture, decision: PatuDecision
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Assemble the design point's texel fetch stream in pixel order.

        Returns the concatenated line addresses and the per-pixel
        segment lengths.
        """
        af_mask = decision.mode == FilterMode.AF
        af_lengths = capture.n * TEXELS_PER_TRILINEAR
        lengths = np.where(af_mask, af_lengths, TEXELS_PER_TRILINEAR).astype(np.int64)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        out = np.empty(int(offsets[-1]), dtype=np.int64)

        if af_mask.any():
            # ``af_lines`` holds every pixel's AF segment in pixel order
            # (``sample_row_ptr`` is the cumulative ``n``), and an AF
            # pixel's slot in the stream has that segment's length, so
            # two boolean masks move all AF segments at once.
            out[np.repeat(af_mask, lengths)] = capture.af_lines[
                np.repeat(af_mask, af_lengths)
            ]

        for mask, table in (
            (decision.mode == FilterMode.TF_TF_LOD, capture.tf_lines),
            (decision.mode == FilterMode.TF_AF_LOD, capture.tfa_lines),
        ):
            rows_sel = np.nonzero(mask)[0]
            if rows_sel.size:
                dst = (
                    offsets[rows_sel][:, None]
                    + np.arange(TEXELS_PER_TRILINEAR)[None, :]
                )
                out[dst.ravel()] = table[rows_sel].ravel()
        return out, lengths

    def _simulate_hierarchy(
        self, capture: FrameCapture, lines: np.ndarray, lengths: np.ndarray
    ) -> HierarchyStats:
        """Split the stream into per-tile segments and run the caches."""
        with TELEMETRY.span("session.simulate_hierarchy", lines=int(lines.size)):
            boundaries = np.nonzero(np.diff(capture.tile_ids))[0] + 1
            starts = np.concatenate([[0], boundaries])
            line_offsets = np.zeros(starts.size + 1, dtype=np.int64)
            np.cumsum(np.add.reduceat(lengths, starts), out=line_offsets[1:])
            units = capture.tile_ids[starts] % self.config.num_texture_units
            return self._hierarchy.process_frame(
                TileStreams(lines, units, line_offsets)
            )

    def _frame_events(
        self,
        capture: FrameCapture,
        decision: PatuDecision,
        scenario: Scenario,
        hier: HierarchyStats,
    ) -> FrameEvents:
        checks = capture.num_pixels if scenario.use_stage1 else 0
        return FrameEvents(
            trilinear_samples=decision.total_trilinear,
            address_samples=decision.total_address_work,
            l1_accesses=hier.l1.accesses,
            l2_accesses=hier.l2.accesses,
            dram_lines=hier.dram.lines_fetched,
            shader_ops=int(
                capture.workload.fragments_shaded * self.timing_params.frag_alu_ops
            ),
            vertices=capture.workload.vertices,
            hash_insertions=decision.total_hash_insertions,
            patu_checks=checks,
        )

    def _frame_timing(
        self,
        capture: FrameCapture,
        decision: PatuDecision,
        scenario: Scenario,
        hier: HierarchyStats,
    ) -> "tuple[TextureTiming, FrameTiming, float]":
        with TELEMETRY.span("session.frame_timing"):
            dram_latency = self._hierarchy.dram_average_latency(hier)
            dram_cycles = self._hierarchy.dram_transfer_cycles(hier)
            checks = capture.num_pixels if scenario.use_stage1 else 0
            tex_timing = self._texpipe.frame_timing(
                trilinear_samples=decision.total_trilinear,
                address_samples=decision.total_address_work,
                checked_pixels=checks,
                hier=hier,
                dram_transfer_cycles=dram_cycles,
                dram_latency=dram_latency,
            )
            frame_timing = self._gpu_timing.frame_timing(
                capture.workload, tex_timing
            )
            req_latency = self._texpipe.request_latency(
                tex_timing,
                num_requests=capture.num_pixels,
                trilinear_samples=decision.total_trilinear,
                hier=hier,
                dram_latency=dram_latency,
            )
            return tex_timing, frame_timing, req_latency


def _group_index(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
    """Dense group index for (primary, secondary) key pairs."""
    combined = primary * (int(secondary.max()) + 1 if secondary.size else 1) + secondary
    _, inverse = np.unique(combined, return_inverse=True)
    return inverse


def _group_mean(values: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Replace each value by the mean of its group."""
    sums = np.bincount(group, weights=values)
    counts = np.bincount(group)
    return (sums / counts)[group]


def _expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices covering ``[starts[i], starts[i]+lengths[i])`` concatenated.

    The standard vectorized "ragged ranges" construction: a global
    arange, shifted per segment so each segment restarts at its start.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seg_ends = np.cumsum(lengths)
    seg_starts = seg_ends - lengths
    within = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, lengths)
    return np.repeat(starts, lengths) + within
