"""repro — reproduction of "Perception-Oriented 3D Rendering Approximation
for Modern Graphics Processors" (HPCA 2018).

Public API quick tour::

    from repro import RenderSession, SCENARIOS, get_workload

    session = RenderSession(scale=0.25)
    capture = session.capture_frame(get_workload("HL2-1600x1200"), frame_index=0)
    result = session.evaluate(capture, SCENARIOS["patu"], threshold=0.4)
    print(result.mssim, result.fps, result.approximation_rate)

Subpackages:

* :mod:`repro.core` — AF-SSIM prediction, hash table, PATU (the paper's
  contribution).
* :mod:`repro.geometry`, :mod:`repro.raster`, :mod:`repro.texture` —
  the rasterization GPU pipeline substrate.
* :mod:`repro.memsys`, :mod:`repro.timing`, :mod:`repro.power` — the
  architecture models (caches/DRAM, cycles, energy/area).
* :mod:`repro.quality` — SSIM/MSSIM image-quality analysis.
* :mod:`repro.workloads` — the Table II game scenes and R.Bench.
  ``GAME_WORKLOADS`` is lazy: importing :mod:`repro` builds no scene;
  a game's scene is built the first time one of its workloads is
  looked up.
* :mod:`repro.renderer` — the end-to-end render/evaluate session.
* :mod:`repro.replay`, :mod:`repro.study` — vsync replay + user study.
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from .config import BASELINE_CONFIG, GpuConfig, MAX_ANISOTROPY
from .core import SCENARIOS, PerceptionAwareTextureUnit, af_ssim_n, af_ssim_txds
from .errors import ReproError
from .renderer import FrameCapture, FrameResult, RenderSession
from .workloads import GAME_WORKLOADS, get_workload, rbench_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "BASELINE_CONFIG",
    "FrameCapture",
    "FrameResult",
    "GAME_WORKLOADS",
    "GpuConfig",
    "MAX_ANISOTROPY",
    "PerceptionAwareTextureUnit",
    "RenderSession",
    "ReproError",
    "SCENARIOS",
    "af_ssim_n",
    "af_ssim_txds",
    "get_workload",
    "rbench_workload",
    "workload_names",
    "__version__",
]
