"""Peak RSS of the in-process worker: flat in run length, and the
program's alone (the benchmark's probe runs in the same process)."""

import sys

import pytest

from children import Child, spawn_worker
from conftest import BENCH, ROOT

# Rounds of the Fig. 17 plan on a 1280x1024 capture: if the worker kept
# per-frame state, each round would add a whole capture (~26 MB) and
# its results to the peak.
CONFIG = "HL2-1280x1024"

#: The worker with the probe's freshly mapped array resized.
_RESIZED_PROBE = """
import runpy, sys
sys.path.insert(0, {here!r})
import probe
probe._FRESH_ELEMENTS = {elements}
sys.argv = [{worker!r}]
runpy.run_path({worker!r}, run_name="__main__")
"""


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "store"
    prep, _raw = spawn_worker(ROOT, path.parent / "prep.log")
    try:
        prep.send({"cmd": "prep", "store": str(path),
                   "captures": [[CONFIG, 0], [CONFIG, 1], [CONFIG, 2]]})
        prep.send({"cmd": "exit"})
    finally:
        prep.close()
    return path


def _round_peaks(worker, store, frames):
    """``peak_rss_mb`` of one Fig. 17 round per frame; closes ``worker``."""
    import opgen

    try:
        peaks = []
        for frame in frames:
            ops = [(CONFIG, frame, s, t) for s, t in opgen.FIG17_POINTS]
            result = worker.send({"cmd": "round", "workload": "sweep", "ops": ops,
                                  "store": str(store)})
            assert all(op["error"] is None for op in result["ops"])
            peaks.append(result["peak_rss_mb"])
        worker.send({"cmd": "exit"})
    finally:
        worker.close()
    return peaks


def test_peak_rss_after_n_and_2n_ops_agree(store, tmp_path):
    worker, _raw = spawn_worker(ROOT, tmp_path / "worker.log")
    peaks = _round_peaks(worker, store, (0, 1, 2))
    # Round 1 (N ops) sets the peak; rounds 2-3 (2N, 3N ops) stay within 5%.
    assert peaks[2] <= peaks[0] * 1.05, peaks


def test_peak_rss_does_not_change_with_the_probe_size(store, tmp_path):
    peaks = []
    for elements in (1_000, 12_500_000):  # 8 KB (heap) vs 100 MB (mapped)
        code = _RESIZED_PROBE.format(here=str(BENCH), elements=elements,
                                     worker=str(BENCH / "worker.py"))
        worker = Child([sys.executable, "-c", code], ROOT, tmp_path / f"worker{elements}.log")
        try:
            worker.reply()
        except BaseException:
            worker.close()
            raise
        peaks += _round_peaks(worker, store, (0,))
    assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0], peaks
