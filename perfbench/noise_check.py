"""Noise self-check of the drift normalisation.

Runs a short ``sweep`` slice alone, then with a CPU-bound co-runner on
the other core, twice over (alone, loaded, alone, loaded), and prints
raw and normalised ``op_s_p50`` of each phase with the probe median
``bench.ref_s``. Normalised seconds should move far less than raw
seconds between the alone and loaded phases; a phase whose probe
median moves without its ops moving points at the probe itself.

    python3 perfbench/noise_check.py [--seed N]

Exits 1 when the normalised median moves by more than half of what the
raw median moves (and the raw median moved by at least 5%).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import opgen  # noqa: E402
import stats  # noqa: E402
from children import spawn_worker  # noqa: E402
from probe import adjacent_ref, normalise  # noqa: E402

#: Captures in the slice (the first ones of the seed's first round).
SLICE_CAPTURES = 2


def co_runner() -> None:
    """CPU-bound load: numpy sorts plus a Python dict loop, forever."""
    import numpy as np

    data = np.random.default_rng(0).random(1 << 20)
    table: "dict[int, int]" = {}
    while True:
        np.sort(data)
        for i in range(50_000):
            table[i & 4095] = i


def phase(worker, ops, store) -> "tuple[float, float, float]":
    result = worker.send({"cmd": "round", "workload": "sweep", "ops": ops, "store": str(store)})
    raw, norm = [], []
    for rec in result["ops"]:
        if rec["error"] is not None:
            raise RuntimeError(f"op {rec['key']} failed: {rec['error']}")
        elapsed = rec["end"] - rec["start"]
        raw.append(elapsed)
        norm.append(normalise(elapsed, adjacent_ref(result["probes"], rec["start"], rec["end"])))
    ref = stats.median(r for _t, r in result["probes"])
    return stats.median(raw), stats.median(norm), ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ops = opgen.sweep_rounds(args.seed)[0][: SLICE_CAPTURES * len(opgen.FIG17_POINTS)]
    work = ROOT / ".bench_work" / f"noise-{time.time_ns()}"
    work.mkdir(parents=True)
    cpus = sorted(os.sched_getaffinity(0))
    worker = load = None
    try:
        prep, _raw = spawn_worker(ROOT, work / "prep.log")
        try:
            prep.send({"cmd": "prep", "store": str(work / "store"),
                       "captures": opgen.captures_of(ops)})
            prep.send({"cmd": "exit"})
        finally:
            prep.close()
        worker, _raw = spawn_worker(ROOT, work / "worker.log")
        if len(cpus) > 1:
            os.sched_setaffinity(worker.proc.pid, {cpus[0]})
        phase(worker, ops, work / "store")  # warm-up, not reported
        rows = []
        for label in ("alone", "loaded", "alone", "loaded"):
            if label == "loaded":
                load = subprocess.Popen([sys.executable, __file__, "--co-runner"])
                if len(cpus) > 1:
                    os.sched_setaffinity(load.pid, {cpus[1]})
                time.sleep(0.5)
            raw, norm, ref = phase(worker, ops, work / "store")
            if load is not None:
                load.kill()
                load.wait()
                load = None
            rows.append((label, raw, norm, ref))
            print(f"{label:6s}  raw op_s_p50 {raw:.4f} s  normalised op_s_p50 {norm:.4f} s  "
                  f"bench.ref_s {ref:.4f} s", flush=True)
        worker.send({"cmd": "exit"})
    finally:
        if load is not None:
            load.kill()
            load.wait()
        if worker is not None:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)
    alone = [r for r in rows if r[0] == "alone"]
    loaded = [r for r in rows if r[0] == "loaded"]
    raw_move = stats.median(r[1] for r in loaded) / stats.median(r[1] for r in alone) - 1
    norm_move = stats.median(r[2] for r in loaded) / stats.median(r[2] for r in alone) - 1
    print(f"co-runner moved raw op_s_p50 by {raw_move:+.1%}, normalised by {norm_move:+.1%}")
    if abs(raw_move) >= 0.05 and abs(norm_move) > 0.5 * abs(raw_move):
        print("FAIL: normalisation did not cancel the co-runner's slowdown")
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--co-runner"]:
        co_runner()
    raise SystemExit(main())
