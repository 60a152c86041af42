"""Micro-benchmark: experiment-engine scaling across worker counts.

Methodology: one shared capture store is pre-warmed (untimed) by
running the Fig. 17 threshold sweep once serially, so every timed leg
afterwards does the *same, symmetric* eval-only work — render cost and
store population never leak into one leg but not another. Each worker
count first runs one *discarded* warm-up repetition — the rep that
pays pool fork + worker warm-up, since the shared pool registry keeps
worker processes warm across contexts — and then ``--reps`` timed
repetitions on fresh :class:`ExperimentContext` instances over that
store, recording the best wall clock. Without the discarded rep the
first leg of each worker count carried the fork cost while later reps
did not, skewing best-of toward whichever rep happened to dodge it.
The serial table is the reference; every leg
must reproduce it byte-for-byte, so the benchmark doubles as a
determinism check, and every leg must report ``executed == planned``
(the cross-process dedup invariant).

Usage::

    PYTHONPATH=src python benchmarks/engine_scaling.py [--scale 0.1]

Speedups depend on the machine: with fewer cores than workers the
process backend's dispatch overhead dominates and ratios sit near
1.0 — the point of the artifact is to make that measurable. The
``calibration_ms`` token (shared with ``benchmarks/hotpath.py``) lets
``benchmarks/compare.py --calibrate`` diff runs across machines.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import tempfile
import time

from repro.engine.scheduler import shutdown_pools
from repro.experiments import fig17_threshold
from repro.experiments.runner import ExperimentContext, format_table
from repro.ioutil import atomic_write_text
from repro.obs.machine import calibration_token, machine_info

RESULTS_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "bench_results" / "engine_scaling.json"
)

WORKER_COUNTS = (1, 2, 4)


def _run_once(jobs: int, store_root: str, args) -> "tuple[float, str, dict]":
    """One full sweep on a fresh context over the shared store."""
    with ExperimentContext(
        scale=args.scale, frames=args.frames,
        workloads=(args.workload,), jobs=jobs, capture_cache=store_root,
    ) as ctx:
        start = time.perf_counter()
        result = fig17_threshold.run(ctx)
        elapsed = time.perf_counter() - start
        report = ctx.engine.report
        counts = {
            "planned": report.planned,
            "executed": report.executed,
            "skipped": report.skipped,
            "failed": report.failed,
        }
    return elapsed, format_table(result), counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="doom3-1280x1024")
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--frames", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per worker count (best-of)")
    parser.add_argument("--cooldown", type=float, default=0.4,
                        help="idle seconds between reps so one rep's tail "
                             "(pool teardown, page cache churn) cannot "
                             "bleed into the next rep's timing")
    parser.add_argument("--out", default=str(RESULTS_PATH))
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-bench-captures-") as root:
        prewarm_start = time.perf_counter()
        _, reference_table, prewarm_counts = _run_once(1, root, args)
        prewarm_seconds = time.perf_counter() - prewarm_start
        print(f"prewarm (serial, cold store): {prewarm_seconds:.2f}s")

        legs = []
        serial_seconds = None
        for jobs in WORKER_COUNTS:
            # Discarded warm-up rep: pays pool fork + worker warm-up so
            # every *timed* rep below measures steady state.
            warm_elapsed, warm_table, _warm_counts = _run_once(
                jobs, root, args
            )
            if warm_table != reference_table:
                raise SystemExit(
                    f"--jobs {jobs} warm-up table differs from serial output"
                )
            print(f"jobs={jobs}: warm-up rep {warm_elapsed:.2f}s (discarded)")
            rep_seconds = []
            for _ in range(args.reps):
                time.sleep(args.cooldown)
                elapsed, table, counts = _run_once(jobs, root, args)
                if table != reference_table:
                    raise SystemExit(
                        f"--jobs {jobs} table differs from serial output"
                    )
                if counts["executed"] != counts["planned"]:
                    raise SystemExit(
                        f"--jobs {jobs}: executed {counts['executed']} != "
                        f"planned {counts['planned']} "
                        f"(skipped {counts['skipped']}, "
                        f"failed {counts['failed']})"
                    )
                rep_seconds.append(elapsed)
            best = min(rep_seconds)
            if serial_seconds is None:
                serial_seconds = best
            legs.append(
                {
                    "jobs": jobs,
                    "seconds": round(best, 3),
                    "rep_seconds": [round(s, 3) for s in rep_seconds],
                    "speedup_vs_serial": round(serial_seconds / best, 3),
                    **counts,
                }
            )
            print(f"jobs={jobs}: best {best:.2f}s of "
                  f"{[f'{s:.2f}' for s in rep_seconds]} "
                  f"({serial_seconds / best:.2f}x vs serial)")
        shutdown_pools()

    payload = {
        "benchmark": "engine_scaling",
        "experiment": "fig17",
        "params": {
            "workload": args.workload,
            "scale": args.scale,
            "frames": args.frames,
            "reps": args.reps,
        },
        "machine": machine_info(),
        "calibration_ms": round(calibration_token(), 3),
        "methodology": "pre-warmed shared store; eval-only legs; one "
                       "discarded warm-up rep then best-of-reps per "
                       "worker count",
        "prewarm": {
            "seconds": round(prewarm_seconds, 3),
            **prewarm_counts,
        },
        "tables_identical_across_jobs": True,
        "legs": legs,
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
