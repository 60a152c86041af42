"""Regenerate ``expected.json``: the digest of every op's output.

Renders all 11 configs x 8 frames in-process and runs the Fig. 17 plan
on each, exactly as the workloads do, then writes one digest per op.
Run it only when the program's outputs are meant to change:

    PYTHONPATH=src python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import checks  # noqa: E402
import opgen  # noqa: E402


def compute() -> "dict[str, str]":
    """Digests of every op: captures and the Fig. 17 plan at
    ``opgen.SCALE``, and the ``serve`` design points at its scale."""
    from repro.engine.jobs import eval_job
    from repro.experiments.runner import ExperimentContext

    plans = ((opgen.SCALE, opgen.FIG17_POINTS, True),
             (opgen.SERVE_SCALE, opgen.SERVE_POINTS, False))
    digests = {}
    for config in opgen.CONFIGS:
        for frame in range(opgen.FRAMES):
            for scale, points, with_capture in plans:
                ctx = ExperimentContext(scale=scale, frames=opgen.FRAMES)
                if with_capture:
                    capture = ctx.capture(config, frame)
                    digests[checks.capture_key(config, frame, scale)] = checks.capture_digest(capture)
                ctx.execute([eval_job(config, frame, s, t) for s, t in points])
                for s, t in points:
                    metrics = ctx.frame_metrics(config, frame, s, t)
                    digests[checks.eval_key(config, frame, s, t, scale)] = checks.bytes_digest(
                        checks.metrics_bytes(metrics)
                    )
            print(f"{config} frame {frame} done", file=sys.stderr, flush=True)
    return digests


def main() -> int:
    payload = {"digests": dict(sorted(compute().items()))}
    checks.EXPECTED_PATH.write_text(json.dumps(payload, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
