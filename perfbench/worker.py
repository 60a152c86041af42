"""In-process workload worker: one fresh interpreter per process.

``run.py`` spawns this script with ``PYTHONPATH=src``. It imports the
program, builds what the workload needs, prints a ``ready`` message
(the end of set-up) and then serves commands read as JSON lines on
stdin; replies are JSON lines on stdout prefixed with ``@@``:

* ``prep``  - render captures into a store (the untimed step of
  ``sweep``);
* ``round`` - run one round of ops, with the reference probe at the
  quiescent points between ops, and return per-op timings, output
  digests and probe samples;
* ``exit``  - write the trace (if any) and leave.

Per-frame state is dropped on the benchmark side: every capture gets a
fresh ``ExperimentContext`` (whose memo tables hold every capture and
result it has seen), so the worker's memory does not grow with the
number of ops.

The reported ``peak_rss_mb`` is the largest peak RSS *during an op*:
the kernel's peak mark is reset just before each op and read just
after it, so the probe's fresh 40 MB array and the output digests,
which run between ops, never set it.
"""

from __future__ import annotations

import gc
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import repro.workloads.games  # noqa: E402,F401  (builds the game scenes)
from repro.engine.capture_store import CaptureStore  # noqa: E402
from repro.engine.jobs import eval_job  # noqa: E402
from repro.experiments.runner import ExperimentContext  # noqa: E402

import checks  # noqa: E402
import opgen  # noqa: E402
from children import READY_LINE, reset_peak_rss, vmhwm_mb  # noqa: E402
from probe import ReferenceProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

#: The reference probe runs between ops at most this often.
PROBE_EVERY_S = 0.5


def new_context(store: "CaptureStore | None") -> ExperimentContext:
    return ExperimentContext(
        scale=opgen.SCALE, frames=opgen.FRAMES, capture_cache=store
    )


class Worker:
    def __init__(self, tracer: "Tracer | None") -> None:
        self.tracer = tracer
        self.probe = ReferenceProbe()
        self.probes: "list[tuple[float, float]]" = []
        self._last_probe = 0.0
        self.peak_rss_mb = 0.0

    def _probe(self, force: bool = False) -> None:
        """Run the reference probe if ``PROBE_EVERY_S`` passed since the last."""
        now = time.perf_counter()
        if force or now - self._last_probe >= PROBE_EVERY_S:
            ref = self.probe.run()
            self.probes.append((now + 0.5 * ref, ref))
            self._last_probe = time.perf_counter()

    def _timed(self, fn, *args):
        """Run one op; return its result, start, end and root span id."""
        reset_peak_rss()
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                result, span_id = self.tracer.call("bench.op", fn, args, {})
            else:
                span_id = None
                result = fn(*args)
            end = time.perf_counter()
        finally:
            self.peak_rss_mb = max(self.peak_rss_mb, vmhwm_mb("self"))
        return result, start, end, span_id

    def prep(self, store_dir: str, captures) -> dict:
        store = CaptureStore(store_dir)
        for config, frame in captures:
            new_context(store).capture(config, frame)
            gc.collect()
        return {"prepared": len(captures)}

    def round(self, workload: str, ops, store_dir: str) -> dict:
        self.probes = []
        self.peak_rss_mb = 0.0
        self._probe(force=True)
        store = CaptureStore(store_dir)
        records = []
        ctx = None
        current = None
        for op in ops:
            key, digest, error = None, None, None
            if workload == "capture":
                config, frame = op
                ctx = new_context(store)
                key = checks.capture_key(config, frame, opgen.SCALE)
                try:
                    capture, start, end, span = self._timed(ctx.capture, config, frame)
                    digest = checks.capture_digest(capture)
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    start = end = time.perf_counter()
                    span, error = None, f"{type(exc).__name__}: {exc}"
                capture = ctx = None
            else:
                config, frame, scenario, threshold = op
                if current != (config, frame):
                    ctx = None
                    gc.collect()
                    ctx = new_context(store)
                    current = (config, frame)
                key = checks.eval_key(config, frame, scenario, threshold, opgen.SCALE)
                job = eval_job(config, frame, scenario, threshold)
                try:
                    metrics, start, end, span = self._timed(
                        self._eval, ctx, job
                    )
                    digest = checks.bytes_digest(checks.metrics_bytes(metrics))
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    start = end = time.perf_counter()
                    span, error = None, f"{type(exc).__name__}: {exc}"
            records.append({
                "key": key, "start": start, "end": end, "digest": digest,
                "span": span, "error": error,
            })
            self._probe()
        ctx = None
        gc.collect()
        self._probe(force=True)
        return {"ops": records, "probes": self.probes, "peak_rss_mb": self.peak_rss_mb}

    @staticmethod
    def _eval(ctx: ExperimentContext, job) -> "dict[str, float]":
        ctx.execute([job])
        return ctx.frame_metrics(job.workload, job.frame, job.scenario, job.threshold)


def reply(payload: dict) -> None:
    sys.stdout.write("@@" + json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    traced = "--trace" in sys.argv[1:]
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    worker = Worker(tracer)
    # Marks the end of set-up in the stderr log (see run.py's _imports).
    print(READY_LINE, file=sys.stderr, flush=True)
    reply({"ready": True})
    for line in sys.stdin:
        cmd = json.loads(line)
        name = cmd["cmd"]
        if name == "prep":
            reply(worker.prep(cmd["store"], cmd["captures"]))
        elif name == "round":
            reply(worker.round(cmd["workload"], cmd["ops"], cmd["store"]))
        elif name == "exit":
            if tracer is not None and cmd.get("trace_out"):
                tracer.dump(cmd["trace_out"])
            reply({"bye": True})
            return 0
        else:
            reply({"error": f"unknown command {name!r}"})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
