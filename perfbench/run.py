"""The repository benchmark: ``capture``, ``sweep`` and ``serve``.

    python3 perfbench/run.py --workload capture --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the program is taken from ``src/``).
Prints one human-readable line per metric, then, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` reports the per-layer metrics of a traced run (plus an untraced run
of the same seed, for the tracing overhead). ``perfbench/README.md``
defines every metric.

Every host time is in *normalised seconds* (see ``probe.py``), which
cancels the drift of the host's speed between and within runs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from children import BENCH_ENV  # noqa: E402

# Before numpy is imported here: the probes in this process run under
# the same environment as the children (see children.BENCH_ENV).
os.environ.update(BENCH_ENV)

import checks  # noqa: E402
import opgen  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from children import SETUP_DONE, ChildError, Connection, Server, spawn_worker, vmhwm_mb  # noqa: E402
from probe import ReferenceProbe, adjacent_ref, normalise  # noqa: E402

WORKLOADS = ("capture", "sweep", "serve")

#: Normalised seconds one round of each workload takes at HEAD. A run
#: measures ``max(1, seconds // NOMINAL_ROUND_S)`` whole rounds, so the
#: op list depends only on ``--seed`` and ``--seconds``: runs of two
#: versions of the program measure the same ops, and a run of the
#: current version lasts about ``--seconds``.
NOMINAL_ROUND_S = {"capture": 8.0, "sweep": 14.0, "serve": 4.5}
#: Fresh interpreters timed per run for ``setup_s`` (median taken).
SETUP_SPAWNS = 3
#: Probes taken back to back just before and just after each set-up spawn.
SETUP_PROBES = 5
#: Probes taken back to back at each barrier between serve steps; a step
#: is normalised by the probes at the barriers before and after it.
BARRIER_PROBES = 3

E2E_METRICS = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "frac"),
)

LAYER_METRICS = (
    ("process.import_s", "s"),
    ("workloads.build_s", "s"),
    ("raster.render_gbuffer_s", "s"),
    ("texture.filter_batch_s", "s"),
    ("texture.fragments", "count"),
    ("renderer.capture_self_s", "s"),
    ("capture_store.put_s", "s"),
    ("capture_store.bytes_per_capture", "B"),
    ("capture_store.get_s", "s"),
    ("capture_store.hit_frac", "frac"),
    ("memsys.process_frame_s", "s"),
    ("memsys.lines", "count"),
    ("memsys.ns_per_line", "ns"),
    ("memsys.l1_hit_rate", "frac"),
    ("memsys.l2_hit_rate", "frac"),
    ("core.patu.decide_s", "s"),
    ("quality.mssim_s", "s"),
    ("timing.frame_timing_s", "s"),
    ("power.frame_energy_s", "s"),
    ("renderer.evaluate_self_s", "s"),
    ("engine.execute_s", "s"),
    ("engine.dedup_frac", "frac"),
    ("service.render_s_p50", "s"),
    ("service.eval_s_p50", "s"),
    ("service.replay_s_p50", "s"),
    ("service.coalesced_frac", "frac"),
    ("service.rejected", "count"),
    ("bench.ref_s", "s"),
    ("bench.raw_op_s_p50", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
)

#: Per-layer span times reported per op, by metric name: (layer, field).
SPAN_TIMES = {
    "raster.render_gbuffer_s": ("raster.render_gbuffer", "incl"),
    "texture.filter_batch_s": ("texture.filter_batch", "incl"),
    "renderer.capture_self_s": ("renderer.capture_frame", "self"),
    "capture_store.put_s": ("capture_store.put", "incl"),
    "capture_store.get_s": ("capture_store.get", "incl"),
    "memsys.process_frame_s": ("memsys.process_frame", "incl"),
    "core.patu.decide_s": ("core.patu.decide", "incl"),
    "quality.mssim_s": ("quality.mssim", "incl"),
    "timing.frame_timing_s": ("timing.frame_timing", "incl"),
    "power.frame_energy_s": ("power.frame_energy", "incl"),
    "renderer.evaluate_self_s": ("renderer.evaluate", "self"),
    "engine.execute_s": ("engine.execute", "incl"),
}


class Run:
    """State of one untraced or traced run of a workload."""

    def __init__(self, workload: str, seed: int, seconds: int, work: pathlib.Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.probe = ReferenceProbe()
        #: Probes taken in this (the client) process: (timestamp, ref_s).
        self.probes: "list[tuple[float, float]]" = []
        #: Set-up samples: (raw_s, ref_s).
        self.setups: "list[tuple[float, float]]" = []
        #: One record per op: key, kind, start, end, ref, ok, round.
        self.ops: "list[dict]" = []
        #: Normalised seconds of the timed phase (ops only, no probes).
        self.timed_norm_s = 0.0
        self.peak_rss_mb = 0.0
        self.rounds = 0
        self.roots: "list[tuple[int, float, float, float]]" = []
        self.trace: "dict | None" = None
        self.service_stats: dict = {}
        self.expected = checks.load_expected()

    def take_probe(self, count: int = 1) -> None:
        for _ in range(count):
            ref = self.probe.run()
            self.probes.append((time.perf_counter() - 0.5 * ref, ref))

    def timed_spawn(self, spawn):
        """Time one set-up spawn between two bursts of probes.

        ``spawn()`` returns ``(child, raw_s)``; the spawn is normalised by
        the median of the probes just before and just after it.
        """
        self.take_probe(SETUP_PROBES)
        child, raw = spawn()
        self.take_probe(SETUP_PROBES)
        ref = statistics.median(r for _t, r in self.probes[-2 * SETUP_PROBES:])
        self.setups.append((raw, ref))
        return child

    def round_ops(self, rounds: list) -> list:
        """The whole rounds this run measures."""
        count = max(1, int(self.seconds // NOMINAL_ROUND_S[self.workload]))
        return rounds[:count]

    # -- metrics -------------------------------------------------------

    def setup_s(self) -> float:
        return statistics.median(normalise(raw, ref) for raw, ref in self.setups)

    def cold_ops(self) -> "list[dict]":
        return [op for op in self.ops if op["ok"] and op["kind"] != "replay"]

    def e2e_metrics(self) -> "dict[str, float]":
        cold = [normalise(op["end"] - op["start"], op["ref"]) for op in self.cold_ops()]
        if not cold:
            raise ChildError("no op completed")
        p, tail_s, beyond = stats.tail(cold)
        self.tail_info = (p, beyond, len(cold))
        attempted = len(self.ops)
        failed = sum(not op["ok"] for op in self.ops)
        return {
            "setup_s": self.setup_s(),
            "op_s_p50": stats.median(cold),
            "op_s_tail": tail_s,
            "ops_per_s": len(cold) / self.timed_norm_s,
            "peak_rss_mb": self.peak_rss_mb,
            "success_rate": 1.0 - failed / attempted,
        }

    def raw_op_s_p50(self) -> float:
        return stats.median(op["end"] - op["start"] for op in self.cold_ops())

    def ref_s(self) -> float:
        return stats.median(ref for _t, ref in self.probes)


# ----------------------------------------------------------------------
# In-process workloads: capture, sweep
# ----------------------------------------------------------------------


def op_ok(expected: "dict[str, str]", rec: dict) -> bool:
    """Did an in-process op succeed with the committed output?"""
    if rec["error"] is not None:
        print(f"op {rec['key']} failed: {rec['error']}", file=sys.stderr)
        return False
    if not checks.check(expected, rec["key"], rec["digest"]):
        print(f"op {rec['key']}: wrong output {rec['digest']}", file=sys.stderr)
        return False
    return True


def run_inprocess(run: Run, traced: bool, store: "pathlib.Path | None" = None) -> None:
    """Set up, then run whole rounds of ops in a worker process.

    ``sweep`` keeps its first set-up spawn alive as the preparation
    child that fills the capture store before each round (untimed).
    The traced run reuses the untraced run's store for ``sweep``.
    """
    workload = run.workload
    generate = opgen.capture_rounds if workload == "capture" else opgen.sweep_rounds
    rounds = run.round_ops(generate(run.seed))
    store = store or run.work / f"store-{'traced' if traced else 'plain'}"
    spawns = 1 if traced else SETUP_SPAWNS
    prep = worker = None
    try:
        extra = ["--trace"] if traced else []
        flags = ["-X", "importtime"] if traced else []
        for i in range(spawns):
            log = run.work / f"{'traced' if traced else 'worker'}{i}.log"
            child = run.timed_spawn(lambda: spawn_worker(ROOT, log, extra, flags))
            if i == spawns - 1:
                worker = child
            elif workload == "sweep" and prep is None:
                prep = child
            else:
                child.send({"cmd": "exit"})
                child.close()
        for k, ops in enumerate(rounds):
            if prep is not None:
                prep.send({"cmd": "prep", "store": str(store),
                           "captures": opgen.captures_of(ops)})
            result = worker.send({
                "cmd": "round", "workload": workload, "ops": ops, "store": str(store),
            })
            run.rounds += 1
            run.peak_rss_mb = max(run.peak_rss_mb, result["peak_rss_mb"])
            run.probes.extend(result["probes"])
            for rec in result["ops"]:
                ref = adjacent_ref(result["probes"], rec["start"], rec["end"])
                ok = op_ok(run.expected, rec)
                run.ops.append({**rec, "kind": workload, "ref": ref, "ok": ok, "round": k})
                run.timed_norm_s += normalise(rec["end"] - rec["start"], ref)
                if rec["span"] is not None:
                    run.roots.append((rec["span"], rec["start"], rec["end"], ref))
        if traced:
            trace_path = run.work / "trace-worker.json"
            worker.send({"cmd": "exit", "trace_out": str(trace_path)})
            run.trace = json.loads(trace_path.read_text())
            run.trace["importtime"] = worker.log_path.read_text(errors="replace")
        else:
            worker.send({"cmd": "exit"})
        if prep is not None:
            prep.send({"cmd": "exit"})
    finally:
        for child in (worker, prep):
            if child is not None:
                child.close()


# ----------------------------------------------------------------------
# serve: a render-service subprocess and two closed-loop clients
# ----------------------------------------------------------------------


def _client(conn: Connection, requests, out: list) -> None:
    """One closed-loop client: send each request after the last reply.

    A broken connection fails the request in flight and every request
    still to send, so ``attempted`` always counts the whole op list.
    """
    for n, request in enumerate(requests):
        payload = {k: v for k, v in request.items() if k != "replay"}
        payload["id"] = f"{request['workload']}-{n}"
        try:
            response, raw, (start, end) = conn.request(payload)
        except (OSError, ChildError, ValueError) as exc:
            now = time.perf_counter()
            out.extend((r, None, b"", now, now, str(exc)) for r in requests[n:])
            return
        out.append((request, response, raw, start, end, None))


def response_ok(expected: "dict[str, str]", request: dict, response, raw: bytes) -> bool:
    """Is a service response correct for its request?

    A render must echo its frame; an eval (or replay) must carry
    metrics whose raw bytes match the committed digest of the same
    design point evaluated in-process.
    """
    if response is None or not response.get("ok"):
        return False
    if request["op"] == "render":
        capture = response.get("capture", {})
        return capture.get("workload") == request["workload"] and capture.get("frame") == request["frame"]
    key = checks.eval_key(request["workload"], request["frame"], request["scenario"],
                          request["threshold"], opgen.SERVE_SCALE)
    body = checks.response_metrics_bytes(raw)
    return checks.check(expected, key, None if body is None else checks.bytes_digest(body))


def run_serve(run: Run, traced: bool) -> None:
    rounds = run.round_ops(opgen.serve_rounds(run.seed))
    spawns = 1 if traced else SETUP_SPAWNS
    server = None
    trace_path = run.work / "trace-server.json"
    try:
        for i in range(spawns):
            store = run.work / f"serve-store-{'traced' if traced else 'plain'}{i}"
            serve = ["serve", "--backend", "serial", "--port", "0",
                     "--capture-cache", str(store), "--scale", str(opgen.SERVE_SCALE)]
            if traced:
                argv = [sys.executable, "-X", "importtime", str(HERE / "serve_launch.py"),
                        str(trace_path), *serve]
            else:
                argv = [sys.executable, "-m", "repro", *serve]
            log = run.work / f"server{i}.log"

            def spawn():
                server = Server(argv, ROOT, log, cwd=run.work)
                return server, server.setup_raw_s

            candidate = run.timed_spawn(spawn)
            if i == spawns - 1:
                server = candidate
            else:
                candidate.close()
        conns = [Connection(server.host, server.port) for _ in range(opgen.SERVE_CLIENTS)]
        try:
            run.take_probe(BARRIER_PROBES)
            for k, steps in enumerate(rounds):
                for per_client in steps:
                    results: "list[list]" = [[] for _ in conns]
                    threads = [
                        threading.Thread(target=_client, args=(conn, reqs, out))
                        for conn, reqs, out in zip(conns, per_client, results)
                    ]
                    t0 = time.perf_counter()
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    t1 = time.perf_counter()
                    run.take_probe(BARRIER_PROBES)
                    ref = statistics.median(r for _t, r in run.probes[-2 * BARRIER_PROBES:])
                    run.timed_norm_s += normalise(t1 - t0, ref)
                    intervals = []
                    for out in results:
                        for request, response, raw, start, end, error in out:
                            ok = error is None and response_ok(run.expected, request, response, raw)
                            if not ok:
                                print(f"request {request} failed: {error or raw[:200]!r}",
                                      file=sys.stderr)
                            kind = "replay" if request.get("replay") else request["op"]
                            run.ops.append({"key": request, "kind": kind, "start": start,
                                            "end": end, "ref": ref, "ok": ok, "round": k})
                            intervals.append((start, end))
                    for start, end in _union(intervals):
                        run.roots.append((-1 - len(run.roots), start, end, ref))
                run.rounds += 1
            run.peak_rss_mb = vmhwm_mb(server.proc.pid)
            run.service_stats = server.stats()
        finally:
            for conn in conns:
                conn.close()
        server.close()
        if traced:
            run.trace = json.loads(trace_path.read_text())
            run.trace["importtime"] = server.log_path.read_text(errors="replace")
    finally:
        if server is not None:
            server.close(graceful=False)


def _union(intervals):
    merged: "list[list[float]]" = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [tuple(m) for m in merged]


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------


def _imports(run: Run) -> "tuple[float, float]":
    """(process.import_s, workloads.build_s) of the traced spawn, normalised.

    Both come from the child's ``-X importtime`` log, read up to the
    line that marks the end of its set-up: ``process.import_s`` sums the
    cumulative times of the top-level imports, and ``workloads.build_s``
    is the ``repro.workloads.games`` entry.
    """
    _raw, ref = run.setups[-1]
    total = build = 0.0
    for line in run.trace["importtime"].splitlines():
        if SETUP_DONE.search(line):
            break
        fields = line.split("|")
        if not line.startswith("import time:") or not fields[1].strip().isdigit():
            continue
        name = fields[-1][1:]
        if not name.startswith(" "):
            total += int(fields[1]) / 1e6
        if name.strip() == "repro.workloads.games":
            build = int(fields[1]) / 1e6
    return normalise(total, ref), normalise(build, ref)


def layer_metrics(plain: Run, traced: Run) -> "dict[str, float]":
    trace = traced.trace
    groups = tracing.group_by_root(trace["spans"], [r[:3] for r in traced.roots])
    totals: "dict[str, dict[str, float]]" = {}
    wall = unattributed = 0.0
    for root_id, start, end, ref in traced.roots:
        layers, rest = tracing.layer_report(groups[root_id], (root_id, start, end))
        factor = normalise(1.0, ref)
        wall += (end - start) * factor
        unattributed += rest * factor
        for name, entry in layers.items():
            acc = totals.setdefault(name, {"incl": 0.0, "self": 0.0})
            acc["incl"] += entry["incl"] * factor
            acc["self"] += entry["self"] * factor
    n_ops = max(1, len(traced.ops))
    counts = trace["counts"]

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    out: "dict[str, float]" = {}
    out["process.import_s"], out["workloads.build_s"] = _imports(traced)
    for metric, (layer, field) in SPAN_TIMES.items():
        out[metric] = totals.get(layer, {}).get(field, 0.0) / n_ops
    out["texture.fragments"] = counts.get("texture.fragments", 0.0) / n_ops
    out["capture_store.bytes_per_capture"] = ratio("capture_store.bytes", "capture_store.puts")
    out["capture_store.hit_frac"] = ratio("capture_store.hits", "capture_store.gets")
    out["memsys.lines"] = counts.get("memsys.lines", 0.0) / n_ops
    lines = counts.get("memsys.lines", 0.0)
    memsys_s = totals.get("memsys.process_frame", {}).get("incl", 0.0)
    out["memsys.ns_per_line"] = memsys_s / lines * 1e9 if lines else 0.0
    out["memsys.l1_hit_rate"] = ratio("memsys.l1_hits", "memsys.l1_accesses")
    out["memsys.l2_hit_rate"] = ratio("memsys.l2_hits", "memsys.l2_accesses")
    submitted = counts.get("engine.submitted", 0.0)
    out["engine.dedup_frac"] = (
        (submitted - counts.get("engine.planned", 0.0)) / submitted if submitted else 0.0
    )
    for kind in ("render", "eval", "replay"):
        lat = [normalise(op["end"] - op["start"], op["ref"])
               for op in traced.ops if op["ok"] and op["kind"] == kind]
        out[f"service.{kind}_s_p50"] = stats.median(lat) if lat else 0.0
    service = traced.service_stats
    out["service.coalesced_frac"] = (
        service.get("coalesced_batches", 0) / service["batches"] if service.get("batches") else 0.0
    )
    out["service.rejected"] = float(service.get("rejected", 0))
    out["bench.ref_s"] = plain.ref_s()
    out["bench.raw_op_s_p50"] = plain.raw_op_s_p50()
    traced_p50 = stats.median(
        normalise(op["end"] - op["start"], op["ref"]) for op in traced.cold_ops()
    )
    out["trace.overhead_frac"] = traced_p50 / plain.e2e_metrics()["op_s_p50"] - 1.0
    out["trace.unattributed_frac"] = unattributed / wall if wall else 0.0
    return out


# ----------------------------------------------------------------------


def execute(workload: str, seed: int, seconds: int, trace: bool, work: pathlib.Path) -> dict:
    runner = run_serve if workload == "serve" else run_inprocess
    plain = Run(workload, seed, seconds, work)
    runner(plain, traced=False)
    metrics = plain.e2e_metrics()
    p, beyond, n = plain.tail_info
    print(f"# {workload}: seed {seed}, {plain.rounds} round(s), {n} timed ops "
          f"(op_s_tail is p{p}, {beyond} samples beyond it)")
    attempted = len(plain.ops)
    failed = sum(not op["ok"] for op in plain.ops)
    if trace:
        traced = Run(workload, seed, seconds, work)
        if workload == "serve":
            run_serve(traced, traced=True)
        else:
            store = work / "store-plain" if workload == "sweep" else None
            run_inprocess(traced, traced=True, store=store)
        attempted += len(traced.ops)
        failed += sum(not op["ok"] for op in traced.ops)
        metrics = layer_metrics(plain, traced)
        units = dict(LAYER_METRICS)
    else:
        units = dict(E2E_METRICS)
        print(f"error_rate = {failed / attempted:.6f} (failed {failed} of {attempted} ops)")
        print(f"bench.ref_s = {plain.ref_s():.6f} s (raw probe median)")
        print(f"bench.raw_op_s_p50 = {plain.raw_op_s_p50():.6f} s")
        print("setup samples (raw s / adjacent ref s): " + ", ".join(
            f"{raw:.3f}/{ref:.4f}" for raw, ref in plain.setups))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still reaps its children (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The vCPUs of a VM run at different speeds at any one moment, so the
    # probe must run on the CPU that does the work: the benchmark pins
    # itself to one CPU, and every child inherits the pin.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
