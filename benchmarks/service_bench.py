"""Service benchmark: N concurrent synthetic clients vs a live server.

Starts ``repro serve`` as a subprocess, then measures three phases
over one shared design-point request set (all clients walk the same
set, so in-flight requests overlap — the cross-request coalescing
case the batcher exists for):

1. **warm** (untimed) — one client walks the set once, populating the
   sharded capture store and the engine's metric cache (and, under
   ``--chaos-worker-kill``, absorbing the worker kills so the timed
   phases measure steady state, exactly like
   ``benchmarks/engine_scaling.py``'s warm-up rep);
2. **sequential** (timed) — one request in flight at a time: the
   baseline, and the byte-identity reference for every later response;
3. **concurrent** (timed) — ``--clients`` threads, each with its own
   connection, walking the set closed-loop. Requests that arrive
   while the engine is busy coalesce into batches.

Reported: sustained requests/sec, p50/p99 latency, batch-coalescing
rate, store shard hit rates, speedup over the sequential baseline —
appended to the run ledger as one ``serve`` record (gated by ``repro
trends``) and written to ``bench_results/service_bench.json``.

The benchmark *fails* (exit 1) when any concurrent response is not
byte-identical to the sequential baseline's response for the same
design point, when a chaos-marked job does not quarantine exactly as
planned, or when measured speedup falls below ``--min-speedup``.

Usage::

    PYTHONPATH=src python benchmarks/service_bench.py            # default
    PYTHONPATH=src python benchmarks/service_bench.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/service_bench.py \
        --jobs 2 --chaos-worker-kill 0.3
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
RESULTS_PATH = REPO_ROOT / "bench_results" / "service_bench.json"

SCHEMA = 1

sys.path.insert(0, str(SRC_ROOT))


def build_requests(args) -> "list[dict]":
    """The shared request set every client walks, in a fixed order."""
    requests = []
    for workload in args.workloads:
        for frame in range(args.frames):
            for threshold in args.thresholds:
                requests.append({
                    "op": "eval",
                    "workload": workload,
                    "frame": frame,
                    "scenario": "patu",
                    "threshold": threshold,
                })
    return requests


def request_key(request: dict) -> str:
    return json.dumps(
        {k: v for k, v in request.items() if k != "id"}, sort_keys=True
    )


def canonical_response(raw: bytes) -> bytes:
    """One response line with its ``id`` removed, re-canonicalized."""
    payload = json.loads(raw)
    payload.pop("id", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def scan_chaos_seed(requests: "list[dict]", kill_rate: float):
    """A seed whose kills mark some-but-not-all evals, no captures.

    Chaos decisions are keyed by job identity (machine-independent),
    so the benchmark can precompute exactly which design points the
    server will quarantine and assert on them.
    """
    from repro.engine.jobs import capture_job, eval_job
    from repro.engine.worker import chaos_identity
    from repro.resilience.faults import FaultInjector, FaultPlan

    evals = [
        eval_job(r["workload"], r["frame"], r["scenario"], r["threshold"])
        for r in requests
    ]
    captures = {
        chaos_identity(capture_job(r["workload"], r["frame"]))
        for r in requests
    }
    probe = FaultInjector()
    for seed in range(2000):
        probe.configure(FaultPlan(seed=seed).with_chaos(kill=kill_rate))
        marks = [
            probe.should_kill_worker(chaos_identity(job)) for job in evals
        ]
        if not (any(marks) and not all(marks)):
            continue
        if any(probe.should_kill_worker(identity) for identity in captures):
            continue
        return seed, marks
    raise SystemExit("no chaos seed marks some-but-not-all eval jobs")


class Server:
    """The ``repro serve`` subprocess under benchmark."""

    def __init__(self, args, store_root: str, chaos_seed: "int | None"):
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", str(args.port),
            "--scale", str(args.scale),
            "--jobs", str(args.jobs),
            "--capture-cache", store_root,
            "--store-prefix", str(args.store_prefix),
            "--max-batch", str(args.max_batch),
        ]
        if args.chaos_worker_kill:
            command += [
                "--chaos-worker-kill", str(args.chaos_worker_kill),
                "--fault-seed", str(chaos_seed),
                "--job-timeout", "60",
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            command, env=env, stderr=subprocess.PIPE, text=True
        )
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + 120.0
        for line in self.proc.stderr:
            print(f"  server: {line.rstrip()}", file=sys.stderr)
            if "listening on" in line:
                port = int(line.rsplit(":", 1)[1])
                threading.Thread(target=self._drain, daemon=True).start()
                return port
            if time.monotonic() > deadline:
                break
        self.proc.kill()
        raise SystemExit("server never became ready")

    def _drain(self) -> None:
        for line in self.proc.stderr:
            print(f"  server: {line.rstrip()}", file=sys.stderr)

    def stop(self, client=None) -> int:
        try:
            if client is not None:
                client.shutdown()
            return self.proc.wait(timeout=60)
        except Exception:  # noqa: BLE001 — benchmark teardown
            self.proc.kill()
            return self.proc.wait(timeout=10)


def run_client(port: int, requests: "list[dict]", prefix: str):
    """Walk the request set once; return (latencies_s, responses)."""
    from repro.service.client import ServiceClient

    latencies: "list[float]" = []
    responses: "dict[str, bytes]" = {}
    client = ServiceClient("127.0.0.1", port)
    try:
        for i, request in enumerate(requests):
            t0 = time.perf_counter()
            _response, raw = client.request_raw(
                {**request, "id": f"{prefix}-{i}"}
            )
            latencies.append(time.perf_counter() - t0)
            responses[request_key(request)] = canonical_response(raw)
    finally:
        client.close()
    return latencies, responses


def percentile(values: "list[float]", q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent synthetic clients (default 8)")
    parser.add_argument("--workloads", nargs="+", default=["wolf-640x480"],
                        help="workload request names (default wolf-640x480)")
    parser.add_argument("--frames", type=int, default=2)
    parser.add_argument("--thresholds", type=float, nargs="+",
                        default=[0.2, 0.3, 0.4, 0.5, 0.6, 0.8])
    parser.add_argument("--scale", type=float, default=0.125)
    parser.add_argument("--jobs", type=int, default=2,
                        help="server worker count (default 2)")
    parser.add_argument("--port", type=int, default=0,
                        help="server port (default 0 = ephemeral)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="capture store directory (default: temp)")
    parser.add_argument("--store-prefix", type=int, default=1,
                        dest="store_prefix")
    parser.add_argument("--max-batch", type=int, default=64,
                        dest="max_batch")
    parser.add_argument("--chaos-worker-kill", type=float, default=0.0,
                        dest="chaos_worker_kill", metavar="RATE",
                        help="arm seeded worker kills on the server and "
                             "assert supervision semantics")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        dest="min_speedup", metavar="X",
                        help="fail when concurrent/sequential throughput "
                             "falls below X (default 0 = report only)")
    parser.add_argument("--quick", action="store_true",
                        help="small CI configuration (4 clients, "
                             "1 frame, 4 thresholds)")
    parser.add_argument("--ledger", metavar="DIR", default=None,
                        help="run-ledger directory (default .repro/ledger)")
    parser.add_argument("--no-ledger", action="store_true", dest="no_ledger")
    parser.add_argument("--out", default=str(RESULTS_PATH))
    args = parser.parse_args(argv)
    if args.quick:
        args.clients = min(args.clients, 4)
        args.frames = 1
        args.thresholds = args.thresholds[:4]

    from repro.ioutil import atomic_write_text
    from repro.obs import append_record, build_record
    from repro.obs.machine import calibration_token

    requests = build_requests(args)
    chaos_seed = marks = None
    if args.chaos_worker_kill:
        chaos_seed, marks = scan_chaos_seed(requests, args.chaos_worker_kill)
        print(f"chaos: seed {chaos_seed} marks "
              f"{sum(marks)}/{len(marks)} design point(s) for kill")

    started = time.perf_counter()
    calibration_ms = round(calibration_token(), 3)
    store_tmp = None
    store_root = args.store
    if store_root is None:
        store_tmp = tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
        store_root = store_tmp.name

    server = Server(args, store_root, chaos_seed)
    from repro.service.client import ServiceClient

    failures: "list[str]" = []
    try:
        control = ServiceClient("127.0.0.1", server.port)
        backend = control.stats()["backend"]
        print(f"== service_bench: {len(requests)} design point(s), "
              f"{args.clients} client(s), backend "
              f"{backend}, jobs {args.jobs} ==")

        # Phase 1: warm (untimed) — store + metric caches, chaos kills.
        t0 = time.perf_counter()
        _warm_lat, warm_responses = run_client(server.port, requests, "w")
        print(f"warm: {len(requests)} request(s) "
              f"in {time.perf_counter() - t0:.2f}s")

        # Phase 2: sequential baseline (timed, one in flight).
        t0 = time.perf_counter()
        seq_latencies, seq_responses = run_client(server.port, requests, "s")
        seq_wall = time.perf_counter() - t0
        seq_rps = len(requests) / seq_wall
        if seq_responses != warm_responses:
            failures.append("sequential responses differ from warm pass")
        stats_before = control.stats()

        # Phase 3: concurrent clients (timed, closed-loop per client).
        results: "list[tuple[list[float], dict[str, bytes]]]" = [None] * args.clients
        threads = []
        barrier = threading.Barrier(args.clients)

        def worker(slot: int) -> None:
            barrier.wait()
            results[slot] = run_client(server.port, requests, f"c{slot}")

        t0 = time.perf_counter()
        for slot in range(args.clients):
            thread = threading.Thread(target=worker, args=(slot,))
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
        conc_wall = time.perf_counter() - t0
        stats_after = control.stats()

        conc_latencies = [lat for lats, _ in results for lat in lats]
        total_requests = len(conc_latencies)
        conc_rps = total_requests / conc_wall
        speedup = conc_rps / seq_rps if seq_rps else 0.0

        # Byte-identity: every concurrent response must equal the
        # sequential baseline's response for that design point.
        mismatches = 0
        for _lats, responses in results:
            for key, body in responses.items():
                if seq_responses.get(key) != body:
                    mismatches += 1
        if mismatches:
            failures.append(
                f"{mismatches} concurrent response(s) not byte-identical "
                "to the sequential baseline"
            )

        # Chaos: precomputed marked design points must have quarantined
        # (typed WorkerCrashError errors), survivors must have passed,
        # and the server must still be responsive.
        if marks is not None:
            for request, marked in zip(requests, marks):
                payload = json.loads(seq_responses[request_key(request)])
                if marked:
                    if payload.get("ok"):
                        failures.append(
                            f"chaos-marked point answered ok: {request}"
                        )
                    elif payload["error"]["type"] != "WorkerCrashError":
                        failures.append(
                            "chaos-marked point failed with "
                            f"{payload['error']['type']}, expected "
                            f"WorkerCrashError: {request}"
                        )
                elif not payload.get("ok"):
                    failures.append(
                        f"unmarked design point failed under chaos: "
                        f"{request}: {payload.get('error')}"
                    )
            if not control.ping().get("ok"):
                failures.append("server unresponsive after chaos run")

        batches = stats_after["batches"] - stats_before["batches"]
        batched = (stats_after["batched_requests"]
                   - stats_before["batched_requests"])
        coalesced_jobs = (stats_after["coalesced_jobs"]
                          - stats_before["coalesced_jobs"])
        coalesced_batches = (stats_after["coalesced_batches"]
                             - stats_before["coalesced_batches"])
        coalesce_rate = coalesced_jobs / batched if batched else 0.0
        store_stats = stats_after.get("store") or {}
        lookups = store_stats.get("hits", 0) + store_stats.get("misses", 0)
        store_hit_rate = store_stats.get("hits", 0) / lookups if lookups else 0.0
        shard_hits = {
            shard: bucket
            for shard, bucket in (stats_after.get("shards") or {}).items()
        }

        if args.min_speedup and speedup < args.min_speedup:
            failures.append(
                f"speedup {speedup:.2f}x below --min-speedup "
                f"{args.min_speedup:g}x"
            )

        metrics = {
            "requests_per_sec": round(conc_rps, 3),
            "sequential_rps": round(seq_rps, 3),
            "speedup_vs_sequential": round(speedup, 3),
            "p50_ms": round(percentile(conc_latencies, 0.50) * 1e3, 3),
            "p99_ms": round(percentile(conc_latencies, 0.99) * 1e3, 3),
            "seq_p50_ms": round(percentile(seq_latencies, 0.50) * 1e3, 3),
            "seq_p99_ms": round(percentile(seq_latencies, 0.99) * 1e3, 3),
            "batches": float(batches),
            "coalesced_batches": float(coalesced_batches),
            "coalesced_jobs": float(coalesced_jobs),
            "coalesce_rate": round(coalesce_rate, 4),
            "batch_size_mean": round(batched / batches, 3) if batches else 0.0,
            "rejected": float(stats_after.get("rejected", 0)),
            "peak_queue_depth": float(stats_after.get("peak_depth", 0)),
            "store_hit_rate": round(store_hit_rate, 4),
            "byte_identical": 0.0 if mismatches else 1.0,
        }
        if marks is not None:
            metrics["chaos_marked_points"] = float(sum(marks))

        print(f"sequential: {seq_rps:.1f} req/s "
              f"(p50 {metrics['seq_p50_ms']:.1f} ms, "
              f"p99 {metrics['seq_p99_ms']:.1f} ms)")
        print(f"concurrent: {conc_rps:.1f} req/s over {total_requests} "
              f"request(s) (p50 {metrics['p50_ms']:.1f} ms, "
              f"p99 {metrics['p99_ms']:.1f} ms) -> "
              f"{speedup:.2f}x sequential")
        print(f"coalescing: {batches} batch(es), "
              f"{coalesced_batches} coalesced, "
              f"mean size {metrics['batch_size_mean']:.2f}, "
              f"{coalesced_jobs} duplicate job(s) deduped "
              f"({coalesce_rate:.1%} of batched requests)")
        print(f"store: hit rate {store_hit_rate:.1%} over "
              f"{lookups} lookup(s); shards: "
              + (", ".join(
                  f"{shard}={bucket.get('hits', 0)}h/{bucket.get('entries', 0)}e"
                  for shard, bucket in sorted(shard_hits.items())
              ) or "n/a"))

        rc = server.stop(control)
        if rc != 0:
            failures.append(f"server exited with status {rc}")
    except BaseException:
        server.proc.kill()
        raise
    finally:
        if store_tmp is not None:
            store_tmp.cleanup()

    exit_status = 1 if failures else 0
    config = {
        "clients": args.clients,
        "requests_per_client": len(requests),
        "workloads": list(args.workloads),
        "frames": args.frames,
        "thresholds": list(args.thresholds),
        "scale": args.scale,
        "jobs": args.jobs,
        "backend": backend,
        "store_prefix": args.store_prefix,
        "max_batch": args.max_batch,
        "chaos_worker_kill": args.chaos_worker_kill,
        "quick": args.quick,
    }
    payload = {
        "schema": SCHEMA,
        "config": config,
        "metrics": metrics,
        "shards": shard_hits,
        "failures": failures,
        "calibration_ms": calibration_ms,
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

    if not args.no_ledger:
        record = build_record(
            "serve",
            command="service_bench " + " ".join(argv or sys.argv[1:]),
            config=config,
            duration_s=time.perf_counter() - started,
            exit_status=exit_status,
            metrics=metrics,
            calibration_ms=calibration_ms,
        )
        path = append_record(record, args.ledger)
        print(f"ledger: serve record appended to {path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return exit_status


if __name__ == "__main__":
    raise SystemExit(main())
