"""``repro serve``: the asyncio render-as-a-service front-end.

Architecture (see ``docs/architecture.md``)::

    clients ──JSON lines──▶ asyncio front-end ──▶ admission gate
                                                     │
                                         batcher (drain the queue)
                                                     │
                                    engine thread: ctx.execute(batch)
                                       │                    │
                              serial or fork pool     sharded capture
                              (ChunkSupervisor)           store

The front-end accepts any number of concurrent connections and speaks
the JSON-lines protocol of :mod:`repro.service.protocol`. Each
admitted eval/render request lands in one queue; the **batcher** pulls
whatever is queued the moment the engine goes idle and executes the
whole batch as *one* planned job list. That is where coalescing
happens — the engine's :func:`~repro.engine.jobs.dedupe_jobs` plans
each distinct :class:`~repro.engine.jobs.EvalJob` once no matter how
many clients asked for it, capture-affine chunking groups jobs that
share frames, and previously evaluated design points are served from
the context's caches without planning at all. Responses are built
per-request from the context's metric cache, so two requests for the
same design point get byte-identical payloads and a batched run stays
byte-identical to sequential execution.

The engine runs on a dedicated single thread: the asyncio loop stays
responsive (pings, stats, new connections) while a batch renders, and
engine state needs no locking because exactly one thread touches it.
That includes ``TELEMETRY``, whose registry is single-threaded
(:mod:`repro.obs.telemetry`): the front-end never writes to it, and
admission rejections are tallied under the controller's lock and
folded in by the engine thread before each batch and at shutdown.

Admission control bounds the number of requests queued + executing;
beyond ``max_pending`` the service rejects with a typed 429-style
response immediately (:mod:`repro.resilience.admission`). The
backend follows ``jobs``: serial in-process at 1, the supervised fork
pool above it.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import sys
import time
from dataclasses import dataclass

from ..engine.capture_store import make_store, spec_digest
from ..engine.jobs import KIND_CAPTURE, dedupe_jobs
from ..errors import AdmissionError, ProtocolError, ReproError
from ..experiments.runner import ExperimentContext
from ..obs import TELEMETRY
from ..renderer.pipeline import DEFAULT_RASTER, DEFAULT_RASTER_TILE
from ..resilience.admission import DEFAULT_MAX_PENDING, AdmissionController
from ..workloads import GAME_WORKLOADS
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    Request,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)

#: Largest number of requests one batch may coalesce.
DEFAULT_MAX_BATCH = 64


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs, as one value."""

    host: str = "127.0.0.1"
    port: int = 0
    scale: float = 0.25
    jobs: int = 1
    store_root: "str | None" = None
    store_prefix: int = 1
    store_max_bytes: "int | None" = None
    max_pending: int = DEFAULT_MAX_PENDING
    max_batch: int = DEFAULT_MAX_BATCH
    #: Extra seconds the batcher waits for stragglers after the first
    #: queued request. 0 (default) = drain-only batching: requests
    #: that arrive while the engine is busy form the next batch, and a
    #: lone sequential client is never delayed.
    batch_window_s: float = 0.0
    job_timeout: "float | None" = None
    raster: str = DEFAULT_RASTER
    raster_tile: int = DEFAULT_RASTER_TILE


@dataclass
class ServiceCounters:
    requests: int = 0
    responses: int = 0
    errors: int = 0
    rejected: int = 0
    batches: int = 0
    coalesced_batches: int = 0
    coalesced_jobs: int = 0
    batched_requests: int = 0
    cache_hit_jobs: int = 0

    def snapshot(self) -> "dict[str, int]":
        return dict(vars(self))


class RenderService:
    """One live render service: front-end + batcher + engine backend."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        store = None
        if config.store_root:
            store = make_store(
                config.store_root,
                prefix=config.store_prefix,
                max_bytes=config.store_max_bytes,
            )
        self.store = store
        self.ctx = ExperimentContext(
            scale=config.scale,
            frames=1,
            jobs=config.jobs,
            capture_cache=store,
            job_timeout=config.job_timeout,
            raster=config.raster,
            raster_tile=config.raster_tile,
        )
        # Build every Table II scene before ``listening on``: a server is
        # long-lived, and a lazy build would land inside the first render
        # request for each game. Without this, the perfbench ``serve``
        # workload on a 2-vCPU host read op_s_tail 0.44 s instead of
        # 0.38 s and ops_per_s 16.0 instead of 18.3 (medians of four
        # alternating runs each).
        list(GAME_WORKLOADS.values())
        self.admission = AdmissionController(config.max_pending)
        self.counters = ServiceCounters()
        self.started = time.monotonic()
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._stopping = asyncio.Event()
        self._server: "asyncio.base_events.Server | None" = None
        self._batcher: "asyncio.Task | None" = None
        #: The engine thread: every batch and the final teardown run
        #: here, one at a time.
        self._engine: "concurrent.futures.ThreadPoolExecutor | None" = (
            concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-engine"
            )
        )

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> "tuple[str, int]":
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self._batcher = asyncio.create_task(self._batch_loop())

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request (or cancellation).

        Teardown runs on cancellation too (``asyncio.run`` cancels this
        task on SIGINT), so the last rejections still fold into
        ``TELEMETRY`` before the caller writes its ledger record.
        """
        assert self._server is not None
        try:
            async with self._server:
                await self._server.start_serving()
                host, port = self.address
                print(f"serve: listening on {host}:{port}",
                      file=sys.stderr, flush=True)
                await self._stopping.wait()
        finally:
            await self.aclose()

    async def aclose(self) -> None:
        self._stopping.set()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        # Run blocking teardown off-loop, after any batch still on the
        # engine thread; it joins worker processes.
        engine, self._engine = self._engine, None
        if engine is not None:
            await asyncio.get_running_loop().run_in_executor(
                engine, self._close_backend
            )
            engine.shutdown(wait=True)

    def _close_backend(self) -> None:
        from ..engine.scheduler import shutdown_pools

        self.admission.fold_rejections()
        self.ctx.close()
        shutdown_pools()

    # -- front-end -------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(writer, error_response(
                        None, ProtocolError(
                            f"request line over {MAX_LINE_BYTES} bytes"
                        )
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self.counters.requests += 1
                await self._handle_line(line, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_line(self, line: bytes, writer) -> None:
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.counters.errors += 1
            await self._write(writer, error_response(None, exc))
            return
        if request.op == "ping":
            await self._write(writer, ok_response(
                request.id, pong=PROTOCOL_VERSION
            ))
            return
        if request.op == "stats":
            await self._write(writer, ok_response(
                request.id, stats=self.stats()
            ))
            return
        if request.op == "shutdown":
            await self._write(writer, ok_response(request.id, stopping=True))
            self._stopping.set()
            return
        # eval / render: pass the admission gate, then ride a batch.
        try:
            self.admission.acquire()
        except AdmissionError as exc:
            self.counters.rejected += 1
            await self._write(writer, error_response(request.id, exc))
            return
        future = asyncio.get_running_loop().create_future()
        try:
            await self._queue.put((request, future))
            payload = await future
        finally:
            self.admission.release()
        if payload.get("ok"):
            self.counters.responses += 1
        else:
            self.counters.errors += 1
        await self._write(writer, payload)

    @staticmethod
    async def _write(writer, payload: "dict[str, object]") -> None:
        writer.write(encode_response(payload))
        await writer.drain()

    # -- batcher ---------------------------------------------------------

    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            if self.config.batch_window_s > 0:
                await asyncio.sleep(self.config.batch_window_s)
            while len(batch) < self.config.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            requests = [request for request, _ in batch]
            try:
                payloads = await loop.run_in_executor(
                    self._engine, self._execute_batch, requests
                )
            except Exception as exc:  # noqa: BLE001 — server must stay up
                payloads = [error_response(r.id, exc) for r in requests]
            for (_request, future), payload in zip(batch, payloads):
                if not future.done():
                    future.set_result(payload)

    def _execute_batch(
        self, requests: "list[Request]"
    ) -> "list[dict[str, object]]":
        """Plan + execute one coalesced batch on the engine thread."""
        self.admission.fold_rejections()
        jobs = [request.job for request in requests]
        unique = dedupe_jobs(jobs)
        self.counters.batches += 1
        self.counters.batched_requests += len(requests)
        duplicates = len(jobs) - len(unique)
        if len(requests) > 1:
            self.counters.coalesced_batches += 1
        if duplicates:
            self.counters.coalesced_jobs += duplicates
            TELEMETRY.count("serve.coalesced_jobs", duplicates)
        report = self.ctx.execute(jobs)
        self.counters.cache_hit_jobs += report.skipped
        return [self._response_for(request) for request in requests]

    def _response_for(self, request: Request) -> "dict[str, object]":
        job = request.job
        try:
            if job.kind == KIND_CAPTURE:
                workload, frame, variant = job.capture_key()
                spec = self.ctx.capture_spec(workload, frame, variant)
                if self.store is None and not self.ctx.has_capture(
                    workload, frame, variant
                ):
                    # Serial backend renders lazily on touch; the
                    # process backend always publishes to the store.
                    self.ctx.capture(workload, frame, variant=variant)
                return ok_response(request.id, capture={
                    "digest": spec_digest(spec),
                    "workload": workload,
                    "frame": frame,
                })
            metrics = self.ctx.frame_metrics(
                job.workload, job.frame, job.scenario, job.threshold,
                config=job.config_key,
            )
            return ok_response(request.id, metrics=metrics)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # noqa: BLE001 — per-request isolation
            return error_response(request.id, exc)

    # -- observability ---------------------------------------------------

    def stats(self) -> "dict[str, object]":
        payload: "dict[str, object]" = {
            "protocol": PROTOCOL_VERSION,
            "backend": self.ctx.engine.backend_name,
            "jobs": self.config.jobs,
            "uptime_s": round(time.monotonic() - self.started, 3),
            "queue_depth": self.admission.depth,
            "peak_depth": self.admission.peak_depth,
            "max_pending": self.admission.max_pending,
            **self.counters.snapshot(),
        }
        if self.store is not None:
            stats = self.store.stats
            payload["store"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "writes": stats.writes,
                "corrupt": stats.corrupt,
                "evictions": stats.evictions,
                "readthrough": stats.readthrough,
            }
            shard_stats = getattr(self.store, "shard_stats", None)
            if shard_stats is not None:
                payload["shards"] = shard_stats()
        return payload


async def _run_service(config: ServeConfig) -> int:
    service = RenderService(config)
    await service.start()
    await service.serve_until_shutdown()
    print("serve: shut down cleanly", file=sys.stderr)
    return 0


def run_server(config: ServeConfig) -> int:
    """Run the service until shutdown; the ``repro serve`` entry point."""
    try:
        return asyncio.run(_run_service(config))
    except KeyboardInterrupt:
        print("serve: interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"serve: error: {exc}", file=sys.stderr)
        return 1
