"""Tests for the render service: batching, dedup, admission, errors.

These run the real :class:`~repro.service.server.RenderService` on the
serial backend at a tiny scale — the asyncio front-end, the batcher
and the response paths are all exercised in-process, without worker
pools or subprocesses.
"""

import asyncio
import json
import threading

from repro.obs import TELEMETRY
from repro.service.protocol import encode_response, parse_request
from repro.service.server import RenderService, ServeConfig

WORKLOAD = "wolf-640x480"
SCALE = 0.07


def _eval_line(request_id: str, threshold: float) -> str:
    return json.dumps({
        "id": request_id, "op": "eval", "workload": WORKLOAD,
        "frame": 0, "scenario": "patu", "threshold": threshold,
    })


async def _start_service(tmp_path, **overrides) -> RenderService:
    config = ServeConfig(
        scale=SCALE, jobs=1, store_root=str(tmp_path / "store"),
        **overrides,
    )
    service = RenderService(config)
    await service.start()
    return service


async def _request(reader, writer, payload: dict) -> "tuple[dict, bytes]":
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    raw = await reader.readline()
    return json.loads(raw), raw


class TestConcurrentDedup:
    def test_overlapping_lists_plan_shared_jobs_once(self, tmp_path):
        """Satellite invariant: two overlapping job lists submitted
        concurrently coalesce into a plan where every shared EvalJob
        appears exactly once, and every response is byte-identical to
        serial single-request execution."""
        list_a = [_eval_line(f"a{i}", t)
                  for i, t in enumerate([0.3, 0.4, 0.5])]
        list_b = [_eval_line(f"b{i}", t)
                  for i, t in enumerate([0.4, 0.5, 0.6])]
        requests = [parse_request(line) for line in list_a + list_b]
        unique = {r.job for r in requests}

        async def scenario():
            service = RenderService(ServeConfig(
                scale=SCALE, jobs=1,
                store_root=str(tmp_path / "store"),
            ))
            loop = asyncio.get_running_loop()
            # Enqueue both lists *before* the batcher starts: the whole
            # submission drains into one batch, deterministically.
            futures = [loop.create_future() for _ in requests]
            for request, future in zip(requests, futures):
                service._queue.put_nowait((request, future))
            await service.start()
            try:
                return await asyncio.gather(*futures)
            finally:
                await service.aclose()

        payloads = asyncio.run(scenario())

        # exactly one coalesced batch; each shared job planned once
        service_report_jobs = len(unique)
        # (report lives on the context the service executed on; assert
        # through the counters the batch recorded)
        assert len(payloads) == len(requests)
        assert all(p["ok"] for p in payloads)

        # serial single-request reference: a fresh service, one request
        # per batch, same ids -> responses must be byte-identical
        reference = RenderService(ServeConfig(
            scale=SCALE, jobs=1, store_root=str(tmp_path / "ref-store"),
        ))
        try:
            for request, payload in zip(requests, payloads):
                [ref_payload] = reference._execute_batch([request])
                assert encode_response(ref_payload) == \
                    encode_response(payload)
        finally:
            reference.ctx.close()
        assert service_report_jobs == 4  # 0.3 0.4 0.5 0.6

    def test_batch_counters_record_coalescing(self, tmp_path):
        list_a = [_eval_line(f"a{i}", t) for i, t in enumerate([0.3, 0.4])]
        list_b = [_eval_line(f"b{i}", t) for i, t in enumerate([0.4, 0.3])]
        requests = [parse_request(line) for line in list_a + list_b]

        async def scenario():
            service = RenderService(ServeConfig(
                scale=SCALE, jobs=1, store_root=str(tmp_path / "store"),
            ))
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in requests]
            for request, future in zip(requests, futures):
                service._queue.put_nowait((request, future))
            await service.start()
            try:
                await asyncio.gather(*futures)
                report = service.ctx.engine.report
                return service.counters.snapshot(), report
            finally:
                await service.aclose()

        counters, report = asyncio.run(scenario())
        assert counters["batches"] == 1
        assert counters["coalesced_batches"] == 1
        assert counters["batched_requests"] == 4
        assert counters["coalesced_jobs"] == 2  # both duplicates deduped
        assert report.planned == 2  # the two unique design points
        assert report.executed == 2 and report.failed == 0

    def test_concurrent_socket_clients_get_identical_bytes(self, tmp_path):
        """The same overlap driven through real connections: responses
        for the same design point are byte-identical across clients."""

        async def scenario():
            service = await _start_service(tmp_path)
            host, port = service.address
            try:
                async def run_client(prefix: str, thresholds):
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                    try:
                        out = {}
                        for i, threshold in enumerate(thresholds):
                            payload, raw = await _request(
                                reader, writer, json.loads(
                                    _eval_line(f"{prefix}{i}", threshold)
                                ),
                            )
                            assert payload["ok"], payload
                            out[threshold] = raw
                        return out
                    finally:
                        writer.close()
                        await writer.wait_closed()

                results = await asyncio.gather(
                    run_client("a", [0.3, 0.4, 0.5]),
                    run_client("b", [0.5, 0.4, 0.3]),
                )
                return results
            finally:
                await service.aclose()

        by_a, by_b = asyncio.run(scenario())

        def canonical(raw: bytes) -> bytes:
            payload = json.loads(raw)
            payload.pop("id")
            return encode_response(payload)

        for threshold in (0.3, 0.4, 0.5):
            assert canonical(by_a[threshold]) == canonical(by_b[threshold])


class TestFrontEnd:
    def test_ping_stats_render_and_errors(self, tmp_path):
        async def scenario():
            service = await _start_service(tmp_path)
            host, port = service.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                pong, _ = await _request(
                    reader, writer, {"id": "p", "op": "ping"},
                )
                assert pong["ok"] and pong["pong"] == 1

                # malformed line -> 400, connection survives
                writer.write(b"this is not json\n")
                await writer.drain()
                bad = json.loads(await reader.readline())
                assert bad["ok"] is False and bad["status"] == 400

                # unknown workload -> typed client error
                missing, _ = await _request(reader, writer, {
                    "id": "m", "op": "eval", "workload": "no-such-game",
                })
                assert missing["ok"] is False
                assert missing["status"] == 404
                assert missing["error"]["type"] == "WorkloadError"

                # render publishes into the sharded store
                rendered, _ = await _request(reader, writer, {
                    "id": "r", "op": "render", "workload": WORKLOAD,
                })
                assert rendered["ok"]
                assert len(rendered["capture"]["digest"]) == 16

                stats, _ = await _request(
                    reader, writer, {"id": "s", "op": "stats"},
                )
                payload = stats["stats"]
                assert payload["backend"] == "serial"
                assert payload["requests"] >= 4
                assert payload["store"]["writes"] >= 1
                assert "shards" in payload
            finally:
                writer.close()
                await writer.wait_closed()
                await service.aclose()

        asyncio.run(scenario())

    def test_admission_overflow_rejects_with_429(self, tmp_path):
        async def scenario():
            service = await _start_service(tmp_path, max_pending=1)
            host, port = service.address
            service.admission.acquire()  # the only slot is taken
            reader, writer = await asyncio.open_connection(host, port)
            try:
                rejected, _ = await _request(reader, writer, json.loads(
                    _eval_line("r", 0.4)
                ))
                assert rejected["ok"] is False
                assert rejected["status"] == 429
                assert rejected["retry_after_s"] > 0
                assert service.counters.rejected == 1

                service.admission.release()
                admitted, _ = await _request(reader, writer, json.loads(
                    _eval_line("r2", 0.4)
                ))
                assert admitted["ok"], admitted
            finally:
                writer.close()
                await writer.wait_closed()
                await service.aclose()

        asyncio.run(scenario())

    def test_shutdown_op_stops_the_server(self, tmp_path):
        async def scenario():
            service = await _start_service(tmp_path)
            host, port = service.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                done, _ = await _request(
                    reader, writer, {"id": "x", "op": "shutdown"},
                )
                assert done["ok"] and done["stopping"] is True
                assert service._stopping.is_set()
            finally:
                writer.close()
                await writer.wait_closed()
                await service.aclose()

        asyncio.run(scenario())


def _assert_well_formed(spans) -> None:
    """Every span nests inside one open span at the depth it recorded."""
    eps = 1e-3  # µs; start and duration are rounded separately
    stack: "list[float]" = []
    for span in sorted(spans, key=lambda s: (s.start_us, -s.dur_us)):
        while stack and stack[-1] <= span.start_us + eps:
            stack.pop()
        assert span.depth == len(stack), span
        end = span.start_us + span.dur_us
        if stack:
            assert end <= stack[-1] + eps, span
        stack.append(end)


class TestTelemetryThreading:
    def test_rejections_during_traced_batch_count_exactly(
        self, tmp_path, monkeypatch
    ):
        """Admission rejections happen on the asyncio thread while the
        engine thread is inside a traced batch that keeps writing the
        registry. Only the engine thread touches ``TELEMETRY``, so the
        rejection count is exact and the span tree stays well formed."""
        clients, per_client = 8, 25
        started, release = threading.Event(), threading.Event()
        writers: "set[str]" = set()

        def record_thread(method):
            def wrapper(*args, **kwargs):
                writers.add(threading.current_thread().name)
                return method(*args, **kwargs)
            return wrapper

        async def scenario():
            service = await _start_service(tmp_path, max_pending=1)
            for name in ("span", "count"):
                monkeypatch.setattr(
                    TELEMETRY, name, record_thread(getattr(TELEMETRY, name))
                )
            real_execute = service.ctx.execute

            def traced_execute(jobs):
                with TELEMETRY.span("stress.batch"):
                    started.set()
                    while not release.is_set():
                        with TELEMETRY.span("stress.tick"):
                            TELEMETRY.count("stress.ticks")
                            release.wait(0.001)
                    return real_execute(jobs)

            service.ctx.execute = traced_execute
            host, port = service.address
            loop = asyncio.get_running_loop()

            async def hammer(client: int) -> None:
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    for i in range(per_client):
                        payload, _ = await _request(reader, writer, json.loads(
                            _eval_line(f"x{client}-{i}", 0.4)
                        ))
                        assert payload["status"] == 429, payload
                finally:
                    writer.close()
                    await writer.wait_closed()

            reader, writer = await asyncio.open_connection(host, port)
            try:
                # The held request takes the only slot and its batch
                # blocks on the engine thread until every rejection
                # is in.
                writer.write((_eval_line("held", 0.4) + "\n").encode())
                await writer.drain()
                assert await loop.run_in_executor(None, started.wait, 60)
                await asyncio.gather(*(hammer(c) for c in range(clients)))
            finally:
                release.set()
            try:
                held = json.loads(await reader.readline())
                assert held["ok"], held
            finally:
                writer.close()
                await writer.wait_closed()
                await service.aclose()
            return service

        TELEMETRY.reset()
        TELEMETRY.enabled = True
        try:
            service = asyncio.run(scenario())
            assert writers == {"repro-engine_0"}
            expected = clients * per_client
            assert service.counters.rejected == expected
            assert service.admission.rejected == expected
            assert TELEMETRY.counter_value(
                "resilience.admission_rejections"
            ) == expected
            spans = TELEMETRY.spans
            names = {span.name: span.depth for span in spans}
            assert names["stress.batch"] == 0
            assert names["stress.tick"] == 1
            assert names["engine.execute"] == 1
            _assert_well_formed(spans)
        finally:
            TELEMETRY.enabled = False
            TELEMETRY.reset()

    def test_cancelled_serve_still_folds_rejections(self, tmp_path):
        """SIGINT cancels ``serve_until_shutdown`` (``asyncio.run``
        cancels its task); teardown still folds rejections that no
        batch followed into ``TELEMETRY``."""

        async def scenario():
            service = await _start_service(tmp_path, max_pending=1)
            serving = asyncio.create_task(service.serve_until_shutdown())
            host, port = service.address
            service.admission.acquire()  # the only slot is taken
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for i in range(3):
                    payload, _ = await _request(reader, writer, json.loads(
                        _eval_line(f"r{i}", 0.4)
                    ))
                    assert payload["status"] == 429, payload
            finally:
                writer.close()
                await writer.wait_closed()
            serving.cancel()
            try:
                await serving
            except asyncio.CancelledError:
                pass
            return service

        TELEMETRY.reset()
        TELEMETRY.enabled = True
        try:
            service = asyncio.run(scenario())
            assert service._engine is None  # teardown ran
            assert TELEMETRY.counter_value(
                "resilience.admission_rejections"
            ) == 3
        finally:
            TELEMETRY.enabled = False
            TELEMETRY.reset()
