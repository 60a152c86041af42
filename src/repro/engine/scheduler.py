"""Executing a planned job graph: serial and process backends.

The :class:`Engine` is the execution strategy of an
:class:`~repro.experiments.runner.ExperimentContext`; the context owns
the state (caches, failure records, checkpoint), the engine decides
*how* pending jobs turn into completed design points:

* **serial** (``jobs=1``) — each job runs in-process through exactly
  the code paths the lazy accessors use, so serial engine runs are
  byte-identical to the pre-engine imperative loops;
* **process** (``jobs>1``) — a persistent ``concurrent.futures``
  ProcessPoolExecutor, created once per (spec, jobs) in a shared
  module-level registry and reused across ``execute()`` calls *and
  contexts*, forked where the platform allows so workers
  inherit the parent's warm state (the scenes the parent has built,
  imported numpy) instead of rebuilding it per process. Jobs travel
  in chunks (one IPC round-trip per chunk, not per job) through
  :func:`~repro.engine.worker.run_job_chunk`. Captures are rendered in
  a first wave (one job per distinct frame, so N eval jobs on a frame
  don't race N renders of it), then evaluations stream through the
  pool. **Results are merged in planned-job order, not completion
  order**, which makes ``--jobs N`` output deterministic and equal to
  serial output. Synthetic capture jobs the wave planner adds on
  behalf of eval jobs are bookkeeping-only: they never count toward
  ``executed``, so ``executed <= planned`` holds on every backend.

Failures never abort a run and never raise here: a failed job is
parked in the context's negative cache as a
:class:`~repro.errors.JobError` and replayed when aggregation touches
that design point, inside the module's normal isolation scope — so
failure *reporting* (FailureRecord footers, their ordering) is also
identical between backends and between engine and pre-engine code.

That guarantee extends to *process-level* failures: chunk dispatch
runs through :class:`~repro.engine.supervision.ChunkSupervisor`, so a
crashed or hung worker costs a pool rebuild (see :func:`discard_pool`)
and, at worst, the quarantine of the one poison job — never the run.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import multiprocessing
from dataclasses import dataclass

from ..errors import JobError
from ..obs import TELEMETRY
from ..resilience.faults import FAULTS
from .jobs import KIND_CAPTURE, EvalJob, capture_job, dedupe_jobs
from .supervision import ChunkSupervisor
from .worker import WorkerSpec, init_worker, resolve_workload, run_job_chunk

#: Target chunks per worker per wave. One big chunk per worker
#: minimizes IPC round-trips, which measurably beats finer-grained
#: work stealing here: jobs within a wave are homogeneous (same sweep,
#: same frame sizes), so imbalance from coarse chunks is small, while
#: each extra round-trip costs a fixed dispatch + unpickle fee.
_CHUNKS_PER_WORKER = 1

#: Shared worker-pool registry, LRU-ordered (most recent last). Pools
#: are keyed by (WorkerSpec, jobs) and deliberately outlive the Engine
#: that created them: forking and warming workers costs hundreds of
#: milliseconds, and a fresh ExperimentContext over the same store is
#: exactly the case where the old pool's warm caches (sessions, loaded
#: captures) are still valid. The bound keeps at most a couple of
#: worker fleets alive; evicted pools are shut down without waiting.
_MAX_POOLS = 2
_POOLS: "list[tuple[tuple, concurrent.futures.ProcessPoolExecutor]]" = []


def _shared_pool(
    spec: WorkerSpec, jobs: int
) -> concurrent.futures.ProcessPoolExecutor:
    key = (spec, jobs)
    for i, (pool_key, executor) in enumerate(_POOLS):
        if pool_key == key:
            if i != len(_POOLS) - 1:
                _POOLS.append(_POOLS.pop(i))
            return executor
    # Fork where available: workers inherit the imported modules and
    # whatever scenes the parent has built so far copy-on-write.
    # ``execute()`` builds the scenes its jobs name before it first
    # uses a pool, so only a pool reused by a later ``execute()`` for
    # other games has each worker build those scenes itself.
    methods = multiprocessing.get_all_start_methods()
    mp_context = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    executor = concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=mp_context,
        initializer=init_worker,
        initargs=(spec,),
    )
    _POOLS.append((key, executor))
    while len(_POOLS) > _MAX_POOLS:
        _, evicted = _POOLS.pop(0)
        evicted.shutdown(wait=False, cancel_futures=True)
    return executor


def shutdown_pools() -> None:
    """Tear down every shared worker pool (idempotent).

    Registered atexit; call it directly to reclaim worker processes
    early (e.g. between benchmark legs with different worker counts).
    """
    while _POOLS:
        _, executor = _POOLS.pop()
        executor.shutdown(wait=True, cancel_futures=True)


def discard_pool(spec: WorkerSpec, jobs: int) -> bool:
    """Evict and kill the registered pool for ``(spec, jobs)``.

    The supervision path for broken or hung pools: the entry leaves the
    shared registry first (so a concurrent ``_shared_pool`` lookup can
    never hand out the dying executor), then the worker processes are
    killed outright — a hung worker sleeping in a syscall won't honor a
    cooperative shutdown, and SIGKILL is the only wake-up it can't
    ignore. Returns True when a pool was actually evicted.
    """
    key = (spec, jobs)
    for i, (pool_key, executor) in enumerate(_POOLS):
        if pool_key == key:
            _POOLS.pop(i)
            _terminate_pool(executor)
            return True
    return False


def _terminate_pool(executor) -> None:
    """Kill a pool's worker processes and release the executor."""
    try:
        for proc in list((getattr(executor, "_processes", None) or {}).values()):
            try:
                proc.kill()
            except (OSError, AttributeError):
                pass
    except Exception:  # noqa: BLE001 — teardown must not raise
        pass
    executor.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


@dataclass
class ExecutionReport:
    """What one :meth:`Engine.execute` call actually did."""

    planned: int = 0
    executed: int = 0
    skipped: int = 0  # already satisfied by a cache or checkpoint
    failed: int = 0

    def __str__(self) -> str:
        return (
            f"{self.planned} job(s) planned: {self.executed} executed, "
            f"{self.skipped} cached, {self.failed} failed"
        )


class Engine:
    """Runs deduplicated job graphs for one experiment context."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.report = ExecutionReport()

    def close(self) -> None:
        """Release this engine's execution resources (idempotent).

        Worker pools are shared across engines (see :data:`_POOLS`)
        and intentionally survive a context's close so the next
        context over the same store reuses warm workers; call
        :func:`shutdown_pools` to reclaim the processes themselves.
        """

    # -- entry point ----------------------------------------------------

    def execute(self, jobs: "list[EvalJob]") -> ExecutionReport:
        ctx = self.ctx
        jobs = dedupe_jobs(jobs)
        pending = [job for job in jobs if not ctx.job_satisfied(job)]
        report = ExecutionReport(
            planned=len(jobs), skipped=len(jobs) - len(pending)
        )
        if pending:
            with TELEMETRY.span(
                "engine.execute", jobs=len(pending), backend=self.backend_name
            ):
                if ctx.jobs > 1:
                    self._execute_process(pending, report)
                else:
                    self._execute_serial(pending, report)
        self.report.planned += report.planned
        self.report.executed += report.executed
        self.report.skipped += report.skipped
        self.report.failed += report.failed
        TELEMETRY.progress(f"engine: {report}")
        return report

    @property
    def backend_name(self) -> str:
        return "process" if self.ctx.jobs > 1 else "serial"

    # -- serial backend -------------------------------------------------

    def _execute_serial(self, pending, report: ExecutionReport) -> None:
        ctx = self.ctx
        for job in pending:
            try:
                if job.kind == KIND_CAPTURE:
                    ctx.capture(
                        job.workload, job.frame,
                        variant=job.config_key.variant(),
                    )
                else:
                    ctx.frame_metrics(
                        job.workload, job.frame, job.scenario, job.threshold,
                        config=job.config_key,
                    )
                report.executed += 1
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # noqa: BLE001 — parked for aggregation
                self._park_failure(job, type(exc).__name__, str(exc), report)

    # -- process backend ------------------------------------------------

    def _pool(self, spec: WorkerSpec):
        """The persistent worker pool for ``spec`` (created on demand).

        Pools live in the module-level shared registry, so they outlive
        not just one ``execute()`` call but the engine itself — worker
        warm state (cached sessions, loaded captures) carries over to
        later contexts with an identical spec and worker count.
        """
        return _shared_pool(spec, self.ctx.jobs)

    def _rebuild_pool(self, spec: WorkerSpec) -> None:
        """Kill and evict the current pool; the next use re-forks it.

        Called by the supervisor when the pool broke or a chunk blew
        its deadline. Counted as one ``resilience.pool_rebuilds`` plus
        ``jobs`` ``resilience.worker_restarts`` — the whole fleet goes
        down with the pool.
        """
        if discard_pool(spec, self.ctx.jobs):
            TELEMETRY.count("resilience.pool_rebuilds")
            TELEMETRY.count("resilience.worker_restarts", self.ctx.jobs)
            TELEMETRY.progress(
                f"engine: worker pool torn down; {self.ctx.jobs} "
                "worker(s) will restart on next dispatch"
            )

    def _execute_process(self, pending, report: ExecutionReport) -> None:
        ctx = self.ctx
        store = ctx.ensure_store()
        spec = WorkerSpec(
            base_config=ctx.base_config,
            scale=ctx.scale,
            store_root=str(store.root),
            telemetry_enabled=TELEMETRY.enabled,
            fault_plan=FAULTS.plan if FAULTS.enabled else None,
            raster=ctx.raster,
            raster_tile=ctx.raster_tile,
            store_prefix=getattr(store, "prefix", 0),
        )
        # Wave 1: planned capture jobs, plus one *synthetic* render per
        # distinct (workload, frame, variant) the eval jobs need and the
        # store doesn't have yet. Without it, every eval job of a
        # threshold sweep would race to render the same frame in its
        # own worker. Synthetic jobs are bookkeeping-only — they merge
        # telemetry and store stats but never count toward ``executed``
        # (a failed synthetic render resurfaces as the dependent eval
        # job's own failure), preserving ``executed <= planned``.
        planned_captures = [job for job in pending if job.kind == KIND_CAPTURE]
        evals = [job for job in pending if job.kind != KIND_CAPTURE]
        seen_specs: "set[str]" = set()
        captures_stored = True
        for job in planned_captures:
            wl, frame, variant = job.capture_key()
            path = store.path_for(ctx.capture_spec(wl, frame, variant))
            captures_stored = captures_stored and path.exists()
            seen_specs.add(path.name)
        synthetic: "list[EvalJob]" = []
        for job in evals:
            wl, frame, variant = job.capture_key()
            cspec = ctx.capture_spec(wl, frame, variant)
            name = store.path_for(cspec).name
            if name in seen_specs:
                continue
            seen_specs.add(name)
            if not store.path_for(cspec).exists() and not ctx.has_capture(
                wl, frame, variant
            ):
                synthetic.append(capture_job(wl, frame, job.config_key))

        # Warm the fork template before the first pool use: resolving
        # each distinct workload in the parent builds its scene once,
        # and every worker forked from here on inherits it instead of
        # building it itself.
        for name in dict.fromkeys(job.workload for job in pending):
            try:
                resolve_workload(name)
            except Exception:  # noqa: BLE001 — the job itself reports it
                pass

        wave1 = [(job, True) for job in planned_captures]
        wave1 += [(job, False) for job in synthetic]
        wave2 = [(job, True) for job in evals]
        # The wave barrier only exists so eval jobs never race renders
        # of their own captures; when every capture is already in the
        # store (a resumed or repeated run) there is nothing to race
        # and the barrier is pure latency — fuse into a single wave.
        if not synthetic and captures_stored:
            wave1, wave2 = wave1 + wave2, []
        supervisor = ChunkSupervisor(
            pool=lambda: self._pool(spec),
            rebuild_pool=lambda: self._rebuild_pool(spec),
            run_chunk=run_job_chunk,
            job_timeout=getattr(ctx, "job_timeout", None),
        )
        for wave in (wave1, wave2):
            if not wave:
                continue
            # Chunks become slot-index lists into the wave; since
            # _affine_chunks partitions the wave in planned order, a
            # running cursor recovers each chunk's slots.
            slot_chunks: "list[list[int]]" = []
            cursor = 0
            for chunk in self._affine_chunks(wave):
                slot_chunks.append(list(range(cursor, cursor + len(chunk))))
                cursor += len(chunk)
            outcomes = supervisor.run(
                [job for job, _ in wave], slot_chunks
            )
            # Merging in slot order *is* planned order — the
            # determinism guarantee, regardless of completion order or
            # how many retries a chunk needed.
            for slot, (job, counted) in enumerate(wave):
                self._merge(job, outcomes[slot], report, counted=counted)
        # Parked captures rendered by the capture wave satisfy the
        # original capture-kind jobs; aggregation loads them lazily
        # from the store.
        worker_lines = TELEMETRY.format_worker_summary()
        if worker_lines:
            for line in worker_lines.splitlines():
                TELEMETRY.progress(f"pool: {line}")

    def _affine_chunks(self, wave: "list[tuple]") -> "list[list[tuple]]":
        """Split a wave into dispatch chunks with capture affinity.

        Every distinct capture a chunk touches costs its worker one
        store load, so chunk boundaries follow runs of jobs sharing a
        capture: small runs coalesce up to the target chunk size, large
        runs become whole chunks (keeping one worker on one capture)
        and are split only when there are fewer runs than workers —
        balance then beats locality. Planned order is preserved within
        and across chunks.
        """
        jobs = self.ctx.jobs
        target = max(1, -(-len(wave) // (jobs * _CHUNKS_PER_WORKER)))
        runs: "list[list[tuple]]" = []
        last_key = object()
        for entry in wave:
            key = entry[0].capture_key()
            if runs and key == last_key:
                runs[-1].append(entry)
            else:
                runs.append([entry])
                last_key = key
        chunks: "list[list[tuple]]" = []
        current: "list[tuple]" = []
        for run in runs:
            if current and len(current) + len(run) > target:
                chunks.append(current)
                current = []
            if len(run) >= target:
                chunks.append(run)
            else:
                current.extend(run)
        if current:
            chunks.append(current)
        if len(chunks) < jobs:
            parts = -(-jobs // len(chunks))
            split: "list[list[tuple]]" = []
            for chunk in chunks:
                size = max(1, -(-len(chunk) // parts))
                split.extend(
                    chunk[i:i + size] for i in range(0, len(chunk), size)
                )
            chunks = split
        return chunks

    def _merge(
        self,
        job: EvalJob,
        outcome: tuple,
        report: ExecutionReport,
        *,
        counted: bool = True,
    ) -> None:
        ctx = self.ctx
        status, payload = outcome[0], outcome[1]
        TELEMETRY.merge_remote(outcome[-3])
        FAULTS.merge_injected(outcome[-2])
        store = ctx.capture_store
        if store is not None:
            delta = outcome[-1]
            hits, misses, writes, corrupt = delta[:4]
            store.stats.hits += hits
            store.stats.misses += misses
            store.stats.writes += writes
            store.stats.corrupt += corrupt
            shards = delta[4] if len(delta) > 4 else None
            merge_traffic = getattr(store, "merge_traffic", None)
            if shards and merge_traffic is not None:
                merge_traffic(shards)
        if status == "ok":
            if counted:
                report.executed += 1
            if job.kind != KIND_CAPTURE and payload is not None:
                TELEMETRY.count("experiment.evaluations")
                ctx.store_metrics(job.metrics_key(), payload)
        elif counted:
            _status, etype, message = outcome[0], outcome[1], outcome[2]
            self._park_failure(job, etype, message, report)

    # -- shared ---------------------------------------------------------

    def _park_failure(
        self, job: EvalJob, etype: str, message: str, report: ExecutionReport
    ) -> None:
        report.failed += 1
        TELEMETRY.count("engine.job_failures")
        self.ctx.park_failure(job, JobError(etype, message))
