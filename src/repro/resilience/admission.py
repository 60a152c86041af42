"""Admission control: bounded queue depth for the render service.

``repro serve`` accepts requests faster than the engine can evaluate
them; without a bound, a burst turns into an ever-growing queue and
every client's latency collapses together. The
:class:`AdmissionController` is the door: each request acquires a slot
before it may enqueue and releases it when its response is written.
When ``max_pending`` slots are taken, further requests fail
*immediately* with a typed
:class:`~repro.errors.AdmissionError` (HTTP-429 style, with a
``retry_after_s`` hint) — shedding load at the edge keeps the p99 of
admitted requests bounded, which is the service-level analogue of the
paper's quality-for-throughput trade.

Rejections are counted under ``resilience.admission_rejections``, so
they surface in ledger records through the standard resilience rollup.
:meth:`AdmissionController.acquire` runs on the service's asyncio
thread while the engine thread owns the single-threaded telemetry
registry, so ``acquire`` only bumps :attr:`~AdmissionController.rejected`
under its lock; the engine thread calls
:meth:`~AdmissionController.fold_rejections` to move the new count
into ``TELEMETRY``.
"""

from __future__ import annotations

import threading

from ..errors import AdmissionError
from ..obs import TELEMETRY

#: Default bound on concurrently admitted (queued + executing) requests.
DEFAULT_MAX_PENDING = 256


class AdmissionController:
    """A thread-safe counting gate over in-flight requests.

    ``acquire()`` either takes a slot or raises
    :class:`~repro.errors.AdmissionError`; it never blocks — back
    pressure is the client's job, the service only refuses. Use
    :meth:`admit` as a context manager around the whole request
    lifetime.
    """

    def __init__(
        self,
        max_pending: int = DEFAULT_MAX_PENDING,
        *,
        retry_after_s: float = 0.05,
    ) -> None:
        if max_pending < 1:
            raise AdmissionError(
                f"max_pending must be >= 1, got {max_pending}",
            )
        self.max_pending = int(max_pending)
        self.retry_after_s = float(retry_after_s)
        self._lock = threading.Lock()
        self._depth = 0
        #: High-water mark of concurrently admitted requests.
        self.peak_depth = 0
        #: Requests refused at the door since construction.
        self.rejected = 0
        self._folded = 0

    @property
    def depth(self) -> int:
        return self._depth

    def acquire(self) -> None:
        """Take one slot or raise :class:`AdmissionError` (never blocks)."""
        with self._lock:
            if self._depth >= self.max_pending:
                self.rejected += 1
                raise AdmissionError(
                    f"queue full ({self._depth}/{self.max_pending} "
                    "requests pending); retry later",
                    retry_after_s=self.retry_after_s,
                )
            self._depth += 1
            if self._depth > self.peak_depth:
                self.peak_depth = self._depth

    def fold_rejections(self) -> int:
        """Count rejections since the last fold into ``TELEMETRY``.

        Call it from the thread that owns the telemetry registry.
        Returns the number folded.
        """
        with self._lock:
            delta = self.rejected - self._folded
            self._folded = self.rejected
        if delta:
            TELEMETRY.count("resilience.admission_rejections", delta)
        return delta

    def release(self) -> None:
        with self._lock:
            if self._depth > 0:
                self._depth -= 1

    def admit(self) -> "_Admission":
        """``with controller.admit(): ...`` — acquire now, release on exit."""
        return _Admission(self)


class _Admission:
    def __init__(self, controller: AdmissionController) -> None:
        self._controller = controller

    def __enter__(self) -> AdmissionController:
        self._controller.acquire()
        return self._controller

    def __exit__(self, *exc_info) -> None:
        self._controller.release()
