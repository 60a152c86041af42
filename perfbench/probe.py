"""Fixed reference probe used to cancel host-speed drift.

The probe is a constant ~50 ms of work that resembles the program's
own mix, about a third each: numpy gathers, a sort and a lerp blend
into preallocated buffers (the shape of the raster / texture-filter
kernels); numpy work on a freshly allocated array, so page faults are
paid as the program's kernels and scene builds pay them; and a
pure-Python set-associative dict-LRU loop (the shape of the
memory-hierarchy simulator). It calls no ``repro`` code, so a change
to the program cannot change the probe. Without the fresh-allocation
third the probe tracked the host poorly for imports and evals, which
allocate heavily; with only allocation-free numpy work it tracked
``sweep`` ops worst.

A host-time measurement ``raw_s`` taken next to a probe that took
``ref_s`` is reported as ``raw_s * REF_NOMINAL_S / ref_s``: normalised
seconds, i.e. the time the work would have taken on a host where the
probe takes exactly ``REF_NOMINAL_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time of the reference host (2-vCPU VM, quiescent). Committed
#: with the benchmark; changing it rescales every normalised metric.
REF_NOMINAL_S = 0.05

#: Probes whose median stands for the host speed around one op.
ADJACENT_PROBES = 3

_TEXELS = 1 << 18
_FRAGMENTS = 1 << 16
_NUMPY_PASSES = 5
#: Above glibc's largest mmap threshold (32 MiB), so every probe maps
#: fresh pages whatever the allocator's history in this process.
_FRESH_ELEMENTS = 5_000_000
_LRU_ACCESSES = 35_000
_LRU_SETS = 64
_LRU_WAYS = 8


class ReferenceProbe:
    """The fixed probe workload; inputs and buffers are built once.

    The gather/sort third writes only into preallocated buffers, and
    the fresh-allocation third allocates one array too large to come
    from the heap: a probe whose megabyte temporaries came sometimes
    from reused heap and sometimes from fresh pages would time the
    allocator's state, which differs between processes, instead of the
    host's speed.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._texels = rng.random((_TEXELS, 4), dtype=np.float32)
        self._idx_a = rng.integers(0, _TEXELS, size=_FRAGMENTS)
        self._idx_b = rng.integers(0, _TEXELS, size=_FRAGMENTS)
        self._w = rng.random((_FRAGMENTS, 1), dtype=np.float32)
        self._w1 = (1.0 - self._w).astype(np.float32)
        self._keys = rng.integers(0, 1 << 30, size=_FRAGMENTS)
        self._a = np.empty((_FRAGMENTS, 4), dtype=np.float32)
        self._b = np.empty((_FRAGMENTS, 4), dtype=np.float32)
        self._sorted = np.empty(_FRAGMENTS, dtype=np.int64)
        self._lines = rng.integers(0, 4 * _LRU_SETS * _LRU_WAYS, size=_LRU_ACCESSES).tolist()
        self.checksum = self._work()

    def _work(self) -> float:
        for _ in range(_NUMPY_PASSES):
            np.take(self._texels, self._idx_a, axis=0, out=self._a)
            np.take(self._texels, self._idx_b, axis=0, out=self._b)
            np.multiply(self._a, self._w, out=self._a)
            np.multiply(self._b, self._w1, out=self._b)
            np.add(self._a, self._b, out=self._a)
            np.copyto(self._sorted, self._keys)
            self._sorted.sort(kind="quicksort")
        total = float(self._a[:, 0].sum()) + int(self._sorted[_FRAGMENTS // 2])
        fresh = np.full(_FRESH_ELEMENTS, 1.5)
        fresh *= 2.0
        total += float(fresh[::4099].sum())
        del fresh
        sets: "list[dict[int, None]]" = [{} for _ in range(_LRU_SETS)]
        hits = 0
        for line in self._lines:
            resident = sets[line % _LRU_SETS]
            if line in resident:
                del resident[line]
                hits += 1
            elif len(resident) >= _LRU_WAYS:
                del resident[next(iter(resident))]
            resident[line] = None
        return total + hits

    def run(self) -> float:
        """Run the probe once; return its wall time in seconds."""
        t0 = time.perf_counter()
        checksum = self._work()
        elapsed = time.perf_counter() - t0
        if checksum != self.checksum:
            raise RuntimeError("reference probe produced a different result")
        return elapsed


def adjacent_ref(probes: "list[tuple[float, float]]", start: float, end: float) -> float:
    """The probe time that stands for host speed over ``[start, end]``.

    ``probes`` holds ``(timestamp, ref_s)`` pairs in time order. The
    median of the (up to) three probes nearest the interval's midpoint
    is used, so one probe hit by a context switch cannot skew an op.
    """
    if not probes:
        raise ValueError("no reference probes recorded")
    mid = 0.5 * (start + end)
    nearest = sorted(probes, key=lambda p: abs(p[0] - mid))[:3]
    return statistics.median(ref for _, ref in nearest)


def normalise(raw_s: float, ref_s: float) -> float:
    """Raw host seconds -> normalised seconds."""
    return raw_s * REF_NOMINAL_S / ref_s
