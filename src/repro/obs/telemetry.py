"""The process-wide telemetry registry.

One :class:`Telemetry` instance (the module-level :data:`TELEMETRY`)
collects three kinds of observations:

* **stage timers** — hierarchical spans opened with
  :meth:`Telemetry.span` (context manager) or :meth:`Telemetry.timed`
  (decorator). Nesting is tracked on an explicit stack, so every
  completed span knows both its cumulative duration and its *self*
  time (duration minus time spent in child spans);
* **metrics** — typed counters/gauges/histograms from
  :mod:`repro.obs.metrics`, updated via :meth:`count`, :meth:`gauge`
  and :meth:`observe`;
* **per-frame records** — :meth:`frame_record` snapshots the counter
  deltas and per-stage wall-times accumulated since the previous
  record and bundles them with caller-supplied fields (typically
  ``FrameResult.to_dict()``). The records become ``metrics.jsonl``.

Telemetry is **off by default**. Every public entry point first checks
``self.enabled`` and returns immediately (``span`` hands back a shared
no-op context manager), so instrumentation sites in hot paths cost one
attribute load and one branch when disabled. Hot loops that would pay
to *build* the arguments should additionally guard with
``if TELEMETRY.enabled:``.

The registry is intentionally single-threaded (like the renderer); the
span stack is one plain list. ``repro serve`` keeps every write on its
engine thread (see :mod:`repro.service.server`).
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

from .metrics import MetricRegistry


@dataclass(frozen=True)
class SpanRecord:
    """One completed timer span."""

    name: str
    start_us: float  # relative to the telemetry epoch
    dur_us: float  # cumulative (includes children)
    self_us: float  # cumulative minus time spent in child spans
    depth: int  # nesting depth at entry (0 = top level)
    args: "dict | None" = None


class _NoopSpan:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span; records itself into the registry on exit."""

    __slots__ = ("_telemetry", "name", "args", "depth", "_start", "_child_us")

    def __init__(self, telemetry: "Telemetry", name: str, args: "dict | None"):
        self._telemetry = telemetry
        self.name = name
        self.args = args
        self.depth = 0
        self._start = 0.0
        self._child_us = 0.0

    def __enter__(self) -> "_Span":
        stack = self._telemetry._stack
        self.depth = len(stack)
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> bool:
        end = time.perf_counter()
        telemetry = self._telemetry
        dur_us = (end - self._start) * 1e6
        stack = telemetry._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # exception unwound past nested spans
            del stack[stack.index(self):]
        if stack:
            stack[-1]._child_us += dur_us
        telemetry._spans.append(
            SpanRecord(
                name=self.name,
                start_us=(self._start - telemetry._epoch) * 1e6,
                dur_us=dur_us,
                self_us=dur_us - self._child_us,
                depth=self.depth,
                args=self.args,
            )
        )
        return False


class Telemetry:
    """Process-wide registry of spans, metrics and frame records."""

    def __init__(self) -> None:
        self.enabled = False
        self.progress_sink: "object | None" = None  # callable(str) or None
        self._epoch = time.perf_counter()
        self._spans: "list[SpanRecord]" = []
        self._stack: "list[_Span]" = []
        self.metrics = MetricRegistry()
        self._frames: "list[dict]" = []
        self._frame_mark_spans = 0
        self._frame_mark_counters: "dict[str, float]" = {}
        #: Per-worker attribution accumulated by :meth:`merge_remote`:
        #: ``{worker_id: {"stages": {...}, "counters": {...}}}``.
        self._workers: "dict[object, dict]" = {}

    # -- lifecycle ------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all collected data (keeps ``enabled`` and the sink)."""
        self._epoch = time.perf_counter()
        self._spans.clear()
        self._stack.clear()
        self.metrics.clear()
        self._frames.clear()
        self._frame_mark_spans = 0
        self._frame_mark_counters = {}
        self._workers.clear()

    # -- stage timers ---------------------------------------------------

    def span(self, name: str, **args):
        """Open a (nested) stage timer as a context manager."""
        if not self.enabled:
            return NOOP_SPAN
        return _Span(self, name, args or None)

    def timed(self, name: "str | None" = None):
        """Decorator form of :meth:`span` (one span per call)."""

        def decorate(fn):
            span_name = name or f"{fn.__module__.split('.')[-1]}.{fn.__qualname__}"

            @functools.wraps(fn)
            def wrapper(*a, **kw):
                if not self.enabled:
                    return fn(*a, **kw)
                with _Span(self, span_name, None):
                    return fn(*a, **kw)

            return wrapper

        return decorate

    @property
    def spans(self) -> "list[SpanRecord]":
        return self._spans

    # -- metrics --------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        if not self.enabled:
            return
        self.metrics.counter(name).add(amount)

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.metrics.histogram(name).observe(value)

    def observe_many(self, name: str, values) -> None:
        """Fold a batch of observations (e.g. a numpy array) at once."""
        if not self.enabled:
            return
        self.metrics.histogram(name).observe_many(values)

    def counter_value(self, name: str) -> float:
        counter = self.metrics.counters.get(name)
        return counter.value if counter else 0

    # -- progress (driven by --verbose, independent of ``enabled``) -----

    def progress(self, message: str) -> None:
        """Report a human-readable progress line, if anyone listens."""
        sink = self.progress_sink
        if sink is not None:
            sink(message)

    # -- per-frame records ----------------------------------------------

    def frame_record(self, fields: "dict | None" = None, **extra) -> "dict | None":
        """Close one frame: snapshot stage times and counter deltas.

        Stage wall-times aggregate the spans *completed* since the
        previous record; counter values are deltas over the same
        window. A span still open when the record is cut (e.g. the
        enclosing ``session.evaluate``) lands in the next record.
        """
        if not self.enabled:
            return None
        record: "dict" = dict(fields or {})
        record.update(extra)
        stages: "dict[str, dict]" = {}
        for span in self._spans[self._frame_mark_spans:]:
            agg = stages.get(span.name)
            if agg is None:
                agg = stages[span.name] = {
                    "count": 0, "total_us": 0.0, "self_us": 0.0,
                }
            agg["count"] += 1
            agg["total_us"] += span.dur_us
            agg["self_us"] += span.self_us
        totals = self.metrics.counter_totals()
        marks = self._frame_mark_counters
        record["ts_us"] = (time.perf_counter() - self._epoch) * 1e6
        record["stages"] = stages
        record["counters"] = {
            name: value - marks.get(name, 0) for name, value in totals.items()
        }
        self._frame_mark_spans = len(self._spans)
        self._frame_mark_counters = totals
        self._frames.append(record)
        return record

    @property
    def frame_records(self) -> "list[dict]":
        return self._frames

    # -- aggregation / reporting ----------------------------------------

    def stage_summary(self) -> "dict[str, dict]":
        """Aggregate all completed spans by name.

        Returns ``{name: {count, total_us, self_us, min_depth}}``,
        ordered by first occurrence.
        """
        summary: "dict[str, dict]" = {}
        for span in self._spans:
            agg = summary.get(span.name)
            if agg is None:
                agg = summary[span.name] = {
                    "count": 0,
                    "total_us": 0.0,
                    "self_us": 0.0,
                    "min_depth": span.depth,
                }
            agg["count"] += 1
            agg["total_us"] += span.dur_us
            agg["self_us"] += span.self_us
            if span.depth < agg["min_depth"]:
                agg["min_depth"] = span.depth
        return summary

    # -- cross-process merge (engine process backend) -------------------

    def snapshot_remote(self) -> "dict[str, object]":
        """Bundle this process's telemetry for shipping to a parent.

        Pool workers call this after each job; the parent folds the
        snapshot back in with :meth:`merge_remote`, so ``--jobs N``
        runs still end with one coherent summary. The snapshot is
        tagged with this process's id so the parent can keep a
        per-worker dimension on the merged spans and counters.
        """
        return {
            "worker": os.getpid(),
            "stages": self.stage_summary(),
            "counters": self.metrics.counter_totals(),
        }

    def merge_remote(self, snapshot: "dict | None") -> None:
        """Fold a worker's :meth:`snapshot_remote` into this registry.

        Each remote stage becomes one synthetic span carrying the
        aggregated totals (its true call count and origin worker ride
        in ``args``); remote counters add onto local ones. The same
        stage/counter totals also accumulate under the snapshot's
        worker id (see :meth:`worker_summary`), so merged totals and
        the per-worker breakdown always sum to the same numbers.
        """
        if not self.enabled or not snapshot:
            return
        now_us = (time.perf_counter() - self._epoch) * 1e6
        worker = snapshot.get("worker")
        per_worker = None
        if worker is not None:
            per_worker = self._workers.setdefault(
                worker, {"stages": {}, "counters": {}}
            )
        for name, agg in snapshot.get("stages", {}).items():
            args = {"remote_calls": int(agg["count"])}
            if worker is not None:
                args["worker"] = worker
            self._spans.append(
                SpanRecord(
                    name=name,
                    start_us=now_us,
                    dur_us=float(agg["total_us"]),
                    self_us=float(agg["self_us"]),
                    depth=int(agg.get("min_depth", 0)),
                    args=args,
                )
            )
            if per_worker is not None:
                slot = per_worker["stages"].setdefault(
                    name, {"count": 0, "total_us": 0.0, "self_us": 0.0}
                )
                slot["count"] += int(agg["count"])
                slot["total_us"] += float(agg["total_us"])
                slot["self_us"] += float(agg["self_us"])
        for name, value in snapshot.get("counters", {}).items():
            self.metrics.counter(name).add(value)
            if per_worker is not None:
                per_worker["counters"][name] = (
                    per_worker["counters"].get(name, 0.0) + value
                )

    # -- per-worker attribution (filled by merge_remote) ----------------

    @property
    def worker_stats(self) -> "dict[object, dict]":
        """Raw per-worker stage/counter accumulation (id-keyed)."""
        return self._workers

    def worker_summary(self) -> "dict[str, dict]":
        """Utilization rollup per pool worker.

        ``busy_us`` is the sum of stage *self* times attributed to the
        worker (self times partition wall time, so they add without
        double counting); ``jobs`` estimates processed chunks from
        remote call counts of top-level spans. Returns ``{}`` for
        serial runs — only :meth:`merge_remote` populates it.
        """
        summary: "dict[str, dict]" = {}
        for worker, stats in self._workers.items():
            busy_us = sum(
                agg["self_us"] for agg in stats["stages"].values()
            )
            summary[str(worker)] = {
                "busy_us": busy_us,
                "stages": {
                    name: dict(agg) for name, agg in stats["stages"].items()
                },
                "counters": dict(stats["counters"]),
            }
        return summary

    def format_worker_summary(self) -> str:
        """One-line-per-worker utilization/skew table (may be empty)."""
        summary = self.worker_summary()
        if not summary:
            return ""
        busiest = max(s["busy_us"] for s in summary.values())
        mean = sum(s["busy_us"] for s in summary.values()) / len(summary)
        lines = []
        for worker in sorted(summary):
            stats = summary[worker]
            share = stats["busy_us"] / busiest if busiest > 0 else 0.0
            lines.append(
                f"worker {worker}: busy {stats['busy_us'] / 1e3:.1f} ms "
                f"({share:.0%} of busiest)"
            )
        skew = busiest / mean if mean > 0 else 1.0
        lines.append(
            f"{len(summary)} worker(s), skew {skew:.2f}x "
            "(busiest / mean busy time)"
        )
        return "\n".join(lines)

    def format_summary(self) -> str:
        """Human-readable per-stage time and counter tables."""
        lines = ["== stage timers =="]
        summary = self.stage_summary()
        if summary:
            name_w = max(len(n) for n in summary) + 2
            lines.append(
                f"{'stage'.ljust(name_w)}{'calls':>7}{'total ms':>12}{'self ms':>12}"
            )
            for name, agg in sorted(
                summary.items(), key=lambda kv: -kv[1]["total_us"]
            ):
                lines.append(
                    f"{name.ljust(name_w)}{agg['count']:>7}"
                    f"{agg['total_us'] / 1000.0:>12.2f}"
                    f"{agg['self_us'] / 1000.0:>12.2f}"
                )
        else:
            lines.append("(no spans recorded)")
        counters = self.metrics.counter_totals()
        lines.append("")
        lines.append("== counters ==")
        if counters:
            name_w = max(len(n) for n in counters) + 2
            for name in sorted(counters):
                value = counters[name]
                text = f"{value:.0f}" if float(value).is_integer() else f"{value:.3f}"
                lines.append(f"{name.ljust(name_w)}{text:>16}")
        else:
            lines.append("(no counters recorded)")
        return "\n".join(lines)


#: The process-wide registry used by all instrumentation sites.
TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-wide :class:`Telemetry` instance."""
    return TELEMETRY
