"""Outside-in layer tracing: wrappers installed from the benchmark.

:func:`install` replaces each traced entry point of the program with a
wrapper that records a span ``(name, start, end, parent)`` and, for a
few layers, counts work (fragments filtered, memory lines simulated,
store bytes written). Each function is patched where it is looked up:
``session.py`` imports ``render_gbuffer`` and ``mssim`` by name, so
those are patched in the session module; methods are patched on their
classes. Spans stay in memory until :meth:`Tracer.dump`.

:func:`layer_report` turns spans into per-layer times: a span's self
time is its duration minus its children's, and the part of a root
interval that no top-level span covers is ``unattributed``. Self
times plus ``unattributed`` add up to the root intervals exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict


def _warn(message: str) -> None:
    print(f"perfbench tracing: {message}", file=sys.stderr)

#: (module, attribute path, layer name) of every traced entry point.
TRACE_POINTS = (
    ("repro.renderer.session", "render_gbuffer", "raster.render_gbuffer"),
    ("repro.texture.unit", "TextureUnit.filter_batch", "texture.filter_batch"),
    ("repro.renderer.session", "RenderSession.capture_frame", "renderer.capture_frame"),
    ("repro.renderer.session", "RenderSession.evaluate", "renderer.evaluate"),
    ("repro.core.patu", "PerceptionAwareTextureUnit.decide", "core.patu.decide"),
    ("repro.renderer.session", "mssim_fn", "quality.mssim"),
    ("repro.memsys.hierarchy", "TextureMemoryHierarchy.process_frame", "memsys.process_frame"),
    ("repro.timing.texpipe", "TexturePipelineModel.frame_timing", "timing.frame_timing"),
    ("repro.timing.texpipe", "TexturePipelineModel.request_latency", "timing.frame_timing"),
    ("repro.timing.gpu_timing", "GpuTimingModel.frame_timing", "timing.frame_timing"),
    ("repro.power.energy", "EnergyModel.frame_energy", "power.frame_energy"),
    ("repro.engine.capture_store", "CaptureStore.get", "capture_store.get"),
    ("repro.engine.capture_store", "CaptureStore.put", "capture_store.put"),
    ("repro.engine.capture_store", "ShardedCaptureStore.get", "capture_store.get"),
    ("repro.engine.capture_store", "ShardedCaptureStore.put", "capture_store.put"),
    ("repro.engine.scheduler", "Engine.execute", "engine.execute"),
)


def _arg(args, kwargs, index: int, name: str):
    """A call's argument by name or by position (``args[0]`` is self)."""
    return kwargs[name] if name in kwargs else args[index]


def _count_fragments(tracer, args, kwargs, result) -> None:
    tracer.counts["texture.fragments"] += len(_arg(args, kwargs, 2, "u"))


def _count_memsys(tracer, args, kwargs, result) -> None:
    streams = _arg(args, kwargs, 1, "tile_streams")
    tracer.counts["memsys.lines"] += sum(len(lines) for _, lines in streams)
    tracer.counts["memsys.l1_accesses"] += result.l1.accesses
    tracer.counts["memsys.l1_hits"] += result.l1.hits
    tracer.counts["memsys.l2_accesses"] += result.l2.accesses
    tracer.counts["memsys.l2_hits"] += result.l2.hits


def _count_get(tracer, args, kwargs, result) -> None:
    tracer.counts["capture_store.gets"] += 1
    tracer.counts["capture_store.hits"] += result is not None


def _count_put(tracer, args, kwargs, result) -> None:
    tracer.counts["capture_store.puts"] += 1
    tracer.counts["capture_store.bytes"] += result.stat().st_size


def _count_execute(tracer, args, kwargs, result) -> None:
    tracer.counts["engine.submitted"] += len(_arg(args, kwargs, 1, "jobs"))
    tracer.counts["engine.planned"] += result.planned


#: Work counters taken at a layer boundary, keyed by layer name.
COUNTERS = {
    "texture.filter_batch": _count_fragments,
    "memsys.process_frame": _count_memsys,
    "capture_store.get": _count_get,
    "capture_store.put": _count_put,
    "engine.execute": _count_execute,
}


class Tracer:
    """In-memory span recorder; thread-aware parent tracking."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent id or None)
        self.spans: "list[tuple[int, str, float, float, int | None]]" = []
        self.counts: "defaultdict[str, float]" = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: "list[tuple[object, str, object]]" = []
        #: Layers whose counter no longer fits the program's signature.
        self.broken: "set[str]" = set()

    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` under a span; return ``(result, span id)``."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent))
        counter = COUNTERS.get(name)
        if counter is not None and name not in self.broken:
            with self._lock:
                try:
                    counter(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError) as exc:
                    self.broken.add(name)
                    _warn(f"counter of {name} disabled: {type(exc).__name__}: {exc}")
        return result, span_id

    def wrap(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs)[0]

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, points=TRACE_POINTS) -> None:
        """Wrap every trace point; a point the program lacks is skipped.

        A renamed or removed entry point then reads 0 in the per-layer
        report (with a warning on stderr) instead of failing the run.
        """
        for module_name, path, name in points:
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
                self.wrap(owner, attr, name)
            except (ImportError, AttributeError, KeyError) as exc:
                _warn(f"trace point {module_name}.{path} skipped: {exc!r}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with self._lock:
            payload = {"spans": self.spans, "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def group_by_root(spans, roots) -> "dict[int, list]":
    """Assign every span to the root interval (op) it belongs to.

    ``roots`` are ``(id, start, end)``. A span whose parent is a root id
    belongs to that root; a span with no parent belongs to the root
    interval containing its start (spans outside every root, such as
    set-up work, are dropped); any other span follows its parent.
    """
    by_id = {s[0]: s for s in spans}
    root_ids = {r[0] for r in roots}
    owner: "dict[int, int | None]" = {}

    def root_of(span) -> "int | None":
        span_id, _name, start, _end, parent = span
        if span_id in owner:
            return owner[span_id]
        if parent in root_ids:
            found = parent
        elif parent is None:
            found = next((r for r, s0, s1 in roots if s0 <= start < s1), None)
        else:
            parent_span = by_id.get(parent)
            found = root_of(parent_span) if parent_span is not None else None
        owner[span_id] = found
        return found

    groups: "dict[int, list]" = {r[0]: [] for r in roots}
    for span in spans:
        if span[0] in root_ids:
            continue
        found = root_of(span)
        if found is not None:
            groups[found].append(span)
    return groups


def layer_report(spans, root) -> "tuple[dict[str, dict[str, float]], float]":
    """Per-layer inclusive/self time of one root and its remainder.

    ``spans`` are the ``(id, name, start, end, parent)`` spans owned by
    ``root = (id, start, end)`` (see :func:`group_by_root`); top-level
    spans have the root's id or None as parent. A layer's ``incl``
    skips spans whose parent has the same name, so a method that calls
    its base-class version is not counted twice.

    Returns ``(layers, unattributed_s)``: each layer's ``self`` sums
    span duration minus its children's durations, and
    ``sum(self) + unattributed_s`` equals the root's wall time.
    """
    root_id, root_start, root_end = root
    by_id = {s[0]: s for s in spans}
    child_time: "defaultdict[int, float]" = defaultdict(float)
    top_level = 0.0
    for _span_id, _name, start, end, parent in spans:
        if parent is None or parent == root_id:
            top_level += end - start
        else:
            child_time[parent] += end - start
    layers: "dict[str, dict[str, float]]" = {}
    for span_id, name, start, end, parent in spans:
        entry = layers.setdefault(name, {"incl": 0.0, "self": 0.0, "calls": 0})
        entry["self"] += (end - start) - child_time[span_id]
        entry["calls"] += 1
        parent_span = by_id.get(parent)
        if parent_span is None or parent_span[1] != name:
            entry["incl"] += end - start
    return layers, (root_end - root_start) - top_level
