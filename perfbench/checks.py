"""Output checks: every op's output against a committed digest.

``expected.json`` maps one key per possible op (see :func:`capture_key`
and :func:`eval_key`) to a 16-hex SHA-256 prefix. It covers the whole
op universe of the generators - 11 configs x 8 frames at scale 0.25,
each with the Fig. 17 plan, and the ``serve`` design points at its own
scale - so every seed is checked. ``make_expected.py``
regenerates it in-process through ``ExperimentContext``.

Capture digests hash the per-pixel filtering state, the colours, the
reference image and the frame's workload counts, with integers widened
to int64 and floats to float64: a change in how a capture is *stored*
does not trip the check, a change in what it *contains* does. Eval
digests hash the canonical JSON of the metrics dict - the exact bytes
the service puts after ``"metrics":`` in an ``eval`` response.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import numpy as np

EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")

#: FrameCapture fields whose values define the capture.
CAPTURE_FIELDS = (
    "workload_name", "frame_index", "width", "height", "tile_size",
    "rows", "cols", "tile_ids", "tex_ids", "n", "lod_tf", "lod_af",
    "txds", "share_fraction", "af_color", "tf_color", "tfa_color",
    "sample_row_ptr", "workload", "baseline_luminance", "clear_luminance",
)


def capture_key(config: str, frame: int, scale: float) -> str:
    return f"capture/{scale:g}/{config}/{frame}"


def eval_key(config: str, frame: int, scenario: str, threshold: float, scale: float) -> str:
    return f"eval/{scale:g}/{config}/{frame}/{scenario}/{threshold:.1f}"


def _short(h: "hashlib._Hash") -> str:
    return h.hexdigest()[:16]


def capture_digest(capture) -> str:
    """Digest of one FrameCapture's contents (storage-dtype agnostic)."""
    h = hashlib.sha256()
    for name in CAPTURE_FIELDS:
        value = getattr(capture, name)
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            kind = value.dtype.kind
            if kind in "biu":
                value = value.astype(np.int64)
            elif kind == "f":
                value = value.astype(np.float64)
            h.update(repr(value.shape).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif dataclasses.is_dataclass(value):
            h.update(json.dumps(dataclasses.asdict(value), sort_keys=True).encode())
        else:
            h.update(repr(value).encode())
    return _short(h)


def metrics_bytes(metrics: "dict[str, float]") -> bytes:
    """The canonical JSON bytes of one eval's metrics dict."""
    return json.dumps(metrics, sort_keys=True, separators=(",", ":")).encode()


def bytes_digest(data: bytes) -> str:
    return _short(hashlib.sha256(data))


def response_metrics_bytes(raw: bytes) -> "bytes | None":
    """The raw bytes of the ``metrics`` object inside an eval response.

    Responses are canonical (sorted keys, compact), so the object sits
    between ``"metrics":`` and ``,"ok":true}``; returning those bytes
    unparsed makes the check a byte-identity check.
    """
    head, sep, rest = raw.rstrip(b"\n").partition(b'"metrics":')
    tail = b',"ok":true}'
    if not sep or not rest.endswith(tail):
        return None
    return rest[: -len(tail)]


def load_expected() -> "dict[str, str]":
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def check(expected: "dict[str, str]", key: str, digest: "str | None") -> bool:
    """True when ``digest`` is the committed digest of op ``key``."""
    return digest is not None and expected.get(key) == digest
