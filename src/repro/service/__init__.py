"""Render-as-a-service: asyncio front-end over the experiment engine.

``repro serve`` turns the toolkit into a long-running service measured
in requests/sec and p99 latency (ROADMAP item 4): concurrent clients
speak a JSON-lines protocol, compatible in-flight requests coalesce
into capture-affine engine batches (cross-request dedup), and
execution runs serially or on the supervised fork pool, chosen by
``jobs`` exactly as for batch runs. See :mod:`repro.service.server`
for the architecture.
"""

from __future__ import annotations

from .client import ServiceClient
from .protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    Request,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)
from .server import (
    DEFAULT_MAX_BATCH,
    RenderService,
    ServeConfig,
    run_server,
)

__all__ = [
    "DEFAULT_MAX_BATCH",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "RenderService",
    "Request",
    "ServeConfig",
    "ServiceClient",
    "encode_response",
    "error_response",
    "ok_response",
    "parse_request",
    "run_server",
]
