"""The bulk hierarchy against the dict LRU on real captured fetch streams.

Every game and two generated scenarios are rendered at a small scale;
each design point's tile streams, exactly as the session hands them to
the hierarchy, are re-simulated tile by tile with ``CacheSim`` and the
statistics must be identical.
"""

import pytest

from repro.core.scenarios import SCENARIOS
from repro.engine.worker import resolve_workload
from repro.renderer.session import RenderSession
from repro.verify.reference import ref_memory_hierarchy

WORKLOADS = (
    "HL2-640x480",
    "doom3-640x480",
    "grid-1280x1024",
    "nfs-1280x1024",
    "stal-1280x1024",
    "Ut3-1280x1024",
    "wolf-640x480",
    "fuzz@3",
    "fuzz@11:grazing",
)


@pytest.mark.parametrize("name", WORKLOADS)
def test_session_hierarchy_matches_dict_lru(name):
    session = RenderSession(scale=0.1)
    capture = session.capture_frame(resolve_workload(name), 0)
    seen = []
    process_frame = session._hierarchy.process_frame

    def recording(tile_streams):
        seen.append(tile_streams)
        return process_frame(tile_streams)

    session._hierarchy.process_frame = recording
    for scenario, threshold in (("baseline", 1.0), ("patu", 0.5)):
        result = session.evaluate(capture, SCENARIOS[scenario], threshold)
        want = ref_memory_hierarchy(session.config, seen[-1])
        assert result.hierarchy.to_dict() == want.to_dict(), scenario
        assert result.hierarchy.l1.accesses > 0
