"""Pipeline instrumentation: spans/counters emitted by a real render."""

from __future__ import annotations

import json

import pytest

from repro.core.patu import PerceptionAwareTextureUnit
from repro.core.scenarios import SCENARIOS
from repro.obs import TELEMETRY, jsonable


@pytest.fixture()
def enabled(clean_global_telemetry):
    TELEMETRY.enabled = True
    return TELEMETRY


class TestSessionTelemetry:
    def test_evaluate_emits_frame_record_and_counters(self, enabled, session, capture):
        result = session.evaluate(capture, SCENARIOS["patu"], 0.4)
        records = TELEMETRY.frame_records
        assert len(records) == 1
        record = records[0]
        assert record["scenario"] == "patu"
        assert record["mssim"] == pytest.approx(result.mssim)
        # The acceptance-criteria fields, via counters and the record.
        counters = record["counters"]
        assert counters["patu.stage1_approved"] >= 0
        assert counters["patu.stage2_approved"] >= 0
        assert counters["memsys.l1_hit"] + counters["memsys.l1_miss"] > 0
        assert record["events"]["trilinear_samples"] > 0
        assert record["events"]["address_samples"] > 0
        assert record["frame_cycles"] > 0
        assert record["energy"]["total_nj"] > 0
        stage_names = set(record["stages"])
        assert {"session.evaluate", "patu.decide",
                "session.simulate_hierarchy", "session.frame_timing",
                "memsys.process_frame"} <= stage_names

    def test_capture_spans_nested_under_capture_frame(
        self, enabled, session, mini_workload
    ):
        session.capture_frame(mini_workload, 1)
        spans = {s.name: s for s in TELEMETRY.spans}
        assert spans["session.capture_frame"].depth == 0
        for child in ("capture.gbuffer", "capture.texture_filtering",
                      "capture.csr_merge", "capture.txds"):
            assert spans[child].depth == 1
        assert spans["geometry.transform"].depth == 2
        assert TELEMETRY.counter_value("capture.visible_pixels") > 0
        assert TELEMETRY.counter_value("texture.trilinear_samples") > 0

    def test_counters_aggregate_over_multiple_evaluations(
        self, enabled, session, capture
    ):
        session.evaluate(capture, SCENARIOS["patu"], 0.4)
        once = TELEMETRY.counter_value("patu.pixels")
        session.evaluate(capture, SCENARIOS["patu"], 0.6)
        assert TELEMETRY.counter_value("patu.pixels") == 2 * once
        assert len(TELEMETRY.frame_records) == 2

    def test_disabled_session_adds_no_records(self, session, capture):
        assert not TELEMETRY.enabled
        session.evaluate(capture, SCENARIOS["patu"], 0.4)
        assert TELEMETRY.spans == []
        assert TELEMETRY.frame_records == []
        assert TELEMETRY.metrics.counter_totals() == {}


class TestToDict:
    def test_frame_result_to_dict_is_json_ready(self, session, capture):
        result = session.evaluate(capture, SCENARIOS["patu"], 0.4)
        data = result.to_dict()
        json.dumps(jsonable(data))  # must not raise
        assert data["workload"] == capture.workload_name
        assert data["scenario"] == "patu"
        assert data["hierarchy"]["l1"]["accesses"] > 0
        assert data["bandwidth"]["total"] >= data["bandwidth"]["texture"]
        assert data["frame_timing"]["geometry_cycles"] >= 0
        assert data["events"]["trilinear_samples"] > 0

    def test_raster_and_hierarchy_to_dict(self, session, capture):
        result = session.evaluate(capture, SCENARIOS["baseline"], 1.0)
        hier = result.hierarchy.to_dict()
        assert set(hier) == {"l1", "l2", "dram"}
        assert hier["l1"]["hits"] + hier["l1"]["misses"] == hier["l1"]["accesses"]
        assert hier["dram"]["bytes_fetched"] == hier["dram"]["lines_fetched"] * 64

    def test_patu_decision_to_dict(self, capture):
        device = PerceptionAwareTextureUnit(SCENARIOS["patu"], 0.4)
        decision = device.decide(capture.n, capture.txds)
        data = decision.to_dict()
        json.dumps(data)
        assert data["pixels"] == capture.num_pixels
        assert (
            data["stage1_approved"] + data["stage2_approved"]
            == data["approximated"]
        )
        assert sum(data["mode_counts"].values()) == data["pixels"]
        assert data["total_trilinear"] == decision.total_trilinear
