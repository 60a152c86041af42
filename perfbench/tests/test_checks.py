import json

import numpy as np

import checks
import opgen
import run


def _server_bytes(request_id, metrics):
    payload = {"id": request_id, "ok": True, "metrics": metrics}
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def test_perturbed_service_response_counts_as_failed():
    metrics = {"cycles": 1234.5, "mssim": 0.987654321, "energy_nj": 1e6}
    key = checks.eval_key("wolf-640x480", 3, "patu", 0.4, opgen.SERVE_SCALE)
    expected = {key: checks.bytes_digest(checks.metrics_bytes(metrics))}
    request = {"op": "eval", "workload": "wolf-640x480", "frame": 3,
               "scenario": "patu", "threshold": 0.4}
    good = _server_bytes("a", metrics)
    assert run.response_ok(expected, request, json.loads(good), good)
    bad = _server_bytes("a", {**metrics, "mssim": 0.987654322})
    assert not run.response_ok(expected, request, json.loads(bad), bad)
    reordered = json.dumps({"id": "a", "ok": True, "metrics": metrics}).encode() + b"\n"
    assert not run.response_ok(expected, request, json.loads(reordered), reordered)
    render = {"op": "render", "workload": "wolf-640x480", "frame": 3}
    echoed = {"ok": True, "capture": {"workload": "wolf-640x480", "frame": 3, "digest": "x"}}
    assert run.response_ok(expected, render, echoed, b"")
    assert not run.response_ok(expected, render, {**echoed, "capture": {"frame": 2}}, b"")
    assert not run.response_ok(expected, render, {"ok": False, "status": 500}, b"")


def test_perturbed_capture_counts_as_failed():
    from repro.experiments.runner import ExperimentContext

    expected = checks.load_expected()
    capture = ExperimentContext(scale=opgen.SCALE, frames=8).capture("wolf-640x480", 0)
    key = checks.capture_key("wolf-640x480", 0, opgen.SCALE)
    rec = {"key": key, "digest": checks.capture_digest(capture), "error": None}
    assert run.op_ok(expected, rec)
    capture.tf_color[17, 1] = np.nextafter(capture.tf_color[17, 1], np.float32(2))
    assert not run.op_ok(expected, {**rec, "digest": checks.capture_digest(capture)})
    assert not run.op_ok(expected, {**rec, "digest": None, "error": "ValueError: boom"})


def test_failed_op_lowers_success_rate(tmp_path):
    r = run.Run("sweep", 1, 1, tmp_path)
    r.probes = [(0.0, 0.05), (10.0, 0.05)]
    r.setups = [(1.0, 0.05)]
    r.timed_norm_s = 3.0
    r.ops = [
        {"kind": "sweep", "start": float(i), "end": i + 0.5, "ref": 0.05, "ok": i != 2}
        for i in range(4)
    ]
    metrics = r.e2e_metrics()
    assert metrics["success_rate"] == 0.75
    assert metrics["ops_per_s"] == 1.0
