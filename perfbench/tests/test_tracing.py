import sys
import types

import pytest

import tracing


def _tree():
    # root op 100 on [0, 10]; a [1, 6] with children b [2, 3], c [3.5, 5];
    # d [6.5, 9] with child e [7, 8] (e nested twice under a same-name span).
    spans = [
        (2, "b", 2.0, 3.0, 1),
        (3, "c", 3.5, 5.0, 1),
        (1, "a", 1.0, 6.0, 100),
        (5, "e", 7.2, 7.8, 6),
        (6, "e", 7.0, 8.0, 4),
        (4, "d", 6.5, 9.0, 100),
    ]
    return spans, (100, 0.0, 10.0)


def test_self_times_plus_unattributed_equal_root_wall():
    spans, root = _tree()
    layers, unattributed = tracing.layer_report(spans, root)
    assert unattributed == pytest.approx(10.0 - 5.0 - 2.5)
    total_self = sum(entry["self"] for entry in layers.values())
    assert total_self + unattributed == pytest.approx(root[2] - root[1])
    assert layers["a"]["self"] == pytest.approx(5.0 - 1.0 - 1.5)
    assert layers["e"]["incl"] == pytest.approx(1.0)  # nested e not counted twice
    assert layers["e"]["calls"] == 2


def test_group_by_root_by_parent_and_by_time():
    spans, _root = _tree()
    orphans = [(7, "x", 12.5, 13.0, None), (8, "y", 12.6, 12.8, 7), (9, "z", 30.0, 31.0, None)]
    groups = tracing.group_by_root(spans + orphans, [(100, 0.0, 10.0), (-1, 12.0, 14.0)])
    assert sorted(s[0] for s in groups[100]) == [1, 2, 3, 4, 5, 6]
    assert sorted(s[0] for s in groups[-1]) == [7, 8]
    layers, unattributed = tracing.layer_report(groups[-1], (-1, 12.0, 14.0))
    assert sum(e["self"] for e in layers.values()) + unattributed == pytest.approx(2.0)


def test_wrappers_patch_where_looked_up_and_restore():
    module = types.ModuleType("fake_layer")

    def work(x):
        return x * 2

    class Store:
        def put(self, data):
            return len(data)

    module.work, module.Store = work, Store
    sys.modules["fake_layer"] = module
    try:
        tracer = tracing.Tracer()
        tracer.install((
            ("fake_layer", "work", "layer.work"),
            ("fake_layer", "Store.put", "layer.put"),
            ("fake_layer", "Store.gone", "layer.gone"),
        ))
        assert module.work(2) == 4
        assert module.Store().put("abc") == 3
        tracer.uninstall()
        assert module.work is work and module.Store.put is Store.__dict__["put"]
    finally:
        del sys.modules["fake_layer"]
    assert [s[1] for s in tracer.spans] == ["layer.work", "layer.put"]
    assert all(s[4] is None for s in tracer.spans)


def test_trace_points_resolve_in_the_program():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracer._patches) == len(tracing.TRACE_POINTS)
        from repro.renderer import session

        assert session.render_gbuffer.__wrapped__ is not None
        assert session.mssim_fn.__wrapped__ is not None
    finally:
        tracer.uninstall()
    from repro.renderer import session

    assert not hasattr(session.render_gbuffer, "__wrapped__")
