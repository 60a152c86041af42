"""The lazy Table II registry: names without builds, one build per scene."""

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.errors import WorkloadError
from repro.obs import TELEMETRY
from repro.workloads import games
from repro.workloads.games import (
    GAME_WORKLOADS,
    TABLE2_ROWS,
    get_workload,
    workload_names,
)

#: Run in a fresh interpreter: what importing the entry points, an
#: unknown lookup and service start-up each leave in the scene caches.
_FRESH = """
import json
import repro, repro.cli, repro.engine.worker, repro.service.server
from repro.errors import WorkloadError
from repro.workloads.games import _BUILDERS, get_workload

def built():
    return {abbr: fn.cache_info().currsize for abbr, (fn, _) in _BUILDERS.items()}

out = {"import": built()}
try:
    get_workload("nope")
except WorkloadError as exc:
    out["error"] = str(exc)
out["unknown"] = built()
repro.service.server.RenderService(repro.service.server.ServeConfig())
out["serve"] = built()
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def fresh():
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _FRESH],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout)


class TestFreshInterpreter:
    def test_imports_build_no_scene(self, fresh):
        assert fresh["import"] == {abbr: 0 for abbr in games._BUILDERS}

    def test_unknown_name_lists_every_name_and_builds_nothing(self, fresh):
        for name in workload_names():
            assert repr(name) in fresh["error"]
        assert "'nope'" in fresh["error"]
        assert fresh["unknown"] == {abbr: 0 for abbr in games._BUILDERS}

    def test_render_service_prebuilds_every_scene(self, fresh):
        assert fresh["serve"] == {abbr: 1 for abbr in games._BUILDERS}


class TestRegistry:
    def test_order_follows_table2(self):
        expected = [
            f"{abbr}-{w}x{h}"
            for abbr, _title, resolutions, _library in TABLE2_ROWS
            for w, h in resolutions
        ]
        assert list(GAME_WORKLOADS) == expected == workload_names()
        assert len(GAME_WORKLOADS) == 11

    def test_read_only(self):
        with pytest.raises(TypeError):
            GAME_WORKLOADS["HL2-640x480"] = None

    def test_unknown_name_raises(self):
        with pytest.raises(WorkloadError, match="unknown workload 'nope'"):
            get_workload("nope")
        assert "nope" not in GAME_WORKLOADS
        with pytest.raises(KeyError):
            GAME_WORKLOADS["nope"]

    def test_lookup_is_memoised(self):
        assert get_workload("wolf-640x480") is get_workload("wolf-640x480")
        assert GAME_WORKLOADS["wolf-640x480"] is get_workload("wolf-640x480")

    def test_resolutions_share_one_scene(self):
        assert (
            get_workload("HL2-1600x1200").scene
            is get_workload("HL2-640x480").scene
        )


@pytest.fixture()
def fresh_registry(monkeypatch):
    """A registry whose scene builders start with empty caches."""
    # ``__wrapped__`` is each builder's traced, uncached build.
    builders = {
        abbr: (functools.lru_cache(maxsize=None)(fn.__wrapped__), path)
        for abbr, (fn, path) in games._BUILDERS.items()
    }
    monkeypatch.setattr(games, "_BUILDERS", builders)
    TELEMETRY.reset()
    TELEMETRY.enabled = True
    yield games._GameRegistry()
    TELEMETRY.enabled = False
    TELEMETRY.reset()


def test_each_scene_build_is_one_span(fresh_registry):
    names = ["HL2-1600x1200", "HL2-1280x1024", "HL2-640x480", "wolf-640x480"]
    for _ in range(2):
        for name in names:
            fresh_registry[name]
    builds = [s for s in TELEMETRY.spans if s.name == "workloads.build"]
    # One span per game scene, shared by HL2's three resolutions.
    assert [s.args for s in builds] == [{"workload": "HL2"}, {"workload": "wolf"}]
    assert TELEMETRY.counter_value("workloads.scenes_built") == 2
