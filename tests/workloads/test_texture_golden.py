"""One SHA-256 pins every texture the game, R.Bench and fuzz scenes use.

Texture synthesis is computed in place for speed; this digest, taken
before that rewrite, holds it to the original bytes. Any change to a
generator, a seed or the synthesis arithmetic moves the digest, and
with it every frame golden and paper table downstream.
"""

import hashlib

from repro.workloads import TABLE2_ROWS, fuzz_workload, get_workload, rbench_workload

TEXTURE_SHA256 = "6efdf1e6ce2725bbb390e5dfd58dee0b62d6e46a93555eb83b208c23ad7e4aeb"


def _scenes():
    for abbr, _title, resolutions, _library in TABLE2_ROWS:
        width, height = resolutions[0]
        yield abbr, get_workload(f"{abbr}-{width}x{height}").scene
    for resolution in ("2K", "4K"):
        yield f"R.Bench-{resolution}", rbench_workload(resolution).scene
    yield "fuzz@3", fuzz_workload(3).scene
    yield "fuzz@11:grazing", fuzz_workload(11, "grazing").scene


def test_all_scene_textures_match_the_pinned_digest():
    digest = hashlib.sha256()
    for label, scene in _scenes():
        for name in sorted(scene.textures):
            data = scene.textures[name].data
            digest.update(f"{label}/{name}:{data.dtype.str}:{data.shape}".encode())
            digest.update(data.tobytes())
    assert digest.hexdigest() == TEXTURE_SHA256
