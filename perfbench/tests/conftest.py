"""Benchmark self-tests: ``python3 -m pytest perfbench/tests`` from the root."""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
