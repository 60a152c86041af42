"""Run ``repro serve`` with the benchmark's layer wrappers installed.

The traced ``serve`` run uses this launcher in place of ``python -m
repro``: it installs the wrappers, hands the rest of its arguments to
the program's own command line unchanged, and writes the spans to
TRACE_OUT when the service shuts down.

    PYTHONPATH=src python3 perfbench/serve_launch.py TRACE_OUT serve --backend serial ...
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.cli import main as repro_main  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(argv=None) -> int:
    trace_out, *cli_argv = sys.argv[1:] if argv is None else argv
    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(cli_argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
