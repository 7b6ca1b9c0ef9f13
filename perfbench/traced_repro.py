"""Run one ``repro`` CLI command with layer tracing installed.

Usage: ``python perfbench/traced_repro.py OUT_DIR REPRO_ARG...`` with
``src`` on ``PYTHONPATH``.  Spans and counts land in ``OUT_DIR`` (see
``tracer.py``); the exit code is the command's.  For ``repro serve``,
send SIGINT to stop the daemon and flush the trace.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import tracer


def main() -> int:
    out_dir = Path(sys.argv[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    for name in tracer.LAYER_MODULES:
        __import__(name)
    import_s = time.perf_counter() - start
    rec = tracer.install(out_dir)
    rec.add("cli.import_s", import_s)
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        rec.dump()


if __name__ == "__main__":
    sys.exit(main())
