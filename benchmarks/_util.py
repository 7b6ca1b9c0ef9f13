"""Shared benchmark plumbing.

Each benchmark runs one experiment driver once (``benchmark.pedantic``
with a single round — the experiments are themselves statistical), then
prints the paper-style table/series and archives it under
``benchmarks/results/``.

The experiment scale is selected with the ``REPRO_BENCH_SCALE``
environment variable: ``smoke`` | ``small`` (default) | ``medium`` |
``paper``.  Execution knobs: ``REPRO_BENCH_JOBS`` fans scenario work
out over N worker processes (0 = one per CPU; results are bit-identical
to serial), ``REPRO_BENCH_NO_CACHE=1`` bypasses the shared DP table
cache, ``REPRO_BENCH_NO_MEMO=1`` the cross-trace replan memo,
``REPRO_BENCH_NO_SHM=1`` the shared-memory trace publication and
``REPRO_BENCH_NO_DISKCACHE=1`` the persistent disk solve tier — see
``docs/performance.md``.  :func:`bench_execution` parses them into the
one :class:`~repro.execution.ExecutionConfig` a benchmark hands its
experiment driver.

Archived JSON reports (``write_bench_json``) carry a ``host`` block
(:func:`host_metadata`) so numbers from different machines are never
compared blind.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import platform as _platform
import socket

from repro.execution import ExecutionConfig
from repro.experiments import MEDIUM, PAPER, SMALL, SMOKE, ExperimentScale

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_SCALES = {"smoke": SMOKE, "small": SMALL, "medium": MEDIUM, "paper": PAPER}


def bench_execution() -> ExecutionConfig:
    """The execution config the ``REPRO_BENCH_*`` variables describe."""
    return ExecutionConfig.from_env()


def host_metadata() -> dict:
    """Identity of the machine that produced a benchmark number.

    Wall-clock results are only comparable on the same hardware; every
    archived bench JSON embeds this block so a number can always be
    traced back to the host (and library versions) that measured it.
    """
    import numpy

    return {
        "hostname": socket.gethostname(),
        "machine": _platform.machine(),
        "system": f"{_platform.system()} {_platform.release()}",
        "cpu_count": os.cpu_count(),
        # CPUs this process may run on (a container can see more than it
        # is allowed to use); a parallel arm needs affinity >= jobs
        "cpu_affinity": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "python": _platform.python_version(),
        "numpy": numpy.__version__,
    }


def write_bench_json(path: pathlib.Path | str, payload: dict) -> None:
    """Archive a benchmark report as JSON with the ``host`` block
    attached (existing ``host`` keys are preserved)."""
    payload = dict(payload)
    payload.setdefault("host", host_metadata())
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def bench_scale(**overrides) -> ExperimentScale:
    """The configured scale, with per-benchmark overrides applied.

    Additional environment knobs (applied after the named scale) let a
    constrained machine trade statistics for wall-clock:

    - ``REPRO_BENCH_TRACES``: cap ``n_traces``;
    - ``REPRO_BENCH_PETA`` / ``REPRO_BENCH_EXA``: platform sizes;
    - ``REPRO_BENCH_PPOINTS``: points on degradation-vs-p axes.

    The execution variables are read by :func:`bench_execution`.
    """
    name = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    scale = _SCALES.get(name, SMALL)
    env = {}
    for var, field in (
        ("REPRO_BENCH_TRACES", "n_traces"),
        ("REPRO_BENCH_PETA", "ptotal_peta"),
        ("REPRO_BENCH_EXA", "ptotal_exa"),
        ("REPRO_BENCH_PPOINTS", "n_p_points"),
    ):
        value = os.environ.get(var)
        if value:
            env[field] = int(value)
    if "n_traces" in env:
        env.setdefault(
            "period_lb_traces", min(scale.period_lb_traces, env["n_traces"])
        )
    merged = {**env, **overrides}
    return dataclasses.replace(scale, **merged) if merged else scale


def report(name: str, text: str) -> None:
    """Echo a result block to the real terminal (bypassing pytest's
    capture) and archive it under ``benchmarks/results/``."""
    import sys

    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)  # captured output (visible with -s / on failure)
    try:
        sys.__stdout__.write(banner)
        sys.__stdout__.flush()
    except (AttributeError, ValueError):  # pragma: no cover - no terminal
        pass
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
