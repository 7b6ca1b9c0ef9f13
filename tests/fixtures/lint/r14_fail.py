"""R14 fixture: severed reference branches and a dropped knob."""

from __future__ import annotations


def run_fast(values: list, use_batch: bool = True) -> list:
    # no-slow-path: knob-off falls off the end of the function
    if use_batch:
        return [v + v for v in values]


def run_memo(values: list, use_memo: bool = True) -> list:
    # raising-slow-path: the escape hatch became an error
    if not use_memo:
        raise RuntimeError("slow path removed")
    return sorted(values)


def _ensemble(values: list, use_shm: bool = True) -> list:
    if use_shm:
        return list(values)
    return [v for v in values]


def sweep(values: list, use_shm: bool = True) -> list:
    # dropped knob: _ensemble accepts use_shm but never receives it
    return _ensemble(values)


def run_points(values: list, execution=None) -> list:
    return list(values)


def driver(values: list, execution=None) -> list:
    # dropped config: run_points accepts execution but never receives it
    return run_points(values)
