"""R14 passing fixture: reference branches intact, knobs forwarded."""

from __future__ import annotations


def run_fast(values: list, use_batch: bool = True) -> list:
    if use_batch:
        return [v + v for v in values]
    return [v * 2 for v in values]


def run_memo(values: list, use_memo: bool = True) -> list:
    if not use_memo:
        return sorted(values)
    return sorted(values)


def _ensemble(values: list, use_shm: bool = True) -> list:
    if use_shm:
        return list(values)
    return [v for v in values]


def sweep(values: list, use_shm: bool = True) -> list:
    return _ensemble(values, use_shm=use_shm)


def run_points(values: list, execution=None) -> list:
    return list(values)


def driver(values: list, execution=None) -> list:
    return run_points(values, execution=execution)
