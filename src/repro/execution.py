"""One frozen execution configuration, from flag to cache lookup.

Every speed layer of the execution tier has a bit-identical reference
path behind a switch: batch replay, the DP table cache, the replan memo,
shared-memory trace publication and the persistent disk solve tier.
Together with the worker count they form one :class:`ExecutionConfig`
value (six settable values):

- it is built in one place, by one strict parser
  (:meth:`ExecutionConfig.from_dict`) that the CLI flags
  (:meth:`~ExecutionConfig.from_args`), the ``REPRO_BENCH_*``
  environment (:meth:`~ExecutionConfig.from_env`) and the daemon's
  ``"execution"`` body all go through;
- it travels as a single ``execution`` argument from the CLI through
  :meth:`ScenarioSpec.run <repro.service.spec.ScenarioSpec.run>`,
  :func:`~repro.simulation.runner.run_scenarios` and the service queue
  into the one executor (:mod:`repro.simulation.sweep`) and down to the
  runner's work units;
- below the runner, the cache tiers read the *active* config
  (:func:`active_execution`) from one :class:`contextvars.ContextVar`
  that :class:`~repro.simulation.parallel.ParallelRunner` and each work
  unit set with :func:`using_execution`.  A context variable is private
  to its thread, so concurrent runs with different configs (daemon
  workers) cannot switch each other's caches off.

No field changes a result; they only choose which process computes it
and how fast.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import os
from collections.abc import Iterator, Mapping
from typing import Any

__all__ = [
    "DEFAULT_EXECUTION",
    "ExecutionConfig",
    "active_execution",
    "resolve_jobs",
    "using_execution",
]

#: Each switch with its CLI flag and ``REPRO_BENCH_*`` variable; the
#: daemon's ``"execution"`` key is the field name.
_SWITCHES: dict[str, tuple[str, str]] = {
    "use_cache": ("--no-cache", "REPRO_BENCH_NO_CACHE"),
    "use_batch": ("--no-batch", "REPRO_BENCH_NO_BATCH"),
    "use_memo": ("--no-memo", "REPRO_BENCH_NO_MEMO"),
    "use_shm": ("--no-shm", "REPRO_BENCH_NO_SHM"),
    "use_disk_cache": ("--no-disk-cache", "REPRO_BENCH_NO_DISKCACHE"),
}


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``jobs`` request: 0 or negative -> one worker per
    available CPU."""
    jobs = int(jobs)
    return jobs if jobs > 0 else (os.cpu_count() or 1)


@dataclasses.dataclass(frozen=True)
class ExecutionConfig:
    """How to execute scenarios; never part of a scenario's identity.

    ``jobs``: worker processes (1 = in-process serial; 0 or negative =
    one per CPU).  ``use_cache``: consult the DP table cache
    (:mod:`repro.core.cache`).  ``use_batch``: replay static-schedule
    policies with the vectorized batch engine
    (:mod:`repro.simulation.batch`).  ``use_memo``: consult the
    DPNextFailure replan memo.  ``use_shm``: publish traces and
    ensembles to workers through shared memory
    (:mod:`repro.simulation.shm`).  ``use_disk_cache``: consult the
    persistent disk solve tier (:mod:`repro.core.diskcache`) under the
    in-memory caches.  Every switch leaves results bit-identical.

    Frozen, so the shared :data:`DEFAULT_EXECUTION` instance is safe to
    use as a default argument.
    """

    jobs: int = 1
    use_cache: bool = True
    use_batch: bool = True
    use_memo: bool = True
    use_shm: bool = True
    use_disk_cache: bool = True

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any] | None) -> ExecutionConfig:
        """The one strict parser: field names only, JSON booleans for
        switches, a non-bool integer for ``jobs``.  Raises
        :class:`ValueError` (a ``repro/v1`` 400 in the daemon)."""
        if raw is None:
            return DEFAULT_EXECUTION
        if not isinstance(raw, Mapping):
            raise ValueError(
                f"execution must be an object, got {type(raw).__name__}"
            )
        for key, value in raw.items():
            if key == "jobs":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(
                        f"execution.jobs must be an integer, got {value!r}"
                    )
            elif key in _SWITCHES:
                if not isinstance(value, bool):
                    raise ValueError(
                        f"execution.{key} must be a boolean, got {value!r}"
                    )
            else:
                raise ValueError(f"unknown execution key {key!r}")
        return cls(**raw)

    @classmethod
    def from_args(cls, args: Any) -> ExecutionConfig:
        """The config a CLI invocation describes (``--jobs`` and the
        ``--no-*`` flags its subcommand defines)."""
        raw: dict[str, Any] = {}
        if getattr(args, "jobs", None) is not None:
            raw["jobs"] = args.jobs
        for key, (flag, _var) in _SWITCHES.items():
            if getattr(args, flag[2:].replace("-", "_"), False):
                raw[key] = False
        return cls.from_dict(raw)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ) -> ExecutionConfig:
        """The config the ``REPRO_BENCH_*`` variables describe:
        ``REPRO_BENCH_JOBS=N`` and ``REPRO_BENCH_NO_<SWITCH>=1``."""
        raw: dict[str, Any] = {}
        jobs = environ.get("REPRO_BENCH_JOBS")
        if jobs:
            raw["jobs"] = int(jobs)
        for key, (_flag, var) in _SWITCHES.items():
            if environ.get(var):
                raw[key] = False
        return cls.from_dict(raw)

    def to_dict(self) -> dict[str, Any]:
        """JSON form; :meth:`from_dict` round-trips it."""
        return dataclasses.asdict(self)

    @property
    def n_jobs(self) -> int:
        """``jobs`` resolved to a worker count (see :func:`resolve_jobs`)."""
        return resolve_jobs(self.jobs)


DEFAULT_EXECUTION = ExecutionConfig()

_ACTIVE: contextvars.ContextVar[ExecutionConfig] = contextvars.ContextVar(
    "repro_execution", default=DEFAULT_EXECUTION
)


def active_execution() -> ExecutionConfig:
    """The config the current thread's run executes under (the default
    outside any run)."""
    return _ACTIVE.get()


@contextlib.contextmanager
def using_execution(execution: ExecutionConfig) -> Iterator[ExecutionConfig]:
    """Make ``execution`` the active config for the enclosed block of
    the current thread; the previous one is restored on exit."""
    token = _ACTIVE.set(execution)
    try:
        yield execution
    finally:
        _ACTIVE.reset(token)
