"""Scenario service: always-JSON CLI contract, job queue, result store.

The service layer turns the one-shot runner into a long-lived scenario
daemon (``repro serve``) with a submit/poll/stream API backed by the
one executor (:mod:`repro.simulation.sweep`, with batch replay, the
replan memo and shared-memory ensembles below it).  Its pieces:

- :mod:`repro.service.envelope` — the stable JSON envelope every
  ``repro`` subcommand prints on stdout (human logs go to stderr);
- :mod:`repro.service.spec` — :class:`ScenarioSpec`, the canonical
  scenario description and its content-addressed signature;
- :mod:`repro.service.serialize` — bit-exact
  :class:`~repro.simulation.runner.ScenarioResult` <-> JSON codecs;
- :mod:`repro.service.store` — the on-disk content-addressed result
  store (signature -> archived result, versioned by code hash);
- :mod:`repro.service.queue` — the in-daemon job queue that runs
  each job, and each trace group of a batch, as one sweep group;
- :mod:`repro.service.daemon` — the local HTTP / unix-socket server;
- :mod:`repro.service.client` — the stdlib client the CLI subcommands
  ``submit`` / ``status`` / ``result`` speak through.

See ``docs/service.md`` for the architecture and lifecycle, and
``docs/usage.md`` for the CLI contract.
"""

from __future__ import annotations

from repro.service.client import ServiceClient, ServiceError
from repro.service.envelope import (
    SCHEMA,
    envelope,
    error_envelope,
    hlog,
    validate_envelope,
)
from repro.service.queue import JobQueue, JobRecord
from repro.service.serialize import (
    scenario_result_from_dict,
    scenario_result_to_dict,
)
from repro.service.spec import ScenarioSpec
from repro.service.store import ResultStore, store_version

__all__ = [
    "SCHEMA",
    "JobQueue",
    "JobRecord",
    "ResultStore",
    "ScenarioSpec",
    "ServiceClient",
    "ServiceError",
    "envelope",
    "error_envelope",
    "hlog",
    "scenario_result_from_dict",
    "scenario_result_to_dict",
    "store_version",
    "validate_envelope",
]
