"""Pluggable execution backends for the sweep runner.

Importing this package registers the built-in backends:

========== ==========================================================
``serial``     inline, zero overhead — the reference semantics
``process``    fresh pool per sweep, function shipped via initializer
``persistent`` warm self-healing workers reused across sweeps,
               batched dispatch, crash recovery
``chaos``      deterministic fault injection around any of the above
``remote``     dispatch through a ``repro serve`` daemon's warm pool
               over a local socket (leases, reconnect, resume tokens)
========== ==========================================================

See :mod:`repro.runner.backends.base` for the contract and
``docs/runner.md`` for when to pick which (including the
fault-tolerance semantics: per-point timeouts, worker respawn, chaos
profiles).
"""

from repro.runner.backends.base import (
    BACKENDS,
    CacheContext,
    ExecutionBackend,
    PointTimeout,
    TaskResult,
    create_backend,
    resolve_backend,
)
from repro.runner.backends.chaos import ChaosBackend, ChaosFault, ChaosSpec
from repro.runner.backends.persistent import PersistentBackend
from repro.runner.backends.process import ProcessBackend
from repro.runner.backends.remote import RemoteBackend
from repro.runner.backends.serial import SerialBackend

__all__ = [
    "BACKENDS",
    "CacheContext",
    "ChaosBackend",
    "ChaosFault",
    "ChaosSpec",
    "ExecutionBackend",
    "PersistentBackend",
    "PointTimeout",
    "ProcessBackend",
    "RemoteBackend",
    "SerialBackend",
    "TaskResult",
    "create_backend",
    "resolve_backend",
]
