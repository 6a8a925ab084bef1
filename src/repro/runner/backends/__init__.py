"""Pluggable execution backends for the sweep runner.

The built-in backends, named in :data:`~repro.runner.backends.base.BACKENDS`:

=========== ==========================================================
``serial``  inline, zero overhead — the reference semantics
``process`` warm self-healing workers reused across sweeps,
            batched dispatch, crash recovery
``chaos``   deterministic fault injection around either of the above
=========== ==========================================================

Each lives in its own module, imported on first use: by
:func:`~repro.runner.backends.base.create_backend`, or by asking this
package for its class (``from repro.runner.backends import
ProcessBackend``).  A serial run never loads ``multiprocessing``.

See :mod:`repro.runner.backends.base` for the contract and
``docs/runner.md`` for when to pick which (including the
fault-tolerance semantics: per-point timeouts, worker respawn, chaos
profiles).
"""

import importlib

from repro.runner.backends.base import (
    BACKENDS,
    ExecutionBackend,
    PointTimeout,
    TaskResult,
    create_backend,
    resolve_backend,
)

__all__ = [
    "BACKENDS",
    "ChaosBackend",
    "ChaosFault",
    "ChaosSpec",
    "ExecutionBackend",
    "PointTimeout",
    "ProcessBackend",
    "SerialBackend",
    "TaskResult",
    "create_backend",
    "resolve_backend",
]

#: Names served from a backend module on first use: name -> module.
LAZY = {
    **{cls: module
       for module, cls in (path.split(":") for path in BACKENDS.values())},
    "ChaosFault": "repro.runner.backends.chaos",
    "ChaosSpec": "repro.runner.backends.chaos",
}


def __getattr__(name: str):  # backend modules load on first use
    module = LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
