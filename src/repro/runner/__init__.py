"""Unified sweep runner: declarative experiments, pluggable execution
backends, a log-structured result store.

The experiment modules declare their work as :class:`Sweep`\\ s (points +
a pure per-point function) grouped into :class:`Campaign`\\ s;
:func:`run_sweep` / :func:`run_campaign` execute them on an
interchangeable :class:`~repro.runner.backends.ExecutionBackend`
(``serial`` inline, ``process`` a warm self-healing worker pool)
with results memoized in a content-addressed on-disk
:class:`ResultCache` of append-only per-shard segments that are both
its index and its data.  ``python -m repro sweep <name>`` is the
CLI front-end, and :func:`run_sweep` in the calling process is the
only code that reads or writes the store.  A :class:`RetryPolicy` adds
the fault-tolerance layer — bounded retries with deterministic
backoff, per-point timeouts, a ``max_failures`` circuit breaker, and
cache-level quarantine of known-permanent failures — proven against
the deterministic :class:`~repro.runner.backends.ChaosBackend` fault
injector.  See ``docs/runner.md`` for the architecture.
"""

import importlib

from repro.runner.backends import (
    BACKENDS,
    ExecutionBackend,
    PointTimeout,
    TaskResult,
    create_backend,
    resolve_backend,
)
from repro.runner.backends import LAZY as _LAZY
from repro.runner.cache import CacheStats, ResultCache, default_cache_dir
from repro.runner.hashing import canonical_params, code_version, point_key
from repro.runner.sweep import (
    FAILED,
    Campaign,
    CampaignResult,
    CircuitOpenError,
    FailureReport,
    PointOutcome,
    Progress,
    RetryPolicy,
    Sweep,
    SweepPointError,
    SweepResult,
    run_campaign,
    run_sweep,
    stamp_points,
)

__all__ = [
    "BACKENDS",
    "CacheStats",
    "Campaign",
    "CampaignResult",
    "ChaosBackend",
    "ChaosFault",
    "ChaosSpec",
    "CircuitOpenError",
    "ExecutionBackend",
    "FAILED",
    "FailureReport",
    "PointOutcome",
    "PointTimeout",
    "ProcessBackend",
    "Progress",
    "ResultCache",
    "RetryPolicy",
    "SerialBackend",
    "Sweep",
    "SweepPointError",
    "SweepResult",
    "TaskResult",
    "canonical_params",
    "code_version",
    "create_backend",
    "default_cache_dir",
    "point_key",
    "resolve_backend",
    "run_campaign",
    "run_sweep",
    "stamp_points",
]


def __getattr__(name: str):  # backend classes load on first use
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
