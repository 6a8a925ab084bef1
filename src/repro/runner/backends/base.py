"""The execution-backend contract and registry.

An :class:`ExecutionBackend` turns a pure point function plus a list of
parameter mappings into an ordered stream of :class:`TaskResult`\\ s.
The sweep orchestrator (:mod:`repro.runner.sweep`) is the only caller;
it neither knows nor cares whether points ran inline or on the warm
worker pool — every backend obeys the same three rules:

* **order** — results are yielded in input order, lazily, so the
  orchestrator can stream progress while later points still compute;
* **isolation** — a point that raises is reported as a
  :class:`TaskResult` with ``error`` set (full traceback text), never
  as an exception that kills the rest of the sweep.  The orchestrator
  decides whether to re-raise (:func:`repro.runner.sweep.run_sweep`'s
  ``on_error`` policy);
* **purity** — the point function must be a top-level callable and the
  items JSON-able mappings, exactly the rules sweep declarations
  already follow.

:data:`BACKENDS` names every backend by the ``module:Class`` that
defines it; :func:`create_backend` imports that module on first use, so
a run pays only for the backends it builds.  A new backend plugs in
with one entry here, without touching the orchestrator.
"""

from __future__ import annotations

import importlib
import os
import time
import traceback
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "PointTimeout",
    "TaskResult",
    "create_backend",
    "resolve_backend",
]

PointFn = Callable[[Mapping[str, Any]], Any]

#: PID of the process that loaded the backend contract first: the
#: orchestrator, which every forked worker inherits it from.  Fault
#: injection must never SIGKILL it.
MAIN_PID = os.getpid()


class PointTimeout(Exception):
    """A point exceeded its per-point wall-clock timeout.

    Raised *inside* a pool worker by its ``SIGALRM`` handler
    (:mod:`repro.runner.backends.process`), so :func:`run_one` captures
    it like any other point failure — an errored :class:`TaskResult`
    whose error text names this class — and the retry layer above can
    treat timeouts as transient faults.
    """


@dataclass(frozen=True)
class TaskResult:
    """One evaluated point, as reported by a backend.

    ``error`` is ``None`` on success, otherwise the formatted traceback
    text from the worker (process boundaries cannot reliably ship the
    exception object itself).  ``exception`` carries the original
    exception where one is available in-process (serial backend and
    inline fallbacks) so the orchestrator can chain it when re-raising.
    """

    value: Any
    seconds: float
    error: Optional[str] = None
    exception: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the sweep orchestrator requires of an execution backend."""

    name: str

    def map(
        self,
        fn: PointFn,
        items: Sequence[Mapping[str, Any]],
        *,
        timeout: Optional[float] = None,
        attempt: int = 0,
    ) -> Iterator[TaskResult]:
        """Yield one :class:`TaskResult` per item, lazily, in order.

        ``timeout`` asks for a per-point wall-clock bound; the process
        pool enforces it inside its workers, which own ``SIGALRM`` for
        their whole life (see :mod:`repro.runner.backends.process`).
        The serial backend and the pool's inline fallback run points
        in the caller's process, never arm a timer and ignore it.
        ``attempt`` is the retry round the orchestrator is on (0 for
        the first pass); plain backends ignore it — it exists so the
        chaos wrapper can make injected faults *transient* (a fault
        triggered on attempt 0 deterministically clears on a retry).
        """
        ...

    def close(self) -> None:
        """Release any long-lived resources (worker pools)."""
        ...


def run_one(fn: PointFn, params: Mapping[str, Any]) -> TaskResult:
    """Evaluate one point inline, capturing failure as a result.

    The shared serial building block: the serial backend, the process
    pool's workers and its inline fallback (``jobs <= 1`` or an
    unshippable function) all route through here, so error capture is
    identical everywhere.  A :class:`PointTimeout` (raised only inside
    pool workers, whose timer wraps ``fn``) is reported as its message
    plus the point's params instead of a traceback.
    """
    start = time.perf_counter()
    try:
        value = fn(params)
    except Exception as exc:  # isolate the point, keep the sweep alive
        if isinstance(exc, PointTimeout):
            error = f"PointTimeout: {exc}\nparams: {dict(params)!r}\n"
        else:
            error = traceback.format_exc()
        return TaskResult(
            value=None,
            seconds=time.perf_counter() - start,
            error=error,
            exception=exc,
        )
    return TaskResult(value=value, seconds=time.perf_counter() - start)


#: name -> ``module:Class`` of the backend; classes take a ``jobs``
#: constructor arg and carry the same ``name``.
BACKENDS: Dict[str, str] = {
    "serial": "repro.runner.backends.serial:SerialBackend",
    "process": "repro.runner.backends.process:ProcessBackend",
    "chaos": "repro.runner.backends.chaos:ChaosBackend",
}


def create_backend(name: str, jobs: int = 1) -> ExecutionBackend:
    """Instantiate the backend named ``name``, importing its module.

    Raises ``ValueError`` for unknown names (the CLI turns that into
    exit code 2).
    """
    try:
        module, cls = BACKENDS[name].split(":")
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"available: {', '.join(sorted(BACKENDS))}"
        ) from None
    return getattr(importlib.import_module(module), cls)(jobs=jobs)


def resolve_backend(
    backend: "ExecutionBackend | str | None", jobs: int
) -> Tuple[ExecutionBackend, bool]:
    """Resolve a backend spec to ``(instance, owned)``.

    ``backend`` may be an instance (campaign-level reuse — the caller
    keeps ownership, so pool workers stay warm across sweeps), a
    registry name, or ``None``/``"auto"``, which preserves the historic
    default: inline execution for ``jobs <= 1``, the process pool
    otherwise.  ``owned`` tells the caller whether it must ``close()``
    the instance when done.
    """
    if backend is None or backend == "auto":
        name = "serial" if jobs <= 1 else "process"
        return create_backend(name, jobs), True
    if isinstance(backend, str):
        return create_backend(backend, jobs), True
    return backend, False
