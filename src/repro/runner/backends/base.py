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

import contextlib
import importlib
import os
import signal
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
    TYPE_CHECKING,
    runtime_checkable,
)

if TYPE_CHECKING:
    import multiprocessing.context

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

    Raised *inside* the evaluating process by the ``SIGALRM`` guard in
    :func:`run_one`, so it is captured like any other point failure —
    an errored :class:`TaskResult` whose traceback names this class —
    and the retry layer above can treat timeouts as transient faults.
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
        pool enforces it inside its workers (``SIGALRM``), the serial
        backend cannot preempt inline code and ignores it.
        ``attempt`` is the retry round the orchestrator is on (0 for
        the first pass); plain backends ignore it — it exists so the
        chaos wrapper can make injected faults *transient* (a fault
        triggered on attempt 0 deterministically clears on a retry).
        """
        ...

    def close(self) -> None:
        """Release any long-lived resources (worker pools)."""
        ...


def _alarm_handler(signum, frame):  # pragma: no cover - trivial
    raise PointTimeout("point exceeded its wall-clock timeout")


def run_one(
    fn: PointFn, params: Mapping[str, Any], timeout: Optional[float] = None
) -> TaskResult:
    """Evaluate one point inline, capturing failure as a result.

    The shared serial building block: the serial backend, the process
    pool's workers and its inline fallback (``jobs <= 1`` or an
    unshippable function) all route through here, so error capture is
    identical everywhere.

    ``timeout`` (pooled workers only — the caller decides) arms a
    ``SIGALRM`` interval timer around the evaluation; an expiry raises
    :class:`PointTimeout`, captured like any other point failure.  The
    guard is skipped entirely when ``timeout`` is ``None``, keeping the
    failure-free default path byte-identical to the historic one, and
    is only effective in a process's main thread on platforms with
    ``setitimer`` (everywhere this repository targets).

    The guard is a save/restore bracket around ``SIGALRM``: a handler
    someone else installed before this call is put back afterwards, and
    a pending alarm they had armed is re-armed with whatever time it had
    left (floored at a tick so an alarm that would have fired during the
    point still fires promptly).  A point function is therefore free to
    run its own ``signal.alarm`` brackets — the guard re-checks the
    installed handler per point instead of trusting a sticky install —
    with the one unavoidable caveat that the user's alarm and the guard
    share the single ``ITIMER_REAL`` timer, so whichever was armed last
    wins for the remainder of that point.  The common case (consecutive
    guarded points, nothing else touching ``SIGALRM``) pays one
    ``getsignal`` and two ``setitimer`` calls, staying inside the retry
    layer's <5 % dispatch-overhead budget on batches of cheap points.
    """
    start = time.perf_counter()
    armed = False
    displaced_handler: Any = None
    restore_handler = False
    remaining = 0.0
    try:
        if timeout is not None and hasattr(signal, "setitimer"):
            try:
                displaced_handler = signal.getsignal(signal.SIGALRM)
                if displaced_handler is not _alarm_handler:
                    signal.signal(signal.SIGALRM, _alarm_handler)
                    restore_handler = True
                remaining = signal.setitimer(signal.ITIMER_REAL, timeout)[0]
                armed = True
            except ValueError:
                pass  # not the main thread: run unguarded
        try:
            value = fn(params)
        finally:
            if armed:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                if restore_handler:
                    signal.signal(signal.SIGALRM, displaced_handler)
                if remaining > 0.0:
                    elapsed = time.perf_counter() - start
                    signal.setitimer(
                        signal.ITIMER_REAL, max(remaining - elapsed, 1e-4)
                    )
    except Exception as exc:  # isolate the point, keep the sweep alive
        if isinstance(exc, PointTimeout):
            error = (
                f"PointTimeout: point exceeded the {timeout:g}s wall-clock "
                f"timeout\nparams: {dict(params)!r}\n"
            )
        else:
            error = traceback.format_exc()
        return TaskResult(
            value=None,
            seconds=time.perf_counter() - start,
            error=error,
            exception=exc,
        )
    return TaskResult(value=value, seconds=time.perf_counter() - start)


def pool_context() -> multiprocessing.context.BaseContext:
    """The process pool's start method: ``fork`` where available (no
    re-import cost, monkeypatched modules and pytest-loaded benchmark
    modules survive into workers), the platform default elsewhere.  The
    parent loads the simulation stack lazily (experiments import it in
    their point functions), so this one fork point loads it for every
    worker to inherit."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context(None)
    import repro.engine  # noqa: F401

    return multiprocessing.get_context("fork")


@contextlib.contextmanager
def sigterm_held() -> Iterator[None]:
    """Hold SIGTERM in the calling thread while it forks pool workers.

    See :func:`default_worker_signals`: a worker is born with SIGTERM
    blocked and unblocks it only after restoring the default action.
    A SIGTERM aimed at the parent meanwhile stays pending and is
    delivered when the block ends.
    """
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def default_worker_signals() -> None:
    """Signal rule for every worker the process pool forks: SIGTERM kills.

    A forked worker inherits its parent's handlers, and the CLI's
    ``sweep`` installs a SIGTERM handler that *raises*.  The pool stops
    its workers with SIGTERM (``ProcessBackend.terminate``).  A raising
    handler can unwind a worker between acquiring and releasing its
    task queue's lock, or run inside an after-fork hook that prints
    and drops the exception, so the worker lives on; either way a
    worker is left blocked forever and the parent's ``join`` with it.

    So the parent forks with SIGTERM held (:func:`sigterm_held`), and
    each worker restores the default action and then unblocks SIGTERM
    before it runs a point; a SIGTERM that arrived in between kills it
    right there.  The parent's handler stays in the parent.  SIGINT is
    left alone: the CLI installs no SIGINT handler, and a terminal's
    Ctrl-C reaching the workers is the interrupt path it already
    handles.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


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
