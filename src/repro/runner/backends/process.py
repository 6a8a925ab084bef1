"""The process backend — one warm, self-healing worker pool.

One long-lived set of worker processes per backend instance, reused
across every ``map`` call (i.e. across all sweeps of a campaign and
across repeated campaigns in one session).  The workers are managed
directly, not through a ``multiprocessing.Pool``, so the pool can
*survive its own workers dying*:

* **function shipping** — tasks never pickle the point function.  Each
  task carries a ``(module, qualname)`` token; a worker resolves the
  token by import **once**, caches the callable in a per-process
  registry, and serves every later batch of any sweep using that
  function from the cache.  The parent verifies the token resolves back
  to the very callable it was given, so a closure, lambda or
  monkeypatched function silently falls back to inline execution
  instead of running the wrong code.
* **batching** — points are grouped into batches sized to a few batches
  per worker, amortising the per-task IPC round-trip that dominates
  cheap points.  Each worker holds at most two batches (one running,
  one prefetched) so a crash forfeits little; results are flattened
  back into strict input order.
* **failure isolation** — a worker wraps every point individually; a
  raising point yields an errored :class:`TaskResult` while the rest of
  the batch, the worker, and the pool live on.
* **self-healing** — the parent polls worker liveness (``exitcode``)
  while waiting for results.  A worker that dies (``kill -9``, OOM, a
  segfaulting extension) is respawned and its in-flight batches are
  requeued to the survivors, so an external kill costs only the points
  of the forfeited batches.  A batch that kills its worker repeatedly
  (:data:`MAX_BATCH_REQUEUES` exceeded) comes back as errored results
  instead of crash-looping the pool.  Each worker sends its results
  down a private pipe, written from its main thread with no lock: a
  worker killed mid-send tears only its own channel (the parent reads
  EOF and heals) and never blocks the survivors — a result queue
  shared by all workers would stay locked forever by a worker killed
  while writing.
* **worker signals** — this module owns the workers' signal policy
  (:func:`default_worker_signals`).  A worker owns ``SIGALRM`` for its
  whole life and arms a one-shot timer around each point of a batch
  run under a ``timeout`` (:func:`_timed`), so a hung point becomes an
  ordinary errored result, not a stuck sweep.  A point function
  running in a pool worker must not install a ``SIGALRM`` handler.

The pool starts on the first ``map`` that has points to compute, so a
fully cached run builds the backend without loading
``multiprocessing``.  Warm workers also keep in-process memo caches
(e.g. the robustness baseline lookup) from sweep to sweep.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import signal
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.runner.backends.base import PointFn, PointTimeout, TaskResult, run_one

if TYPE_CHECKING:
    import multiprocessing.context

__all__ = ["MAX_BATCH_REQUEUES", "ProcessBackend"]

Token = Tuple[str, str]  # (module, qualname)
#: A worker-side wrapper spec: factory token plus JSON-able kwargs.  The
#: worker resolves the factory by import and applies it to the resolved
#: point function (``factory(fn, requeue=n, **kwargs)``) — how the chaos
#: backend injects faults inside real workers without pickling closures.
WrapSpec = Tuple[str, str, Mapping[str, Any]]

#: Times a batch is re-dispatched after killing its worker before its
#: points are reported as errors instead (guards against a point that
#: deterministically crashes every process it touches).
MAX_BATCH_REQUEUES = 2

#: How often (seconds) the parent wakes from the result wait to poll
#: worker liveness.
_POLL_S = 0.05

#: Per-worker registry: token -> resolved point function.
_FN_CACHE: dict = {}
#: Test hook installed by the pool initializer; called on cache misses.
_RESOLVE_PROBE: Optional[Callable[[Token], None]] = None


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


def _alarm_handler(signum, frame):  # pragma: no cover - trivial
    raise PointTimeout()


def default_worker_signals() -> None:
    """Signal rule for every worker the pool forks: SIGTERM kills, and
    ``SIGALRM`` is the per-point timer (:func:`_timed`).

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

    The ``SIGALRM`` handler is installed here once, for the worker's
    whole life, replacing whatever the parent had (a fork does not
    inherit armed timers).
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if hasattr(signal, "setitimer"):
        signal.signal(signal.SIGALRM, _alarm_handler)
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


def _timed(fn: PointFn, timeout: float) -> PointFn:
    """``fn`` under a one-shot ``timeout``-second wall-clock timer.

    An expiry raises :class:`PointTimeout` out of ``fn``, which
    :func:`~repro.runner.backends.base.run_one` reports as the point's
    error; the outer ``try`` also catches an expiry that lands while
    the timer is being disarmed.
    """
    message = f"point exceeded the {timeout:g}s wall-clock timeout"

    def timed(params: Mapping[str, Any]) -> Any:
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                return fn(params)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        except PointTimeout:
            raise PointTimeout(message) from None

    return timed


def _init_worker(resolve_probe: Optional[Callable[[Token], None]]) -> None:
    """Worker start-up: the worker's signals, an empty function cache."""
    global _RESOLVE_PROBE
    default_worker_signals()
    _FN_CACHE.clear()
    _RESOLVE_PROBE = resolve_probe


def _resolve(token: Token) -> PointFn:
    """Import-resolve ``token``; memoized for the worker's lifetime."""
    fn = _FN_CACHE.get(token)
    if fn is None:
        if _RESOLVE_PROBE is not None:
            _RESOLVE_PROBE(token)
        module_name, qualname = token
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        fn = _FN_CACHE[token] = obj
    return fn


def apply_wrap(fn: PointFn, wrap: Optional[WrapSpec], requeue: int = 0) -> PointFn:
    """Apply a :data:`WrapSpec` to ``fn`` (identity when ``wrap`` is None).

    ``requeue`` is how many times the executing batch has already been
    re-dispatched after a worker crash; wrappers that model transient
    faults fold it into their attempt accounting.
    """
    if wrap is None:
        return fn
    module_name, qualname, kwargs = wrap
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj(fn, requeue=requeue, **kwargs)


def _run_batch(
    token: Token, batch: List[Mapping[str, Any]], options: Mapping[str, Any]
) -> List[Tuple[Any, float, Optional[str]]]:
    """Worker: evaluate one batch of points with the token's function.

    Every point is isolated; a resolution failure (module vanished
    between parent check and worker import) errors the whole batch but
    still returns results instead of raising through the pool.  The
    timer wraps outermost, so it also reaps a hang a wrapper injects.
    """
    try:
        fn = apply_wrap(
            _resolve(token), options.get("wrap"), options.get("requeue", 0)
        )
    except Exception:
        import traceback

        error = traceback.format_exc()
        return [(None, 0.0, error) for _ in batch]
    timeout = options.get("timeout")
    if timeout is not None and hasattr(signal, "setitimer"):
        fn = _timed(fn, timeout)
    out = []
    for params in batch:
        result = run_one(fn, params)
        out.append((result.value, result.seconds, result.error))
    return out


def _worker_main(inq, results, resolve_probe) -> None:
    """Worker process loop: serve batches until the ``None`` sentinel.

    The blocking ``get`` is bounded so the worker can notice it has
    been orphaned: a parent that is SIGKILLed never sends the sentinel,
    and a worker blocked forever on a dead queue leaks one process per
    crash.  Reparenting (``getppid`` changes) or a closed ``results``
    pipe is the exit signal.
    """
    import queue

    _init_worker(resolve_probe)
    parent = os.getppid()
    poll_s = float(os.environ.get("REPRO_WORKER_ORPHAN_POLL_S", "5.0"))
    while True:
        try:
            task = inq.get(timeout=poll_s)
        except queue.Empty:
            if os.getppid() != parent:
                break  # orphaned: the pool owner died without cleanup
            continue
        if task is None:
            break
        gen, batch_id, token, batch, options = task
        try:
            results.send((gen, batch_id, _run_batch(token, batch, options)))
        except OSError:
            break  # the parent closed its end: nobody is listening


def _token_for(fn: PointFn) -> Optional[Token]:
    """The importable address of ``fn``, or ``None`` when it has none.

    ``None`` (lambdas, closures, methods, monkeypatched replacements
    whose module attribute no longer is ``fn``) routes the call to the
    inline fallback.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        return None
    try:
        obj: Any = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except Exception:
        return None
    return (module, qualname) if obj is fn else None


class _Batch:
    """Parent-side bookkeeping for one dispatched batch."""

    __slots__ = ("id", "items", "requeues")

    def __init__(self, batch_id: int, items: List[Mapping[str, Any]]):
        self.id = batch_id
        self.items = items
        self.requeues = 0


class _Worker:
    """One managed worker process plus its private task queue and
    result pipe."""

    __slots__ = ("process", "inq", "results", "in_flight", "broken")

    def __init__(self, ctx, resolve_probe):
        self.inq = ctx.Queue()
        self.in_flight: List[_Batch] = []
        #: Set when the result pipe hit EOF or a torn message.
        self.broken = False
        self.results, sender = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.inq, sender, resolve_probe),
            daemon=True,
        )
        with sigterm_held():
            self.process.start()
        # Only the worker may hold the write end, so its death is EOF.
        sender.close()

    def alive(self) -> bool:
        return not self.broken and self.process.is_alive()

    def discard(self) -> None:
        """Reap the process and drop its channels."""
        if self.process.is_alive():
            self.process.kill()  # broken pipe, live process: no use
        self.process.join()
        self.results.close()


class ProcessBackend:
    """A warm, self-healing worker pool shared by every sweep of a session."""

    name = "process"
    #: The chaos backend probes this: wrappers travel as import tokens
    #: in the task options and are applied inside the real workers.
    supports_wrap = True

    def __init__(
        self,
        jobs: int = 1,
        batch_size: Optional[int] = None,
        resolve_probe: Optional[Callable[[Token], None]] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.batch_size = batch_size  # None: sized per map call
        self._resolve_probe = resolve_probe
        self._workers: List[_Worker] = []
        self._gen = 0  # map-call generation; stale results are discarded
        #: Workers respawned after unexpected deaths (observability/tests).
        self.respawns = 0

    # -- pool lifecycle -------------------------------------------------

    def _ensure_workers(self) -> None:
        while len(self._workers) < self.jobs:
            self._workers.append(_Worker(pool_context(), self._resolve_probe))

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (diagnostics and crash tests)."""
        return [
            w.process.pid for w in self._workers
            if w.process.pid is not None and w.alive()
        ]

    def close(self) -> None:
        """Shut the pool down; the next ``map`` would start a fresh one."""
        for worker in self._workers:
            try:
                worker.inq.put(None)
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join()
        self._drop_queues()

    def terminate(self) -> None:
        """Drop the pool *now*, abandoning any queued batches.

        The abort path: ``close()`` would first drain everything
        already submitted, which on an errored sweep means silently
        simulating the whole remainder before the failure surfaces.
        """
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join()
        self._drop_queues()

    def _drop_queues(self) -> None:
        for worker in self._workers:
            worker.results.close()
        self._workers = []

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ------------------------------------------------------

    def _batches(self, items: Sequence[Mapping[str, Any]]) -> List[_Batch]:
        """Slice ``items`` into order-preserving batches.

        Default size targets ~4 batches per worker — large enough to
        amortise IPC on cheap points, small enough that the tail of a
        sweep still load-balances across the pool (and that a crashed
        worker forfeits little).
        """
        size = self.batch_size or max(1, len(items) // (self.jobs * 4))
        return [
            _Batch(i // size, list(items[i : i + size]))
            for i in range(0, len(items), size)
        ]

    def _dispatch(self, worker: _Worker, batch: _Batch, token, options) -> None:
        worker.in_flight.append(batch)
        worker.inq.put(
            (self._gen, batch.id, token, batch.items,
             {**options, "requeue": batch.requeues})
        )

    def _heal(self, pending: List[_Batch], done: Dict[int, list]) -> None:
        """Respawn dead workers, requeueing whatever they were running.

        A batch that has already crashed :data:`MAX_BATCH_REQUEUES`
        workers is completed as errored results instead of re-dispatched
        — one poisonous point must not crash-loop the pool forever.
        """
        for idx, worker in enumerate(self._workers):
            if worker.alive():
                continue
            worker.discard()
            orphans, worker.in_flight = worker.in_flight, []
            self._workers[idx] = _Worker(pool_context(), self._resolve_probe)
            self.respawns += 1
            for batch in orphans:
                if batch.id in done:
                    continue  # its result raced in just before the death
                batch.requeues += 1
                if batch.requeues > MAX_BATCH_REQUEUES:
                    done[batch.id] = [
                        (None, 0.0,
                         f"worker died {batch.requeues} times while computing "
                         f"this batch (params: {dict(params)!r})")
                        for params in batch.items
                    ]
                else:
                    pending.insert(0, batch)

    def map(
        self,
        fn: PointFn,
        items: Sequence[Mapping[str, Any]],
        *,
        timeout: Optional[float] = None,
        attempt: int = 0,
        wrap: Optional[WrapSpec] = None,
    ) -> Iterator[TaskResult]:
        if not items:
            return
        token = _token_for(fn)
        if token is None or self.jobs <= 1:
            # Unshippable function, or nothing to fan out over: inline
            # is byte-identical and cheaper.  Wrappers still apply (the
            # chaos backend downgrades worker kills to exceptions here);
            # timeouts are not enforced inline, as with the serial
            # backend.
            inline_fn = apply_wrap(fn, wrap)
            for params in items:
                yield run_one(inline_fn, params)
            return
        from multiprocessing.connection import wait as wait_readable

        self._gen += 1
        gen = self._gen
        self._ensure_workers()
        options = {"timeout": timeout, "wrap": wrap}
        batches = self._batches(items)
        total_batches = len(batches)
        pending = list(batches)
        done: Dict[int, list] = {}  # batch id -> raw result triples
        next_out = 0  # next batch id to yield
        delivered = 0

        def fill_workers() -> None:
            # Each worker holds at most 2 batches: one running, one
            # prefetched — enough to hide the dispatch round-trip, small
            # enough that a crash forfeits little work.
            for worker in self._workers:
                while pending and len(worker.in_flight) < 2:
                    self._dispatch(worker, pending.pop(0), token, options)

        def receive() -> bool:
            """Read every result pipe that is ready; ``False`` when a
            worker's pipe broke or none spoke within the poll interval
            (time to check liveness)."""
            ready = wait_readable(
                [worker.results for worker in self._workers], _POLL_S
            )
            healthy = bool(ready)
            for worker in self._workers:
                if worker.results not in ready:
                    continue
                try:
                    rgen, batch_id, results = worker.results.recv()
                except (EOFError, OSError):
                    worker.broken = True  # died, maybe mid-message
                    healthy = False
                    continue
                if rgen != gen or batch_id in done:
                    continue  # stale generation or post-requeue duplicate
                done[batch_id] = results
                worker.in_flight = [
                    b for b in worker.in_flight if b.id != batch_id
                ]
            return healthy

        try:
            fill_workers()
            while next_out < total_batches:
                while next_out not in done:
                    if not receive():
                        self._heal(pending, done)
                    fill_workers()
                for value, seconds, error in done.pop(next_out):
                    delivered += 1  # before the yield: a close() while
                    # suspended there must count this result as served
                    yield TaskResult(value=value, seconds=seconds, error=error)
                next_out += 1
        except GeneratorExit:
            # Closed by the consumer.  After the final result the frame
            # is still suspended at its last yield, so a close() on a
            # fully-served sweep lands here too — and must leave the
            # warm pool alone.  Only a genuine mid-sweep abandonment
            # (error abort with work still queued) terminates the pool:
            # the queued batches must not silently run to completion.
            if delivered < len(items):
                self.terminate()
            raise
