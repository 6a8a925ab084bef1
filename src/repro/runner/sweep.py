"""The declarative sweep runner.

A :class:`Sweep` is a named list of parameter *points* plus a pure
per-point function; a :class:`Campaign` is an ordered collection of
sweeps (one experiment module may expose several, e.g. the LU study).
:func:`run_sweep` consults the content-addressed result cache first,
fans the remaining points out over an execution backend
(:mod:`repro.runner.backends` — inline or a warm worker pool),
streams ordered progress back through a callback
as each point resolves, and hands the ordered point results to the
sweep's ``aggregate`` hook to build the experiment's published rows.

Design rules the experiment modules follow:

* **points are data** — JSON-able mappings of scalars, so they hash
  stably (:mod:`repro.runner.hashing`) and cross process boundaries;
* **the point function is pure and top-level** — it rebuilds platform /
  workload objects from the point's parameters, returns JSON-able
  values, and is importable by reference for the pooled backends;
* **aggregation is deterministic in point order** — results are always
  delivered to ``aggregate`` in declaration order, so serial, pooled
  and cached runs produce byte-identical rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runner.backends import ExecutionBackend, resolve_backend
from repro.runner.cache import ResultCache
from repro.runner.hashing import code_version, point_key

__all__ = [
    "Campaign",
    "CampaignResult",
    "CircuitOpenError",
    "FAILED",
    "FailureReport",
    "PointOutcome",
    "Progress",
    "RetryPolicy",
    "Sweep",
    "SweepPointError",
    "SweepResult",
    "run_campaign",
    "run_sweep",
    "stamp_points",
]


def stamp_points(
    points: Sequence[Mapping[str, Any]], **common: Any
) -> Tuple[Mapping[str, Any], ...]:
    """Stamp shared knob values into every point of a sweep.

    The uniform way cross-cutting knobs reach the points: experiment
    declarations stamp the simulation ``engine``.  The knob lands
    in each point mapping, so it reaches the pure per-point function,
    participates in the cache key, and crosses process boundaries like
    any other parameter.  ``None`` values are skipped (knob not
    applicable / leave the per-point default).
    """
    common = {k: v for k, v in common.items() if v is not None}
    if not common:
        return tuple(points)
    return tuple({**p, **common} for p in points)


PointFn = Callable[[Mapping[str, Any]], Any]
AggregateFn = Callable[[List[Any]], Any]


@dataclass(frozen=True)
class RetryPolicy:
    """The sweep runner's fault-tolerance knobs.

    The default-constructed policy is **inert**: no retries, no
    timeout, no breaker — and, by design, byte-invisible (an inert
    policy makes :func:`run_sweep` issue exactly the same backend
    calls, cache keys, and cache records as a build without the
    retry layer at all).

    Attributes:
        retries: extra attempts per failed point (0 = fail fast).
        backoff: base delay before retry round 1, seconds; round ``r``
            waits ``backoff * 2**(r-1)``, capped at ``backoff_cap``.
        backoff_cap: upper bound on any single round's delay.
        jitter: fraction of the delay randomized *downward* —
            deterministically, seeded by ``(seed, sweep, round)`` — so
            reruns sleep identical amounts while distinct sweeps
            desynchronize.
        seed: jitter seed.
        timeout: per-point wall-clock limit, seconds, enforced only in
            pool workers, which own their ``SIGALRM`` (see
            :mod:`repro.runner.backends.process` and ``docs/runner.md``);
            a point run in the calling process is never interrupted.
            A timed-out point fails with a ``PointTimeout`` error and
            is retried like any other failure.
        max_failures: circuit breaker — abort the whole sweep with a
            :class:`CircuitOpenError` (carrying a structured
            :class:`FailureReport`) as soon as this many points have
            *permanently* failed, i.e. exhausted their retry budget
            under ``on_error="keep"``.  ``None`` disables the breaker.
    """

    retries: int = 0
    backoff: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    timeout: Optional[float] = None
    max_failures: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("backoff", "backoff_cap", "jitter", "seed", "timeout"):
            if type(getattr(self, name)) is bool:
                raise ValueError(f"{name} must be a number, not a bool")
        if not (type(self.retries) is int and self.retries >= 0):
            raise ValueError(f"retries must be an int >= 0, got {self.retries!r}")
        if not (0 <= self.backoff < math.inf and 0 <= self.backoff_cap < math.inf):
            raise ValueError("backoff and backoff_cap must be finite and >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.timeout is not None and not (
            math.isfinite(self.timeout) and self.timeout > 0
        ):
            raise ValueError(
                f"timeout must be positive finite, got {self.timeout}"
            )
        if self.max_failures is not None and not (
            type(self.max_failures) is int and self.max_failures >= 1
        ):
            raise ValueError(
                f"max_failures must be an int >= 1, got {self.max_failures!r}"
            )

    @property
    def active(self) -> bool:
        """Whether any knob departs from the inert default."""
        return bool(
            self.retries or self.timeout is not None
            or self.max_failures is not None
        )

    def delay(self, round_no: int, token: str = "") -> float:
        """Seconds to sleep before retry round ``round_no`` (1-based).

        Exponential in the round, capped, with deterministic jitter:
        the same ``(seed, token, round)`` always sleeps the same
        amount, so retried runs stay reproducible end to end.
        """
        try:  # exact backoff * 2**(r-1), without overflowing 2.0**(r-1)
            base = min(math.ldexp(self.backoff, round_no - 1), self.backoff_cap)
        except OverflowError:
            base = self.backoff_cap
        if base <= 0 or not self.jitter:
            return max(base, 0.0)
        digest = hashlib.sha256(
            f"{self.seed}\0{token}\0{round_no}".encode()
        ).digest()
        frac = int.from_bytes(digest[:8], "big") / 2.0**64
        return base * (1.0 - self.jitter * frac)


@dataclass(frozen=True)
class FailureReport:
    """What the circuit breaker knew when it opened.

    ``failures`` holds one mapping per permanently failed point:
    ``{"params": {...}, "error": <summary line>, "attempts": n}``.
    ``resolved`` counts points with final outcomes (cached, computed,
    or failed) at trip time — the rest of the sweep was abandoned.
    """

    sweep: str
    total: int
    resolved: int
    max_failures: int
    failures: Tuple[Mapping[str, Any], ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sweep": self.sweep,
            "total": self.total,
            "resolved": self.resolved,
            "max_failures": self.max_failures,
            "failures": [dict(f) for f in self.failures],
        }

    def render(self) -> str:
        lines = [
            f"sweep {self.sweep!r}: circuit breaker opened after "
            f"{len(self.failures)} permanent point failure(s) "
            f"(max-failures={self.max_failures}); "
            f"{self.resolved}/{self.total} points resolved before abort"
        ]
        for failure in self.failures:
            lines.append(
                f"  - params={failure['params']!r} "
                f"attempts={failure['attempts']}: {failure['error']}"
            )
        return "\n".join(lines)


class CircuitOpenError(RuntimeError):
    """Too many permanent point failures — the sweep was aborted.

    Raised by :func:`run_sweep` when :attr:`RetryPolicy.max_failures`
    is reached; carries the structured :class:`FailureReport` as
    ``.report``.
    """

    def __init__(self, report: FailureReport):
        self.report = report
        super().__init__(report.render())


def _error_summary(error: Optional[str]) -> str:
    """One informative line out of a worker's error text.

    Tracebacks end with ``ExceptionType: message``; the runner's own
    synthesized errors (timeouts, dead workers) lead with it.
    """
    lines = [l for l in (error or "").strip().splitlines() if l.strip()]
    if not lines:
        return "unknown error"
    return lines[-1] if lines[0].startswith("Traceback") else lines[0]


class SweepPointError(RuntimeError):
    """A sweep point raised and the ``on_error="raise"`` policy is active.

    Carries the failing sweep/params and the worker's formatted
    traceback; the original exception object is chained (``__cause__``)
    when the point ran in-process.
    """

    def __init__(self, sweep: str, params: Mapping[str, Any], error: str):
        self.sweep = sweep
        self.params = dict(params)
        self.error = error
        super().__init__(
            f"point {self.params!r} of sweep {sweep!r} failed:\n{error}"
        )


def _normalize(value: Any) -> Any:
    """JSON-round-trip a computed value so it matches its cached shape.

    Cached points come back from disk JSON-decoded (tuples as lists,
    non-string dict keys as strings); normalizing fresh results the
    same way keeps cold, warm, and partially-warm runs byte-identical.
    Values outside JSON (only possible in cache-less library use) pass
    through untouched.
    """
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError):
        return value


#: Placeholder for a failed point's slot in the values an aggregate
#: sees under ``on_error="keep"`` — a sentinel rather than ``None`` so
#: a point function that legitimately returns ``None`` is never
#: confused with a failure.
FAILED = object()


def _concat(values: List[Any]) -> Any:
    """Default aggregation: concatenate list results, else keep the list.

    :data:`FAILED` holes (failed points under ``on_error="keep"``) are
    dropped; successful rows — including legitimate ``None`` results —
    still publish.
    """
    values = [v for v in values if v is not FAILED]
    if values and all(isinstance(v, list) for v in values):
        rows: List[Any] = []
        for v in values:
            rows.extend(v)
        return rows
    return list(values)


@dataclass(frozen=True)
class Sweep:
    """A named set of points evaluated by one pure function.

    Attributes:
        name: cache namespace and progress label (e.g. ``"fig10"``).
        run_fn: top-level pure function mapping one point's parameters
            to a JSON-able result.
        points: the parameter mappings, in publication order.
        aggregate: combines the ordered point results into the
            experiment's rows; defaults to list concatenation.
        title: heading used when the CLI prints the aggregated table.
    """

    name: str
    run_fn: PointFn
    points: Tuple[Mapping[str, Any], ...]
    aggregate: Optional[AggregateFn] = None
    title: Optional[str] = None

    def rows(self, values: List[Any]) -> Any:
        """Aggregated rows for point results ``values`` (in order)."""
        return (self.aggregate or _concat)(values)


@dataclass(frozen=True)
class Campaign:
    """An ordered collection of sweeps run and reported together."""

    name: str
    sweeps: Tuple[Sweep, ...]


@dataclass(frozen=True)
class Progress:
    """One progress event, streamed as each point resolves (in order)."""

    sweep: str
    index: int
    total: int
    params: Mapping[str, Any]
    cached: bool
    seconds: float
    status: str = "ok"


@dataclass(frozen=True)
class PointOutcome:
    """A resolved point: parameters, cache key (empty string when run
    without a cache), value, provenance.

    ``status`` is ``"ok"``, ``"error"``, or ``"quarantined"``.  Errored
    points (only possible under ``on_error="keep"``) carry the worker
    traceback in ``error``, a ``None`` value, and are never written to
    the cache — a later ``--resume`` run re-computes exactly those,
    *except* points the cache has quarantined as known-permanent
    failures: those resolve as ``status="quarantined"`` without being
    computed (pass ``retry_quarantined=True`` to opt back in).
    """

    params: Mapping[str, Any]
    key: str
    value: Any
    cached: bool
    seconds: float
    status: str = "ok"
    error: Optional[str] = None


@dataclass
class SweepResult:
    """Everything :func:`run_sweep` learned about one sweep.

    ``shards`` counts the distinct cache segments the run's
    fresh results landed in (0 when running cache-less); it feeds the
    CLI's ``[S shards]`` summary suffix.
    """

    name: str
    outcomes: List[PointOutcome] = field(default_factory=list)
    rows: Any = None
    elapsed: float = 0.0
    title: Optional[str] = None
    shards: int = 0

    @property
    def hits(self) -> int:
        """Points served from the cache."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def errors(self) -> int:
        """Points that failed (kept under ``on_error="keep"``)."""
        return sum(1 for o in self.outcomes if o.status == "error")

    @property
    def quarantined(self) -> int:
        """Points skipped as known-permanent failures on resume."""
        return sum(1 for o in self.outcomes if o.status == "quarantined")

    @property
    def misses(self) -> int:
        """Points actually computed this run (successfully or not)."""
        return len(self.outcomes) - self.hits - self.quarantined


@dataclass
class CampaignResult:
    """Ordered sweep results plus campaign-level totals."""

    name: str
    sweeps: List[SweepResult] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self.sweeps)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self.sweeps)

    @property
    def errors(self) -> int:
        return sum(s.errors for s in self.sweeps)

    @property
    def quarantined(self) -> int:
        return sum(s.quarantined for s in self.sweeps)

    @property
    def shards(self) -> int:
        return sum(s.shards for s in self.sweeps)

    @property
    def elapsed(self) -> float:
        return sum(s.elapsed for s in self.sweeps)

    @property
    def tables(self) -> dict:
        """Sweep name → aggregated rows."""
        return {s.name: s.rows for s in self.sweeps}


def _map(
    backend: ExecutionBackend,
    fn: PointFn,
    items: Sequence[Mapping[str, Any]],
    timeout: Optional[float],
    attempt: int,
):
    """Dispatch to the backend, invisibly when fault tolerance is off.

    With no timeout and attempt 0 the call is *argument-identical* to
    the pre-fault-tolerance runner — the byte-invisibility guarantee:
    a failure-free default run issues exactly the historic backend
    calls (so third-party backends without the new keywords keep
    working, and nothing about dispatch order or results can shift).
    """
    if timeout is None and attempt == 0:
        return backend.map(fn, items)
    return backend.map(fn, items, timeout=timeout, attempt=attempt)


def _close(computed) -> None:
    """Close a backend result generator, if it is one."""
    close = getattr(computed, "close", None)
    if close is not None:
        close()


@dataclass
class _SweepRun:
    """One sweep's mutable state while :func:`run_sweep` drives it."""

    sweep: Sweep
    cache: Optional[ResultCache]
    progress: Optional[Callable[[Progress], None]]
    on_error: str
    policy: RetryPolicy
    keys: List[str]  # "" for every point when running cache-less
    # each point's final outcome (None until it has one); resolve() fills it
    resolved: List[Optional[PointOutcome]] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)  # permanent
    retrying: List[int] = field(default_factory=list)  # the next round's points

    def resolve(self, resume: bool, retry_quarantined: bool) -> List[int]:
        """Resolve quarantined and cached points; return the rest."""
        cache, name = self.cache, self.sweep.name
        quarantined = (  # resume=True comes with a cache
            cache.quarantined(name) if resume and not retry_quarantined else {}
        )
        for params, key in zip(self.sweep.points, self.keys):
            outcome = None
            if key in quarantined:
                # A known-permanent failure from a previous run: resolve it
                # as quarantined instead of burning its full retry budget
                # again.  --retry-quarantined opts back in.
                outcome = PointOutcome(
                    params, key, None, False, 0.0,
                    status="quarantined", error=quarantined[key].get("error"),
                )
            elif cache:
                value, hit = cache.get(name, key)
                if hit:
                    outcome = PointOutcome(params, key, value, True, 0.0)
            self.resolved.append(outcome)
        return [idx for idx, outcome in enumerate(self.resolved) if outcome is None]

    def emit(self, idx: int, status: str, seconds: float, cached: bool = False) -> None:
        if self.progress:
            self.progress(
                Progress(
                    sweep=self.sweep.name,
                    index=idx,
                    total=len(self.keys),
                    params=self.sweep.points[idx],
                    cached=cached,
                    seconds=seconds,
                    status=status,
                )
            )

    def accept(self, idx: int, task, attempt: int) -> None:
        """Store, requeue or fail point ``idx`` after attempt ``attempt``.

        The runner's crash-consistency rule: a point's cache put
        happens before its progress event, so every point a user has
        seen reported survives a kill and is never recomputed by
        ``--resume``.
        """
        params, key = self.sweep.points[idx], self.keys[idx]
        if task.error is None:
            value = _normalize(task.value)
            if self.cache:
                self.cache.put(self.sweep.name, key, params, value)
            self.resolved[idx] = PointOutcome(params, key, value, False, task.seconds)
            self.emit(idx, "ok", task.seconds)
        elif attempt < self.policy.retries:
            self.retrying.append(idx)
            self.emit(idx, "retry", task.seconds)
        elif self.on_error == "raise":
            raise SweepPointError(
                self.sweep.name, params, task.error
            ) from task.exception
        else:
            self.resolved[idx] = PointOutcome(
                params, key, None, False, task.seconds,
                status="error", error=task.error,
            )
            error = _error_summary(task.error)
            if self.cache and self.policy.retries > 0:
                # The point failed every attempt of an explicit retry
                # budget: quarantine it so resumes stop paying for it.
                # (Without a retry policy nothing is journalled — failed
                # points stay uncached and resume recomputes them, the
                # historic behaviour.)
                self.cache.quarantine(self.sweep.name, key, params, error)
            self.failures.append(
                {"params": dict(params), "error": error, "attempts": attempt + 1}
            )
            self.emit(idx, "error", task.seconds)
            limit = self.policy.max_failures
            if limit is not None and len(self.failures) >= limit:
                raise CircuitOpenError(
                    FailureReport(
                        sweep=self.sweep.name,
                        total=len(self.keys),
                        resolved=sum(1 for o in self.resolved if o is not None),
                        max_failures=limit,
                        failures=tuple(self.failures),
                    )
                )

    def next_round(self, round_no: int) -> Tuple[List[int], float]:
        """The points queued for retry round ``round_no``, and its delay."""
        queued, self.retrying = self.retrying, []
        return queued, self.policy.delay(round_no, self.sweep.name)

    def finish(self, start: float) -> SweepResult:
        """The sweep's result, aggregated in declaration order."""
        result = SweepResult(
            name=self.sweep.name,
            outcomes=self.resolved,
            title=self.sweep.title,
            shards=len({o.key[:2] for o in self.resolved
                        if o.key and not o.cached and o.status == "ok"}),
        )
        # Aggregates are positional, so they always see the full-length
        # values list — failed points (on_error="keep") appear as the
        # :data:`FAILED` sentinel in their slots rather than silently
        # shifting later values into earlier ones.  The default aggregation
        # drops the holes; a custom aggregate that cannot digest them falls
        # back to the successful values unaggregated (a partial sweep has
        # no trustworthy table).
        values = [
            o.value if o.status == "ok" else FAILED for o in result.outcomes
        ]
        try:
            result.rows = self.sweep.rows(values)
        except Exception:
            if not (result.errors or result.quarantined):
                raise
            result.rows = [v for v in values if v is not FAILED]
        result.elapsed = time.perf_counter() - start
        return result


def run_sweep(
    sweep: Sweep,
    jobs: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[Progress], None] | None = None,
    code: str | None = None,
    backend: ExecutionBackend | str | None = None,
    resume: bool = False,
    on_error: str = "raise",
    retry: RetryPolicy | None = None,
    retry_quarantined: bool = False,
) -> SweepResult:
    """Evaluate every point of ``sweep``, cheapest source first.

    Args:
        sweep: the declaration to run.
        jobs: worker processes for the cache-miss points (1 = inline).
        cache: result cache, or ``None`` to recompute everything and
            write nothing (the default — library callers like the
            experiments' ``run()`` helpers stay side-effect free).
        progress: callback streamed one event per point, in point
            order, as each point resolves (cached points immediately,
            computed points as the backend delivers them).
        code: code version for the cache keys; ``None`` resolves
            :func:`~repro.runner.hashing.code_version` once for this
            sweep (the CLI passes one version for the whole invocation).
        backend: execution backend — a registry name (``"serial"``,
            ``"process"``), an already-constructed
            :class:`~repro.runner.backends.ExecutionBackend` (the
            campaign path: pass one instance to keep pool workers
            warm across sweeps), or ``None``/``"auto"`` for the historic
            default (inline when ``jobs <= 1``, the pool otherwise).
        resume: skip the points the cache has quarantined as
            known-permanent failures (see ``retry_quarantined``).  Every
            run, resumed or not, loads the points the cache holds and
            computes the rest — the tail a killed run never wrote, or
            failed points, which are never cached.  Requires ``cache``.
        on_error: ``"raise"`` (default) re-raises the first failing
            point as :class:`SweepPointError`; ``"keep"`` records the
            failure as a ``status="error"`` outcome and keeps the
            sweep running.  Aggregation then sees the failed points as
            :data:`FAILED` sentinel holes in their original positions
            (the default aggregation drops them; a custom aggregate
            that raises on the holes yields the successful values
            unaggregated).
        retry: the :class:`RetryPolicy` — bounded per-point retries
            with deterministic backoff, a per-point timeout, and the
            ``max_failures`` circuit breaker.  ``None`` (the default)
            is the inert policy: the runner behaves, byte for byte,
            as if the fault-tolerance layer did not exist.
        retry_quarantined: re-attempt the points the cache has
            quarantined instead of skipping them (a success clears the
            quarantine record).  Requires ``resume``.

    Point results reach ``sweep.aggregate`` in declaration order no
    matter which points were cached or which backend ran the rest, so
    the aggregated rows are identical across all execution modes.
    Retries change neither: a point that succeeds on attempt ``k``
    produces the same value, cache key, and cache record as one
    that succeeds on attempt 0, and results still stream in
    declaration order (a retried point simply resolves late, after a
    ``status="retry"`` progress event per failed attempt).
    """
    if resume and cache is None:
        raise ValueError("resume=True requires a cache")
    if retry_quarantined and not resume:
        raise ValueError("retry_quarantined=True requires resume=True")
    if on_error not in ("raise", "keep"):
        raise ValueError(f"on_error must be 'raise' or 'keep', got {on_error!r}")
    start = time.perf_counter()
    if cache and code is None:
        # Resolve the code version once per sweep: one cheap re-stat of
        # the package sources, and every point of the sweep is keyed
        # against the same snapshot.
        code = code_version()
    keys = (
        [point_key(sweep.name, p, code) for p in sweep.points]
        if cache else [""] * len(sweep.points)
    )
    policy = retry or RetryPolicy()
    run = _SweepRun(sweep, cache, progress, on_error, policy, keys)
    todo = run.resolve(resume, retry_quarantined)
    exec_backend, owned = resolve_backend(backend, jobs)
    computed = None
    try:
        for attempt in range(policy.retries + 1):
            if attempt:
                todo, delay = run.next_round(attempt)
                if not todo:
                    break
                if delay > 0:
                    time.sleep(delay)
                _close(computed)
            computed = _map(
                exec_backend, sweep.run_fn, [sweep.points[i] for i in todo],
                policy.timeout, attempt,
            )
            # Round 0 streams the whole sweep in declaration order, cached
            # and quarantined points in place; retry rounds walk the queue.
            for idx in todo if attempt else range(len(keys)):
                outcome = run.resolved[idx]
                if outcome is None:
                    run.accept(idx, next(computed), attempt)
                else:
                    run.emit(idx, outcome.status, outcome.seconds, outcome.cached)
    finally:
        _close(computed)  # tear down a mid-sweep pool on error paths
        if owned:
            exec_backend.close()
    return run.finish(start)


def run_campaign(
    campaign: Campaign,
    jobs: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[Progress], None] | None = None,
    code: str | None = None,
    backend: ExecutionBackend | str | None = None,
    resume: bool = False,
    on_error: str = "raise",
    retry: RetryPolicy | None = None,
    retry_quarantined: bool = False,
) -> CampaignResult:
    """Run every sweep of ``campaign`` in order; see :func:`run_sweep`.

    The backend is resolved **once** for the whole campaign, so a
    ``"process"`` spec keeps its warm workers (and their in-process
    memo caches) alive from sweep to sweep.  The retry policy (and its circuit breaker budget)
    applies per sweep.
    """
    exec_backend, owned = resolve_backend(backend, jobs)
    result = CampaignResult(name=campaign.name)
    try:
        for sweep in campaign.sweeps:
            result.sweeps.append(
                run_sweep(
                    sweep, jobs, cache, progress, code,
                    backend=exec_backend, resume=resume, on_error=on_error,
                    retry=retry, retry_quarantined=retry_quarantined,
                )
            )
    finally:
        if owned:
            exec_backend.close()
    return result
