"""Deterministic fault injection around any execution backend.

The :class:`ChaosBackend` wraps an inner backend and injects faults
into point evaluation at configurable rates: transient **exceptions**
(:class:`ChaosFault`), **hangs** (a sleep long enough to trip the
per-point timeout, when one is set), and **worker crashes** (a real
``SIGKILL`` of the evaluating worker — only where the inner backend can
heal from one, i.e. the process pool; elsewhere the kill is
downgraded to an exception).  It exists as the test substrate for the
runner's fault-tolerance layer: retries, timeouts, the circuit breaker
and the pool's self-healing are all proven against it, in tests and in
the CI ``chaos-matrix`` job.

Every decision is **seeded and deterministic**: whether a point is
faulty is a pure function of ``(seed, canonical params, channel)``, and
whether a triggered fault *persists* at a given retry attempt is
governed by ``sticky``:

* ``sticky = 1`` (default) — transient: the fault fires on the first
  attempt and deterministically clears on the first retry, so a run
  with ``retries >= 1`` converges to results byte-identical to the
  failure-free run;
* ``sticky = k`` — the fault survives ``k`` attempts;
* ``sticky = -1`` (``"permanent"``) — the fault never clears: the
  quarantine / circuit-breaker paths.

The wrapper reaches the process pool's workers as an import-token
:data:`~repro.runner.backends.process.WrapSpec` (the pool's tasks never
pickle callables); around any other backend it wraps the point function
in place.  Crash injection folds the pool's batch ``requeue`` count
into the attempt, so a transient crash kills a worker exactly once and
the requeued batch survives.

CLI: ``python -m repro sweep NAME --chaos "fail=0.2,seed=7" --retries 2``
(see :func:`ChaosSpec.parse` for the accepted keys).
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
import time
from dataclasses import asdict, dataclass
from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.runner.backends.base import (
    MAIN_PID,
    ExecutionBackend,
    PointFn,
    TaskResult,
)
from repro.runner.hashing import canonical_params

__all__ = [
    "ChaosBackend",
    "ChaosFault",
    "ChaosSpec",
    "chaos_wrap",
    "decide",
]

class ChaosFault(RuntimeError):
    """An injected (synthetic) point failure."""


@dataclass(frozen=True)
class ChaosSpec:
    """Fault rates and determinism knobs for one chaos profile.

    Rates are independent per-point probabilities in ``[0, 1]``; when a
    point draws several channels, the most severe one wins
    (crash > hang > fail).
    """

    fail: float = 0.0    #: transient-exception probability
    hang: float = 0.0    #: hang (sleep) probability
    crash: float = 0.0   #: worker SIGKILL probability
    hang_s: float = 0.5  #: injected hang duration, seconds
    seed: int = 0        #: decision seed
    sticky: int = 1      #: attempts a fault persists; -1 = permanent

    def __post_init__(self) -> None:
        for channel in ("fail", "hang", "crash"):
            rate = getattr(self, channel)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"chaos {channel} rate must be in [0, 1], got {rate}")
        if not (math.isfinite(self.hang_s) and self.hang_s > 0):
            raise ValueError(
                f"chaos hang_s must be positive finite, got {self.hang_s}"
            )
        if self.sticky == 0 or self.sticky < -1:
            raise ValueError(
                f"chaos sticky must be a positive attempt count or -1 "
                f"(permanent), got {self.sticky}"
            )

    @property
    def active(self) -> bool:
        """Any fault channel armed (fail/hang/crash)."""
        return (self.fail or self.hang or self.crash) != 0.0

    @staticmethod
    def parse(arg: str) -> "ChaosSpec":
        """Parse the CLI's ``--chaos`` profile string.

        Comma-separated ``key=value`` pairs over the dataclass fields,
        e.g. ``"fail=0.2,hang=0.05,seed=7"`` or
        ``"fail=0.5,sticky=permanent"``.
        """
        kwargs: dict[str, Any] = {}
        for part in filter(None, (p.strip() for p in arg.split(","))):
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(
                    f"bad chaos spec fragment {part!r}: expected key=value"
                )
            if key not in ChaosSpec.__dataclass_fields__:
                raise ValueError(
                    f"unknown chaos key {key!r}; known: "
                    f"{', '.join(ChaosSpec.__dataclass_fields__)}"
                )
            if key == "sticky" and value == "permanent":
                kwargs[key] = -1
            elif key in ("seed", "sticky"):
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        return ChaosSpec(**kwargs)


def _fraction(seed: int, params_json: str, channel: str) -> float:
    """A deterministic uniform draw in [0, 1) for one (point, channel)."""
    digest = hashlib.sha256(
        f"{seed}\0{params_json}\0{channel}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def decide(
    spec: ChaosSpec, params: Mapping[str, Any], attempt: int
) -> Optional[str]:
    """The fault channel injected for ``params`` at ``attempt``, if any.

    Whether a point is faulty depends only on ``(seed, params,
    channel)`` — not the attempt — so a faulty point is *the same*
    faulty point on every run.  ``sticky`` then decides whether the
    fault still fires at this attempt number.
    """
    if not spec.active:
        return None
    persists = spec.sticky < 0 or attempt < spec.sticky
    if not persists:
        return None
    params_json = canonical_params(params)
    for channel in ("crash", "hang", "fail"):  # most severe first
        if _fraction(spec.seed, params_json, channel) < getattr(spec, channel):
            return channel
    return None


class _ChaosWrapped:
    """A callable injecting faults around one point function.

    Built in place around the inner backend's point function, or
    worker-side from a :func:`chaos_wrap` token (the process pool).
    """

    def __init__(
        self, fn: PointFn, spec: ChaosSpec, attempt: int, kill: bool
    ) -> None:
        self.fn = fn
        self.spec = spec
        self.attempt = attempt
        self.kill = kill

    def __call__(self, params: Mapping[str, Any]) -> Any:
        channel = decide(self.spec, params, self.attempt)
        if channel == "crash":
            if self.kill and os.getpid() != MAIN_PID:
                os.kill(os.getpid(), signal.SIGKILL)  # a real worker death
            raise ChaosFault(
                f"injected worker crash (inline) for params {dict(params)!r}"
            )
        if channel == "hang":
            # A hang, not a failure: the point eventually completes with
            # the correct value unless a per-point timeout reaps it first.
            time.sleep(self.spec.hang_s)
        elif channel == "fail":
            raise ChaosFault(
                f"injected transient failure for params {dict(params)!r} "
                f"(attempt {self.attempt})"
            )
        return self.fn(params)


def chaos_wrap(
    fn: PointFn,
    *,
    requeue: int = 0,
    spec: Mapping[str, Any],
    attempt: int,
    kill: bool,
) -> PointFn:
    """Worker-side wrap factory (resolved by import token).

    ``requeue`` — how many times the executing batch was re-dispatched
    after a worker crash — advances the attempt count, which is what
    makes an injected *crash* transient: the requeued batch runs at
    ``attempt + 1`` and (under the default ``sticky=1``) passes.
    """
    return _ChaosWrapped(fn, ChaosSpec(**spec), attempt + requeue, kill)


class ChaosBackend:
    """An :class:`ExecutionBackend` injecting faults around another one.

    Construct with the inner backend (an instance or a registry name)
    and a :class:`ChaosSpec`.  The registry entry exists so ``chaos``
    shows up beside the real backends; a bare ``create_backend("chaos",
    jobs)`` wraps a serial inner with a no-fault spec — the CLI always
    builds it explicitly around the backend ``--jobs`` resolves to.
    """

    name = "chaos"

    def __init__(
        self,
        jobs: int = 1,
        inner: "ExecutionBackend | str | None" = None,
        spec: Optional[ChaosSpec] = None,
    ) -> None:
        from repro.runner.backends.base import create_backend

        if inner is None or isinstance(inner, str):
            inner = create_backend(inner or "serial", jobs=jobs)
        self.inner = inner
        self.spec = spec or ChaosSpec()
        self.jobs = getattr(inner, "jobs", jobs)

    def map(
        self,
        fn: PointFn,
        items: Sequence[Mapping[str, Any]],
        *,
        timeout: Optional[float] = None,
        attempt: int = 0,
    ) -> Iterator[TaskResult]:
        if not self.spec.active:
            yield from self.inner.map(
                fn, items, timeout=timeout, attempt=attempt
            )
            return
        # Real kills only where the inner pool heals from worker death.
        kill = bool(
            getattr(self.inner, "supports_wrap", False) and self.inner.jobs > 1
        )
        if getattr(self.inner, "supports_wrap", False):
            wrap = (
                __name__, "chaos_wrap",
                {"spec": asdict(self.spec), "attempt": attempt, "kill": kill},
            )
            yield from self.inner.map(fn, items, timeout=timeout, wrap=wrap)
        else:
            wrapped = _ChaosWrapped(fn, self.spec, attempt, kill)
            yield from self.inner.map(wrapped, items, timeout=timeout)

    def close(self) -> None:
        self.inner.close()

    def terminate(self) -> None:
        """Abort path: forward to the inner pool's immediate teardown
        where it has one, else its ordinary close."""
        terminate = getattr(self.inner, "terminate", None)
        (terminate or self.inner.close)()

    def __enter__(self) -> "ChaosBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
