"""Non-stationary platform scenarios.

The paper's experiments assume *stationary* star platforms: every
``c_i`` and ``w_i`` is a constant of the run.  Real clusters are not
stationary — Figure 11 itself documents a ~6 % run-to-run spread — so
this module introduces the :class:`Scenario`, a wrapper over a
:class:`~repro.platform.model.Platform` that makes the platform's
parameters *functions of time*:

* **time-varying rates** — each worker's ``c_i(t)`` and ``w_i(t)`` are
  piecewise-constant step timelines (:class:`StepTimeline`), expressed
  as multiplicative factors over the worker's base rates;
* **slowdown / dropout** — a scheduled instant from which a worker's
  rates are multiplied by a factor (a *dropout* is a slowdown by a very
  large factor: the worker still drains its in-flight work, glacially,
  so every simulation terminates and the update-count invariant holds);
* **background traffic** — scheduled intervals during which an external
  flow contends for the master's one-port resource, recorded in the
  trace as worker-0 communication intervals.

Cost model extension
--------------------
The stationary model charges ``blocks · c_i`` port seconds per transfer
and ``updates · w_i`` CPU seconds per phase.  Under a scenario, the
rate is **sampled at the instant the operation starts** — the port
grant time for transfers, the compute start time for phases — and held
for the operation's whole duration.  Steps therefore never split an
in-flight operation; a step taking effect at ``t`` applies to every
operation starting at or after ``t``.  This piecewise-constant
convention keeps both engines' timelines byte-identical (see
``docs/scenarios.md``) and is exact whenever steps are long relative to
individual transfers.

Both simulation engines read effective rates through
:meth:`Scenario.c_rate` / :meth:`Scenario.w_rate`, which evaluate
``base · factor`` through one shared table — identical float operations
on both backends, so traces stay byte-for-byte comparable.  An identity
scenario (all factors 1.0, no background) reproduces the stationary
trace exactly, because ``base * 1.0 == base`` in IEEE arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.platform.model import Platform

__all__ = [
    "DROPOUT_FACTOR",
    "BackgroundEvent",
    "Scenario",
    "StepTimeline",
]

#: Rate multiplier modelling a dropped-out worker.  Large enough that a
#: dropped worker contributes essentially nothing further, small enough
#: that the simulation still terminates with finite timestamps.
DROPOUT_FACTOR = 1e6


@dataclass(frozen=True)
class StepTimeline:
    """A piecewise-constant function of time.

    ``value_at(t)`` is ``values[i]`` for the largest ``times[i] <= t``.
    Breakpoints are strictly increasing and start at 0.0, so the
    function is total on ``t >= 0``.  A step at ``t`` applies to
    operations starting at exactly ``t``.
    """

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values) or not self.times:
            raise ValueError("times and values must be equal-length and non-empty")
        if self.times[0] != 0.0:
            raise ValueError(f"first breakpoint must be at t=0, got {self.times[0]}")
        for prev, nxt in zip(self.times, self.times[1:]):
            if not nxt > prev:
                raise ValueError(f"breakpoints must strictly increase: {self.times}")
        for v in self.values:
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"timeline values must be positive finite, got {v}")

    @property
    def is_identity(self) -> bool:
        """True for the constant-1.0 timeline (no variation)."""
        return self.values == (1.0,)

    def value_at(self, t: float) -> float:
        """The step value in effect at time ``t`` (>= 0)."""
        return self.values[bisect_right(self.times, t) - 1]

    def scaled_from(self, time: float, factor: float) -> "StepTimeline":
        """Multiply every value at or after ``time`` by ``factor``.

        Composable: successive slowdowns compound on the affected
        suffix.  Inserts a breakpoint at ``time`` when none exists.
        """
        times, values = list(self.times), list(self.values)
        i = bisect_right(times, time)
        if times[i - 1] == time:
            start = i - 1
        else:
            times.insert(i, time)
            values.insert(i, values[i - 1])
            start = i
        for j in range(start, len(values)):
            values[j] = values[j] * factor
        return StepTimeline(tuple(times), tuple(values))

    def set_from(self, time: float, value: float) -> "StepTimeline":
        """Pin the value from ``time`` onward (later steps are dropped)."""
        i = bisect_left(self.times, time)
        return StepTimeline(self.times[:i] + (time,), self.values[:i] + (value,))

    @staticmethod
    def constant(value: float = 1.0) -> "StepTimeline":
        """The timeline that is ``value`` everywhere."""
        return StepTimeline((0.0,), (value,))


@dataclass(frozen=True)
class BackgroundEvent:
    """One scheduled hold of the master's port by external traffic.

    The hold is requested at ``time`` and occupies the port for
    ``duration`` seconds once granted (it queues FIFO behind whatever
    transfer holds the port, exactly like a worker's request).
    """

    time: float
    duration: float
    label: str = "background"

    def __post_init__(self) -> None:
        if not 0 <= self.time < math.inf:
            raise ValueError(
                f"background event time must be finite and >= 0, got {self.time}"
            )
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ValueError(
                f"background duration must be positive finite, got {self.duration}"
            )


_IDENTITY = StepTimeline.constant(1.0)


class Scenario:
    """A platform plus its non-stationary behaviour over time.

    Immutable: the ``with_*`` builders return new scenarios, so presets
    compose fluently::

        sc = (Scenario.stationary(platform)
              .with_slowdown(worker=2, time=40.0, factor=3.0)
              .with_dropout(worker=3, time=90.0)
              .with_background(time=10.0, duration=5.0))

    Worker indices in the builder API are 1-based (matching
    :class:`~repro.platform.model.Worker.index`); the engine-facing
    ``c_rate``/``w_rate`` accessors take the engines' 0-based indices.
    """

    __slots__ = ("platform", "c_factors", "w_factors", "background", "name",
                 "_c_rates", "_w_rates")

    def __init__(
        self,
        platform: Platform,
        c_factors: Optional[Sequence[StepTimeline]] = None,
        w_factors: Optional[Sequence[StepTimeline]] = None,
        background: Sequence[BackgroundEvent] = (),
        name: str = "",
    ):
        p = platform.p
        c_factors = tuple(c_factors) if c_factors is not None else (_IDENTITY,) * p
        w_factors = tuple(w_factors) if w_factors is not None else (_IDENTITY,) * p
        if len(c_factors) != p or len(w_factors) != p:
            raise ValueError(
                f"factor timelines must cover all {p} workers "
                f"(got {len(c_factors)} c, {len(w_factors)} w)"
            )
        bg = tuple(sorted(background, key=lambda ev: ev.time))
        for prev, nxt in zip(bg, bg[1:]):
            if nxt.time == prev.time:
                raise ValueError(
                    f"background events must have distinct times, got two at "
                    f"t={nxt.time}"
                )
        self.platform = platform
        self.c_factors = c_factors
        self.w_factors = w_factors
        self.background = bg
        self.name = name or f"{platform.name}~scenario"
        # Effective-rate tables (base · factor per breakpoint), shared by
        # both engines so every duration is computed from identical floats.
        self._c_rates = tuple(
            StepTimeline(tl.times, tuple(v * wk.c for v in tl.values))
            if not tl.is_identity else StepTimeline.constant(wk.c)
            for wk, tl in zip(platform.workers, c_factors)
        )
        self._w_rates = tuple(
            StepTimeline(tl.times, tuple(v * wk.w for v in tl.values))
            if not tl.is_identity else StepTimeline.constant(wk.w)
            for wk, tl in zip(platform.workers, w_factors)
        )

    # -- engine-facing rate lookups (0-based worker indices) ----------------
    def c_rate(self, widx: int, t: float) -> float:
        """Effective seconds-per-block transfer rate of worker ``widx``
        (0-based) for an operation starting at time ``t``."""
        tl = self._c_rates[widx]
        return tl.values[bisect_right(tl.times, t) - 1]

    def w_rate(self, widx: int, t: float) -> float:
        """Effective seconds-per-update compute rate of worker ``widx``
        (0-based) for a phase starting at time ``t``."""
        tl = self._w_rates[widx]
        return tl.values[bisect_right(tl.times, t) - 1]

    def c_rate_timeline(self, widx: int) -> StepTimeline:
        """Worker ``widx``'s (0-based) effective transfer-rate timeline.

        The full piecewise-constant ``base · factor`` table behind
        :meth:`c_rate` — the model engine integrates chunk work through
        it instead of sampling pointwise.
        """
        return self._c_rates[widx]

    def w_rate_timeline(self, widx: int) -> StepTimeline:
        """Worker ``widx``'s (0-based) effective compute-rate timeline."""
        return self._w_rates[widx]

    @property
    def has_rate_variation(self) -> bool:
        """True when any worker's rates actually change over time."""
        return any(
            not tl.is_identity for tl in self.c_factors + self.w_factors
        )

    @property
    def is_stationary(self) -> bool:
        """True for the identity scenario (engines may skip all hooks)."""
        return not self.has_rate_variation and not self.background

    # -- builders -----------------------------------------------------------
    @staticmethod
    def stationary(platform: Platform, name: str = "") -> "Scenario":
        """The identity scenario: the platform exactly as declared."""
        return Scenario(platform, name=name or f"{platform.name}~stationary")

    def _check_worker(self, worker: int) -> int:
        if not 1 <= worker <= self.platform.p:
            raise ValueError(
                f"worker index {worker} out of range 1..{self.platform.p}"
            )
        return worker - 1

    def _replace(self, **kw) -> "Scenario":
        base = dict(
            platform=self.platform, c_factors=self.c_factors,
            w_factors=self.w_factors, background=self.background,
            name=self.name,
        )
        base.update(kw)
        return Scenario(**base)

    def with_rates(
        self,
        worker: int,
        time: float,
        c_factor: Optional[float] = None,
        w_factor: Optional[float] = None,
    ) -> "Scenario":
        """Pin worker ``worker``'s rate factors from ``time`` onward.

        Absolute semantics: the factor becomes exactly ``c_factor`` /
        ``w_factor`` (not a further multiplication); later steps on the
        affected timeline are discarded.  ``None`` leaves a rate alone.
        """
        i = self._check_worker(worker)
        c_factors, w_factors = list(self.c_factors), list(self.w_factors)
        if c_factor is not None:
            c_factors[i] = c_factors[i].set_from(time, c_factor)
        if w_factor is not None:
            w_factors[i] = w_factors[i].set_from(time, w_factor)
        return self._replace(c_factors=tuple(c_factors), w_factors=tuple(w_factors))

    def with_slowdown(self, worker: int, time: float, factor: float) -> "Scenario":
        """Multiply worker ``worker``'s c and w by ``factor`` from ``time`` on."""
        i = self._check_worker(worker)
        c_factors, w_factors = list(self.c_factors), list(self.w_factors)
        c_factors[i] = c_factors[i].scaled_from(time, factor)
        w_factors[i] = w_factors[i].scaled_from(time, factor)
        return self._replace(c_factors=tuple(c_factors), w_factors=tuple(w_factors))

    def with_dropout(
        self, worker: int, time: float, factor: float = DROPOUT_FACTOR
    ) -> "Scenario":
        """Worker ``worker`` effectively stops participating at ``time``.

        Modelled as a slowdown by :data:`DROPOUT_FACTOR`: in-flight and
        already-assigned work still completes (at a glacial rate), so
        the run terminates and the update-count invariant holds, but the
        worker contributes nothing useful afterwards.
        """
        return self.with_slowdown(worker, time, factor)

    def with_bandwidth_step(self, time: float, factor: float) -> "Scenario":
        """Scale *every* worker's c by ``factor`` from ``time`` onward.

        Models a shared-network capacity change (all transfers ride the
        master's link, so congestion hits every worker's ``c_i`` alike).
        """
        c_factors = tuple(tl.scaled_from(time, factor) for tl in self.c_factors)
        return self._replace(c_factors=c_factors)

    def with_background(
        self, time: float, duration: float, label: str = "background"
    ) -> "Scenario":
        """Add one background hold of the master's port."""
        return self._replace(
            background=self.background + (BackgroundEvent(time, duration, label),)
        )

    # -- reporting ----------------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable description."""
        lines = [f"Scenario {self.name!r} over {self.platform.name!r}:"]
        for wk, ctl, wtl in zip(self.platform.workers, self.c_factors, self.w_factors):
            if ctl.is_identity and wtl.is_identity:
                continue
            lines.append(
                f"  {wk.label}: c-factors {list(zip(ctl.times, ctl.values))}, "
                f"w-factors {list(zip(wtl.times, wtl.values))}"
            )
        for ev in self.background:
            lines.append(
                f"  port: {ev.label} holds [{ev.time:g}, {ev.time + ev.duration:g})"
            )
        if len(lines) == 1:
            lines.append("  (stationary)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scenario({self.name!r}, p={self.platform.p}, "
            f"varying={self.has_rate_variation}, "
            f"background={len(self.background)})"
        )
