"""Model-tier pre-screening: rank sweep points before simulating them.

Capacity-planning sweeps ask "which few configurations are worth a full
simulation?" — a question the analytic model engine
(:mod:`repro.engine.model`) answers 2–3 orders of magnitude cheaper
than either simulating engine.  :func:`prescreen_sweep` evaluates every
point of a sweep with ``engine="model"`` stamped in, scores the
estimated rows, and returns the same sweep narrowed to the most
promising points — which then run through the normal cached/parallel
:func:`~repro.runner.sweep.run_sweep` machinery at full fidelity.

The kept points are the *original* point mappings, untouched: their
cache keys are identical to a full run's, so a later unfiltered sweep
reuses every entry the screened run produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Mapping, Optional, Tuple

from repro.runner.sweep import Sweep, stamp_points

__all__ = [
    "PrescreenResult",
    "PrescreenUnsupported",
    "ScoredPoint",
    "default_score",
    "prescreen_sweep",
]


class PrescreenUnsupported(RuntimeError):
    """The sweep cannot be model-screened.

    Raised when a point function fails under ``engine="model"`` (e.g.
    it never simulates, or it executes numeric block updates, which the
    model cannot) or when no score can be extracted from the estimated
    rows.  Callers
    should fall back to running the sweep unfiltered.
    """


#: Row keys probed, in order, by :func:`default_score`.
_SCORE_KEYS = ("makespan_s", "makespan", "work_makespan")


def default_score(params: Mapping[str, Any], value: Any) -> float:
    """Score a point by its estimated makespan (lower is better).

    Understands the experiment conventions: a row mapping with one of
    ``makespan_s`` / ``makespan`` / ``work_makespan``, or a list of
    such rows (scored by their minimum).
    """
    if isinstance(value, Mapping):
        for key in _SCORE_KEYS:
            v = value.get(key)
            if isinstance(v, (int, float)):
                return float(v)
    elif isinstance(value, (list, tuple)) and value:
        try:
            return min(default_score(params, item) for item in value)
        except PrescreenUnsupported:
            pass
    raise PrescreenUnsupported(
        f"no makespan-like field to score in point result {value!r} "
        f"(pass an explicit score function)"
    )


@dataclass(frozen=True)
class ScoredPoint:
    """One screened point: original params, model row, and its score."""

    params: Mapping[str, Any]
    value: Any
    score: float


@dataclass(frozen=True)
class PrescreenResult:
    """Outcome of :func:`prescreen_sweep`.

    Attributes:
        sweep: the input sweep narrowed to the kept points (declaration
            order preserved), ready for ``run_sweep``.
        scored: every point with its model row and score, best first.
        kept: how many points survived the screen.
    """

    sweep: Sweep
    scored: Tuple[ScoredPoint, ...]
    kept: int

    @property
    def dropped(self) -> int:
        """Points filtered out by the screen."""
        return len(self.scored) - self.kept


def prescreen_sweep(
    sweep: Sweep,
    keep: float,
    score: Optional[Callable[[Mapping[str, Any], Any], float]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> PrescreenResult:
    """Narrow ``sweep`` to its ``keep`` best points via the model engine.

    Args:
        sweep: any sweep whose point function honours the ``engine``
            point parameter (all simulating experiments do, via
            ``params.get("engine", "fast")``).
        keep: how much to keep — an integer count (``keep >= 1``) or a
            fraction in ``(0, 1)`` of the point total (rounded up).
            At least one point always survives.
        score: maps ``(params, model_value)`` to a float, lower is
            better; defaults to :func:`default_score` (estimated
            makespan).
        progress: optional ``(done, total)`` callback per screened
            point.

    Returns a :class:`PrescreenResult`; raises
    :class:`PrescreenUnsupported` when the sweep cannot be screened
    (callers should then run it unfiltered).

    The screen itself runs inline (in-process, uncached): model points
    cost microseconds, so fan-out and memoization overheads would
    dominate the work being screened.
    """
    if not (0 < keep < 1 or (keep >= 1 and float(keep).is_integer())):
        raise ValueError(
            f"keep must be an integer count or a fraction in (0, 1), "
            f"got {keep}"
        )
    total = len(sweep.points)
    if total == 0:
        return PrescreenResult(sweep=sweep, scored=(), kept=0)
    n_keep = math.ceil(keep * total) if 0 < keep < 1 else int(keep)
    n_keep = max(1, min(n_keep, total))

    score_fn = score or default_score
    model_points = stamp_points(sweep.points, engine="model")

    scored: List[Tuple[float, int, ScoredPoint]] = []
    for idx, (params, model_params) in enumerate(zip(sweep.points, model_points)):
        try:
            value = sweep.run_fn(model_params)
        except PrescreenUnsupported:
            raise
        except Exception as exc:
            raise PrescreenUnsupported(
                f"point {dict(params)!r} of sweep {sweep.name!r} failed "
                f"under engine='model': {exc}"
            ) from exc
        s = score_fn(params, value)
        scored.append((s, idx, ScoredPoint(params, value, s)))
        if progress is not None:
            progress(idx + 1, total)

    scored.sort(key=lambda item: (item[0], item[1]))
    kept_indices = sorted(idx for _, idx, _ in scored[:n_keep])
    narrowed = replace(
        sweep, points=tuple(sweep.points[i] for i in kept_indices)
    )
    return PrescreenResult(
        sweep=narrowed,
        scored=tuple(sp for _, _, sp in scored),
        kept=n_keep,
    )
