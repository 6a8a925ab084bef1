"""Many model-engine estimates in one call.

:func:`run_model_batch` is a convenience loop: each
:class:`BatchItem` goes through
:func:`~repro.engine.engine.run_scheduler` in input order, so every
result *is* the scalar estimate (or trace, for ``engine="fast"``/
``"des"`` items).  The single model recurrence is
``repro.engine.model._estimate``.

Estimates are not vectorized across items: real grids rarely hold
groups of points that share one dispatch order, so a group scan
recomputes most points scalar anyway and loses to this loop end to
end (``docs/engines.md`` has the measurement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.blocks.shape import ProblemShape
from repro.engine.engine import run_scheduler
from repro.platform.model import Platform
from repro.scenarios.model import Scenario

__all__ = ["BatchItem", "run_model_batch"]


@dataclass(frozen=True)
class BatchItem:
    """One point of a batch evaluation.

    ``scheduler`` is a **factory** returning a fresh scheduler instance
    per call (schedulers may keep per-plan state, as HoLM does),
    mirroring how the experiment modules construct one scheduler per
    :func:`~repro.engine.engine.run_scheduler` call.
    """

    scheduler: Callable[[], Any]
    platform: Platform
    shape: ProblemShape
    two_port: bool = False
    check_memory: bool = True
    engine: str = "fast"
    scenario: Optional[Scenario] = None


def run_model_batch(
    items: Sequence[BatchItem],
    counters: Dict[str, int] | None = None,
) -> List[Any]:
    """Evaluate ``items`` in order; one ``run_scheduler`` result each.

    The first item that raises propagates its exception.  ``counters``,
    when given, receives ``{"vectorized": 0, "scalar": len(items)}``.
    """
    results = [
        run_scheduler(
            item.scheduler(), item.platform, item.shape,
            two_port=item.two_port, check_memory=item.check_memory,
            engine=item.engine, scenario=item.scenario,
        )
        for item in items
    ]
    if counters is not None:
        counters["vectorized"] = 0
        counters["scalar"] = len(results)
    return results
