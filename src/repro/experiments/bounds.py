"""Section 4 — communication-to-computation bounds.

For a sweep of memory sizes ``m``, tabulates:

* the CCR achieved by the maximum re-use algorithm (``2/µ`` asymptotic,
  and simulated on the engine for a finite ``t``),
* the paper's Loomis–Whitney lower bound ``sqrt(27/8m)``,
* the refined Toledo bound ``sqrt(27/32m)``,
* the previously best published bound ``sqrt(1/8m)``,
* the gap factor max-re-use / Loomis–Whitney (→ ``sqrt(32/27) ≈ 1.09``).

One sweep point = one memory size.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.tables import format_table
from repro.blocks.shape import ProblemShape
from repro.core.layout import max_reuse_mu
from repro.platform.model import Platform
from repro.runner import Campaign, Sweep, run_sweep, stamp_points

__all__ = ["run", "simulated_ccr", "main", "sweep", "campaign", "DEFAULT_MEMORIES"]

#: Memory sizes (in blocks) swept by default.
DEFAULT_MEMORIES: tuple[int, ...] = (21, 57, 111, 241, 511, 1023, 4095, 10000)


def simulated_ccr(m: int, t: int = 40, engine: str = "fast") -> float:
    """CCR measured by actually running MaxReuse on the engine.

    Uses a single worker whose C grid is one full µ×µ tile and inner
    dimension ``t``, so the measured blocks-per-update matches the
    analytic ``2/t + 2/µ`` exactly.
    """
    from repro.engine import run_scheduler
    from repro.schedulers.maxreuse import MaxReuse

    mu = max_reuse_mu(m)
    shape = ProblemShape(r=mu, s=mu, t=t, q=4)
    platform = Platform.homogeneous(1, c=1.0, w=1.0, m=m)
    trace = run_scheduler(MaxReuse(), platform, shape, engine=engine)
    return trace.ccr


def _point(params: Mapping) -> dict:
    """Bounds and achieved CCR for one memory size."""
    from repro.core.bounds import (
        ccr_lower_bound_irony_toledo_tiskin,
        ccr_lower_bound_loomis_whitney,
        ccr_lower_bound_toledo_refined,
        ccr_max_reuse,
        ccr_max_reuse_asymptotic,
    )

    m, t = params["m"], params["t"]
    lw = ccr_lower_bound_loomis_whitney(m)
    achieved = ccr_max_reuse_asymptotic(m)
    return {
        "m": m,
        "mu": max_reuse_mu(m),
        "ccr_maxreuse(t)": ccr_max_reuse(m, t),
        "ccr_simulated(t)": simulated_ccr(m, t, params.get("engine", "fast")),
        "ccr_maxreuse_inf": achieved,
        "bound_loomis_whitney": lw,
        "bound_toledo_refined": ccr_lower_bound_toledo_refined(m),
        "bound_prev_best": ccr_lower_bound_irony_toledo_tiskin(m),
        "gap_vs_LW": achieved / lw,
    }


def sweep(
    memories: tuple[int, ...] = DEFAULT_MEMORIES, t: int = 40,
    engine: str = "fast",
) -> Sweep:
    """Declare one point per memory size."""
    points = tuple({"m": m, "t": t} for m in memories)
    return Sweep(
        name="bounds",
        run_fn=_point,
        points=stamp_points(points, engine=engine),
        title="Section 4: CCR of maximum re-use vs lower bounds (blocks/update)",
    )


def campaign(engine: str = "fast") -> Campaign:
    """The Section 4 bounds campaign (a single sweep)."""
    return Campaign("bounds", (sweep(engine=engine),))


def run(
    memories: tuple[int, ...] = DEFAULT_MEMORIES, t: int = 40,
    engine: str = "fast",
) -> list[dict]:
    """Tabulate bounds and achieved CCR for each memory size."""
    return run_sweep(sweep(memories=memories, t=t, engine=engine)).rows


def main() -> None:
    """Print the Section 4 bound comparison."""
    print(
        format_table(
            run(),
            title="Section 4: CCR of maximum re-use vs lower bounds (blocks/update)",
        )
    )
    print(
        "\nPaper's claims: CCR_opt = sqrt(27/8m) improves sqrt(1/8m) by "
        "sqrt(27); max-re-use sits sqrt(32/27) ~= 1.09 above the bound."
    )


if __name__ == "__main__":
    main()
