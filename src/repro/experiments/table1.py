"""Table 1 — the bandwidth-centric solution can be memory-infeasible.

On the two-worker platform ``c = (1, 20), w = (2, 40), µ = (2, 2)``
both workers satisfy ``2c_i/(µ_i w_i) = 1/2``, so the steady-state LP
enrolls both fully (throughput 0.75 updates/s).  But to ride out the
80 s the master spends serving P2's chunk, P1 must hold ~40 blocks of
A/B data — an order of magnitude beyond its buffers.  The table prints
per-worker buffer demand vs capacity.

A single-point sweep: the feasibility analysis couples all workers
through the shared steady state, so the whole table is one evaluation.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.tables import format_table
from repro.platform.named import table1_platform
from repro.runner import Campaign, Sweep, run_sweep, stamp_points

__all__ = ["run", "main", "sweep", "campaign"]


def _point(params: Mapping) -> list[dict]:
    """Rows: one per worker of the Table 1 platform."""
    from repro.core.heterogeneous import (
        bandwidth_centric_steady_state,
        chunk_sizes,
        simulate_bandwidth_centric_feasibility,
    )

    del params  # the Table 1 platform is fixed by the paper
    platform = table1_platform()
    mus = chunk_sizes(platform)
    steady = bandwidth_centric_steady_state(platform)
    rows = []
    for fb, wk, mu, x in zip(
        simulate_bandwidth_centric_feasibility(platform),
        platform.workers,
        mus,
        steady.x,
    ):
        rows.append(
            {
                "worker": wk.label,
                "c": wk.c,
                "w": wk.w,
                "mu": mu,
                "2c/(mu*w)": 2 * wk.c / (mu * wk.w),
                "steady_x": x,
                "blocks_needed": fb.needed_blocks,
                "blocks_available": fb.available_blocks,
                "feasible": fb.feasible,
            }
        )
    return rows


def sweep(engine: str = "fast") -> Sweep:
    """Declare the single Table 1 feasibility point.

    ``engine`` is stamped for interface uniformity; the steady-state
    analysis does not use the chunk engine, so the knob is inert.
    """
    return Sweep(
        name="table1",
        run_fn=_point,
        points=stamp_points(({"platform": "table1"},), engine=engine),
        title="Table 1: bandwidth-centric steady state vs memory feasibility",
    )


def campaign(engine: str = "fast") -> Campaign:
    """The Table 1 campaign (a single one-point sweep)."""
    return Campaign("table1", (sweep(engine=engine),))


def run(engine: str = "fast") -> list[dict]:
    """Rows: one per worker of the Table 1 platform."""
    return run_sweep(sweep(engine=engine)).rows


def main() -> None:
    """Print the Table 1 feasibility analysis."""
    from repro.core.heterogeneous import bandwidth_centric_steady_state

    platform = table1_platform()
    steady = bandwidth_centric_steady_state(platform)
    print(
        format_table(
            run(),
            title="Table 1: bandwidth-centric steady state vs memory feasibility",
        )
    )
    print(
        f"\nSteady-state throughput {steady.throughput:.3g} updates/s is an "
        "upper bound only: P1's buffer demand exceeds its capacity, so the "
        "schedule cannot be realised (motivates incremental selection)."
    )


if __name__ == "__main__":
    main()
