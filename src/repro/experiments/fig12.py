"""Figure 12 — impact of the block size q.

Runs the algorithms on the same element-level matrices (8000×8000 and
8000×64000) partitioned with q = 40 and q = 80.  The paper's finding:
"the choice of q has little impact on the algorithms performance" —
the per-element communication and computation volumes are unchanged;
only tile granularity shifts.  BMM/OBMM in the paper call DGEMM on
whole memory-tiles and are exactly q-independent.

(The calibrated ``c`` and ``w`` both scale with the block volume, so a
q change leaves per-element rates constant — matching the MPI reality
that bandwidth and flop/s do not depend on the partitioning.)

One sweep point = one (q, algorithm) pair; the aggregate step pivots
the per-point makespans into one row per algorithm with a spread
column, replaying the same merge order as the original serial loop.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.tables import format_table
from repro.platform.named import ut_cluster_platform
from repro.runner import Campaign, Sweep, run_sweep, stamp_points
from repro.workloads import FIG12_BLOCK_SIZES, SECTION8_ALGORITHMS, Workload

__all__ = ["run", "main", "sweep", "campaign", "FIG12_WORKLOAD"]

#: The matrix pair of the second experiment set.
FIG12_WORKLOAD = Workload("A 8000x8000, B 8000x64000", 8000, 8000, 64000)


def _point(params: Mapping) -> dict:
    """Makespan of one algorithm at one block size."""
    from repro.engine import run_scheduler
    from repro.schedulers import section8_scheduler

    q = params["q"]
    platform = ut_cluster_platform(p=8, q=q)
    workload = Workload(
        params["workload"], params["n_a"], params["n_ab"], params["n_b"]
    )
    scheduler = section8_scheduler(params["algorithm"])
    trace = run_scheduler(
        scheduler, platform, workload.shape(q),
        engine=params.get("engine", "fast"),
    )
    return {"algorithm": scheduler.name, "q": q, "makespan": trace.makespan}


def _aggregate(values: list) -> list[dict]:
    """Pivot (algorithm, q) makespans into per-algorithm rows + spread."""
    by_algo: dict[str, dict] = {}
    for v in values:
        row = by_algo.setdefault(v["algorithm"], {"algorithm": v["algorithm"]})
        row[f"makespan_q{v['q']}"] = v["makespan"]
    rows = list(by_algo.values())
    for row in rows:
        times = [v for k, v in row.items() if k.startswith("makespan_")]
        row["spread_pct"] = 100.0 * (max(times) - min(times)) / min(times)
    return rows


def sweep(
    scale: int = 1, block_sizes: tuple[int, ...] = FIG12_BLOCK_SIZES,
    engine: str = "fast",
) -> Sweep:
    """Declare the (q × algorithm) sweep, q-major like the paper."""
    workload = FIG12_WORKLOAD.scaled(scale) if scale > 1 else FIG12_WORKLOAD
    points = tuple(
        {
            "workload": workload.name,
            "n_a": workload.n_a,
            "n_ab": workload.n_ab,
            "n_b": workload.n_b,
            "algorithm": name,
            "q": q,
        }
        for q in block_sizes
        for name in SECTION8_ALGORITHMS
    )
    return Sweep(
        name="fig12",
        run_fn=_point,
        points=stamp_points(points, engine=engine),
        aggregate=_aggregate,
        title="Figure 12: impact of block size q",
    )


def campaign(scale: int = 1, engine: str = "fast") -> Campaign:
    """The Figure 12 campaign (a single sweep)."""
    return Campaign("fig12", (sweep(scale=scale, engine=engine),))


def run(
    scale: int = 1, block_sizes: tuple[int, ...] = FIG12_BLOCK_SIZES,
    engine: str = "fast",
) -> list[dict]:
    """One row per (algorithm, q); columns are makespans."""
    return run_sweep(
        sweep(scale=scale, block_sizes=block_sizes, engine=engine)
    ).rows


def main() -> None:
    """Print the Figure 12 block-size comparison."""
    print(format_table(run(), title="Figure 12: impact of block size q"))
    print("\nPaper's finding: q has little impact on performance.")


if __name__ == "__main__":
    main()
