"""Figure 10 — the seven algorithms on three matrix sizes.

Simulates every Section 8 algorithm on the UT-cluster platform (1
master + 8 workers, 100 Mb/s Ethernet, calibrated Xeon DGEMM) for the
three workloads of Section 8.3, reporting makespan, workers used, CCR
and port utilisation.

Expected shape (Section 8.4): HoLM, ORROML, ODDOML and DDOML are
fastest and similar (within the ~6 % noise band of Figure 11); OMMOML
is slower and uses few workers; BMM/OBMM (Toledo's layout) are clearly
worse; HoLM matches the leaders while enrolling only 4 of 8 workers.

One sweep point = one (workload, algorithm) pair; the per-point
function rebuilds the platform and workload from the point's scalars so
points are pure, cacheable, and fan out across processes.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.tables import format_table
from repro.platform.named import ut_cluster_platform
from repro.runner import Campaign, Sweep, run_sweep, stamp_points
from repro.workloads import SECTION8_ALGORITHMS, Workload, fig10_workloads

__all__ = ["run", "main", "sweep", "campaign"]


def _point(params: Mapping) -> dict:
    """Simulate one algorithm on one workload; returns the table row."""
    from repro.analysis.metrics import summarize_trace
    from repro.engine import run_scheduler
    from repro.schedulers import section8_scheduler

    platform = ut_cluster_platform(
        p=params["p"], memory_mb=params["memory_mb"], q=params["q"]
    )
    workload = Workload(
        params["workload"], params["n_a"], params["n_ab"], params["n_b"]
    )
    trace = run_scheduler(
        section8_scheduler(params["algorithm"]),
        platform,
        workload.shape(params["q"]),
        engine=params.get("engine", "fast"),
    )
    s = summarize_trace(trace)
    return {
        "workload": params["workload"],
        "algorithm": section8_scheduler(params["algorithm"]).name,
        "makespan_s": s.makespan,
        "workers": s.workers_used,
        "ccr": s.ccr,
        "port_util": s.port_utilisation,
    }


def sweep(
    scale: int = 1, p: int = 8, memory_mb: float = 512.0, q: int = 80,
    engine: str = "fast",
) -> Sweep:
    """Declare the 21-point (workload × algorithm) sweep."""
    points = tuple(
        {
            "workload": workload.name,
            "n_a": workload.n_a,
            "n_ab": workload.n_ab,
            "n_b": workload.n_b,
            "algorithm": name,
            "p": p,
            "memory_mb": memory_mb,
            "q": q,
        }
        for workload in fig10_workloads(scale)
        for name in SECTION8_ALGORITHMS
    )
    return Sweep(
        name="fig10",
        run_fn=_point,
        points=stamp_points(points, engine=engine),
        title="Figure 10: algorithm makespans on the UT cluster (simulated)",
    )


def campaign(scale: int = 1, engine: str = "fast") -> Campaign:
    """The Figure 10 campaign (a single sweep)."""
    return Campaign("fig10", (sweep(scale=scale, engine=engine),))


def run(
    scale: int = 1, p: int = 8, memory_mb: float = 512.0, q: int = 80,
    engine: str = "fast",
) -> list[dict]:
    """Simulate all algorithms × workloads; returns one row per pair.

    ``scale`` divides every matrix dimension (use 4 or 8 for quick
    runs — the ranking is scale-invariant in the port-bound regime);
    ``engine`` selects the simulation backend (``"fast"``/``"des"``).
    """
    return run_sweep(
        sweep(scale=scale, p=p, memory_mb=memory_mb, q=q, engine=engine)
    ).rows


def main() -> None:
    """Print the Figure 10 table."""
    print(
        format_table(
            run(),
            title="Figure 10: algorithm makespans on the UT cluster (simulated)",
        )
    )
    print(
        "\nExpected shape: {HoLM, ORROML, ODDOML, DDOML} fastest and similar; "
        "OMMOML slower with fewer workers; BMM/OBMM worst; HoLM needs only "
        "4 of 8 workers."
    )


if __name__ == "__main__":
    main()
