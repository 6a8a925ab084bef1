"""Figure 13 — impact of the worker memory size.

Sweeps the per-worker memory from 132 MB to 512 MB on the 16000×16000 ×
16000×64000 workload.  The paper's findings: performance improves with
memory for every algorithm; HoLM's resource selection "always performs
in the best possible way", enrolling 2 workers at the low end and 4 at
the high end while staying as fast as the algorithms that use all 8.

One sweep point = one (memory size, algorithm) pair.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.tables import format_table
from repro.platform.named import ut_cluster_platform
from repro.runner import Campaign, Sweep, run_sweep, stamp_points
from repro.workloads import FIG13_MEMORY_MB, FIG13_WORKLOAD, SECTION8_ALGORITHMS, Workload

__all__ = ["run", "main", "sweep", "campaign"]


def _point(params: Mapping) -> dict:
    """Simulate one algorithm at one worker memory size."""
    from repro.analysis.metrics import summarize_trace
    from repro.engine import run_scheduler
    from repro.schedulers import section8_scheduler

    platform = ut_cluster_platform(
        p=8, memory_mb=params["memory_mb"], q=params["q"]
    )
    workload = Workload(
        params["workload"], params["n_a"], params["n_ab"], params["n_b"]
    )
    scheduler = section8_scheduler(params["algorithm"])
    trace = run_scheduler(
        scheduler, platform, workload.shape(params["q"]),
        engine=params.get("engine", "fast"),
    )
    s = summarize_trace(trace)
    return {
        "memory_mb": params["memory_mb"],
        "algorithm": scheduler.name,
        "makespan_s": s.makespan,
        "workers": s.workers_used,
        "ccr": s.ccr,
    }


def sweep(
    scale: int = 1,
    memories_mb: tuple[float, ...] = FIG13_MEMORY_MB,
    q: int = 80,
    engine: str = "fast",
) -> Sweep:
    """Declare the (memory × algorithm) sweep, memory-major."""
    workload = FIG13_WORKLOAD.scaled(scale) if scale > 1 else FIG13_WORKLOAD
    points = tuple(
        {
            "workload": workload.name,
            "n_a": workload.n_a,
            "n_ab": workload.n_ab,
            "n_b": workload.n_b,
            "algorithm": name,
            "memory_mb": memory_mb,
            "q": q,
        }
        for memory_mb in memories_mb
        for name in SECTION8_ALGORITHMS
    )
    return Sweep(
        name="fig13",
        run_fn=_point,
        points=stamp_points(points, engine=engine),
        title="Figure 13: impact of worker memory size",
    )


def campaign(scale: int = 1, engine: str = "fast") -> Campaign:
    """The Figure 13 campaign (a single sweep)."""
    return Campaign("fig13", (sweep(scale=scale, engine=engine),))


def run(
    scale: int = 1,
    memories_mb: tuple[float, ...] = FIG13_MEMORY_MB,
    q: int = 80,
    engine: str = "fast",
) -> list[dict]:
    """One row per (memory, algorithm)."""
    return run_sweep(
        sweep(scale=scale, memories_mb=memories_mb, q=q, engine=engine)
    ).rows


def main() -> None:
    """Print the Figure 13 memory sweep."""
    print(format_table(run(), title="Figure 13: impact of worker memory size"))
    print(
        "\nExpected shape: makespans fall as memory grows; HoLM enrolls "
        "2 workers at 132MB and 4 at 512MB yet matches the 8-worker "
        "algorithms."
    )


if __name__ == "__main__":
    main()
