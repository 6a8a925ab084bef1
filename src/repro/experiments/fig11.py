"""Figure 11 — run-to-run variation.

The paper repeats identical executions five times and observes up to a
~6 % spread, concluding that algorithms within 6 % of each other should
be considered equivalent.  We reproduce the *analysis*: the platform's
``c``/``w`` parameters receive lognormal jitter (calibrated σ) per run,
and the maximum relative gap between runs of the same algorithm is
reported.

One sweep point = one algorithm (its ``runs`` jittered executions
happen inside the point).  Each point draws from its own RNG stream,
seeded by ``(seed, algorithm index)``, so points are independent of
execution order — a requirement for parallel fan-out and caching.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.tables import format_table
from repro.platform.model import perturbed
from repro.platform.named import ut_cluster_platform
from repro.runner import Campaign, Sweep, run_sweep, stamp_points
from repro.workloads import FIG10_WORKLOADS, SECTION8_ALGORITHMS, Workload

__all__ = ["run", "main", "sweep", "campaign"]


def _point(params: Mapping) -> dict:
    """Repeat one algorithm ``runs`` times under platform jitter."""
    import numpy as np

    from repro.engine import run_scheduler
    from repro.schedulers import section8_scheduler

    rng = np.random.default_rng((params["seed"], params["algo_index"]))
    base = ut_cluster_platform(p=8)
    shape = Workload(
        params["workload"], params["n_a"], params["n_ab"], params["n_b"]
    ).shape(80)
    times = []
    for _ in range(params["runs"]):
        platform = perturbed(base, rng, params["sigma"])
        # Fresh scheduler instance per run (some keep per-run state).
        scheduler = section8_scheduler(params["algorithm"])
        trace = run_scheduler(
            scheduler, platform, shape, engine=params.get("engine", "fast")
        )
        times.append(trace.makespan)
    lo, hi = min(times), max(times)
    return {
        "algorithm": params["algorithm"],
        "runs": params["runs"],
        "min_s": lo,
        "mean_s": sum(times) / len(times),
        "max_s": hi,
        "spread_pct": 100.0 * (hi - lo) / lo,
    }


def sweep(
    runs: int = 5, sigma: float = 0.02, scale: int = 8, seed: int = 2007,
    engine: str = "fast",
) -> Sweep:
    """Declare one jittered-repeat point per Section 8 algorithm."""
    workload = FIG10_WORKLOADS[0].scaled(scale)
    points = tuple(
        {
            "algorithm": name,
            "algo_index": index,
            "runs": runs,
            "sigma": sigma,
            "seed": seed,
            "workload": workload.name,
            "n_a": workload.n_a,
            "n_ab": workload.n_ab,
            "n_b": workload.n_b,
        }
        for index, name in enumerate(SECTION8_ALGORITHMS)
    )
    return Sweep(
        name="fig11",
        run_fn=_point,
        points=stamp_points(points, engine=engine),
        title="Figure 11: run-to-run variation (jittered platform)",
    )


def campaign(scale: int = 8, engine: str = "fast") -> Campaign:
    """The Figure 11 campaign (a single sweep)."""
    return Campaign("fig11", (sweep(scale=scale, engine=engine),))


def run(
    runs: int = 5,
    sigma: float = 0.02,
    scale: int = 8,
    seed: int = 2007,
    engine: str = "fast",
) -> list[dict]:
    """Repeat each algorithm ``runs`` times under platform jitter.

    Returns per-algorithm min/max/mean makespan and the max spread
    ``(max-min)/min`` — the paper's Figure 11 quantity.
    """
    return run_sweep(
        sweep(runs=runs, sigma=sigma, scale=scale, seed=seed, engine=engine)
    ).rows


def main() -> None:
    """Print the Figure 11 variation table."""
    rows = run()
    print(format_table(rows, title="Figure 11: run-to-run variation (jittered platform)"))
    worst = max(r["spread_pct"] for r in rows)
    print(
        f"\nMax spread observed: {worst:.1f}% — the paper reports ~6%; "
        "algorithms within this band count as equivalent."
    )


if __name__ == "__main__":
    main()
