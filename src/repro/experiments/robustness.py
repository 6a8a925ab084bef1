"""Robustness sweep — scheduler degradation under non-stationary platforms.

The paper's experiments assume stationary platforms, yet its own Figure
11 documents a ~6 % run-to-run spread; real clusters add time-varying
bandwidth, flaky workers and background traffic on top.  This sweep —
an extrapolation *beyond* the paper (see ``docs/paper-mapping.md``) —
measures how gracefully the seven Section-8 algorithms plus the
single-worker MaxReuse reference degrade as non-stationarity grows.

For every (scenario family × severity × algorithm) point the pure
per-point function

1. simulates the algorithm on the stationary UT-cluster platform to get
   the **baseline makespan** (which also sets the scenario's time
   horizon, so one severity means the same *relative* disturbance for
   every algorithm and scale);
2. rebuilds the scenario from its JSON-able spec
   (:func:`repro.scenarios.build_scenario`) and re-simulates under it;
3. reports the **degradation ratio** ``makespan / baseline``.

Scenario families (:data:`repro.scenarios.SCENARIO_KINDS`): ``drift``
(rates re-drawn over time), ``dropout`` (workers suffer severe
slowdowns mid-run), ``congestion`` (background port traffic),
``brownout`` (shared-link bandwidth loss and recovery),
``randomwalk`` (rates wander as a bounded seeded stochastic process)
and ``multidrop`` (a correlated multi-worker dropout cascade — one
rack event, not independent victims).

Expected shape: the demand-driven algorithms (ODDOML, DDOML, BMM,
OBMM) absorb drift and dropout far better than the static assignments
(HoLM, ORROML, OMMOML) — work migrates away from degraded workers by
construction — while congestion and brownout hit everyone roughly in
proportion to their port utilisation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Optional, Sequence

from repro.analysis.tables import format_table
from repro.platform.named import ut_cluster_platform
from repro.runner import Campaign, Sweep, run_sweep, stamp_points
from repro.workloads import SECTION8_ALGORITHMS, fig10_workloads

__all__ = ["ALGORITHMS", "KINDS", "SEVERITIES", "run", "main", "sweep", "campaign"]

#: The scenario families swept, in reporting order (the ``stationary``
#: family is the implicit severity-0 baseline of every point).
KINDS = (
    "drift", "dropout", "congestion", "brownout", "randomwalk", "multidrop",
)
#: The severity grid.
SEVERITIES = (0.25, 0.5, 1.0)
#: The seven Section-8 algorithms plus the MaxReuse reference.
ALGORITHMS = SECTION8_ALGORITHMS + ("MaxReuse",)


def _scheduler_and_platform(algorithm: str, p: int, memory_mb: float, q: int):
    """Build a point's scheduler and platform from its scalars.

    MaxReuse is the single-worker reference algorithm: it runs on a
    one-worker subset of the same cluster (scenario worker indices then
    refer to that subset's worker 1).
    """
    from repro.schedulers import MaxReuse, section8_scheduler

    platform = ut_cluster_platform(p=p, memory_mb=memory_mb, q=q)
    if algorithm == "MaxReuse":
        return MaxReuse(), platform.subset((1,), name=f"{platform.name}[P1]")
    return section8_scheduler(algorithm), platform


@lru_cache(maxsize=None)
def _baseline_makespan(
    algorithm: str, p: int, memory_mb: float, q: int, scale: int, engine: str
) -> float:
    """Stationary work makespan of one algorithm, memoized per process.

    The baseline is identical across a point's whole (kind × severity)
    grid — only these six scalars matter — so the ``lru_cache`` runs one
    simulation per algorithm in each process.  It is never written to
    the result store, which only :func:`repro.runner.run_sweep` in the
    calling process reads or writes.
    """
    from repro.engine import run_scheduler

    scheduler, platform = _scheduler_and_platform(algorithm, p, memory_mb, q)
    shape = fig10_workloads(scale)[0].shape(q)
    trace = run_scheduler(scheduler, platform, shape, engine=engine)
    return trace.work_makespan


def _point(params: Mapping) -> dict:
    """Baseline + scenario simulation of one algorithm; one table row.

    Makespans are *work* makespans (``Trace.work_makespan``): background
    holds contend for the port but do not themselves count as work, so
    the congestion family measures real delay, not the synthetic hold's
    own end time.
    """
    from repro.analysis.metrics import summarize_trace
    from repro.engine import run_scheduler
    from repro.scenarios import build_scenario, scenario_spec

    algorithm = params["algorithm"]
    p, memory_mb, q = params["p"], params["memory_mb"], params["q"]
    scale = params["scale"]
    engine = params.get("engine", "fast")
    base_makespan = _baseline_makespan(algorithm, p, memory_mb, q, scale, engine)

    spec = scenario_spec(
        params["scenario_kind"], params["severity"],
        horizon=base_makespan, seed=params["seed"],
    )
    scheduler, platform = _scheduler_and_platform(algorithm, p, memory_mb, q)
    scenario = build_scenario(platform, spec)
    shape = fig10_workloads(scale)[0].shape(q)
    trace = run_scheduler(
        scheduler, platform, shape, engine=engine, scenario=scenario
    )
    makespan = trace.work_makespan
    return {
        "scenario": params["scenario_kind"],
        "severity": params["severity"],
        "algorithm": algorithm,
        "base_makespan_s": base_makespan,
        "makespan_s": makespan,
        "degradation": makespan / base_makespan,
        "workers": summarize_trace(trace).workers_used,
    }


def sweep(
    scale: int = 1,
    p: int = 8,
    memory_mb: float = 512.0,
    q: int = 80,
    engine: str = "fast",
    kinds: Sequence[str] = KINDS,
    severities: Sequence[float] = SEVERITIES,
    seed: int = 0,
) -> Sweep:
    """Declare the (kind × severity × algorithm) robustness sweep."""
    points = tuple(
        {
            "scenario_kind": kind,
            "severity": severity,
            "algorithm": name,
            "p": p,
            "memory_mb": memory_mb,
            "q": q,
            "scale": scale,
            "seed": seed,
        }
        for kind in kinds
        for severity in severities
        for name in ALGORITHMS
    )
    return Sweep(
        name="robustness",
        run_fn=_point,
        points=stamp_points(points, engine=engine),
        title="Robustness: makespan degradation under non-stationary platforms",
    )


def campaign(
    scale: int = 1, engine: str = "fast", scenario: Optional[str] = None,
) -> Campaign:
    """The robustness campaign (a single sweep).

    ``scenario`` narrows the grid from the CLI's ``--scenario`` knob:
    ``"dropout"`` keeps only that family, ``"dropout:0.5"`` additionally
    pins the severity.
    """
    kinds: Sequence[str] = KINDS
    severities: Sequence[float] = SEVERITIES
    if scenario is not None:
        from repro.scenarios import parse_scenario_arg

        kind, severity = parse_scenario_arg(scenario)
        if kind == "stationary":
            raise ValueError(
                "the stationary family is the sweep's implicit baseline; "
                f"pick one of {KINDS}"
            )
        kinds = (kind,)
        if severity is not None:
            severities = (severity,)
    return Campaign(
        "robustness",
        (
            sweep(
                scale=scale, engine=engine, kinds=kinds, severities=severities
            ),
        ),
    )


def run(
    scale: int = 1,
    p: int = 8,
    memory_mb: float = 512.0,
    q: int = 80,
    engine: str = "fast",
    kinds: Sequence[str] = KINDS,
    severities: Sequence[float] = SEVERITIES,
    seed: int = 0,
) -> list[dict]:
    """Run the robustness sweep; one row per (kind, severity, algorithm).

    ``scale`` divides matrix dimensions as in the other experiments
    (the scenario horizon follows the baseline makespan, so severities
    are scale-invariant in their relative effect).
    """
    return run_sweep(
        sweep(
            scale=scale, p=p, memory_mb=memory_mb, q=q, engine=engine,
            kinds=kinds, severities=severities, seed=seed,
        )
    ).rows


def main() -> None:
    """Print the robustness table."""
    print(
        format_table(
            run(),
            title="Robustness: makespan degradation under non-stationary platforms",
        )
    )
    print(
        "\nExpected shape: demand-driven algorithms (ODDOML, DDOML, BMM, OBMM) "
        "absorb drift/dropout best; static assignments (HoLM, ORROML, OMMOML) "
        "degrade hardest; congestion and brownout scale with port utilisation."
    )


if __name__ == "__main__":
    main()
