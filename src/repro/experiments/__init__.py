"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(...) -> list[dict]`` returning the rows the
paper's corresponding table/figure reports, a ``main()`` that prints
them, and a ``campaign()`` declaring the same work as
:class:`repro.runner.Campaign` sweeps for the parallel/cached runner
(``python -m repro sweep <name>``).  Points carry platform, workload
and algorithm parameters only; how they are dispatched is the runner's
business and never reaches a point.  The ``benchmarks/`` directory
wraps these in pytest-benchmark targets; the CLI (``python -m repro``)
runs them by name.  Rule: modules import the simulation stack (numpy, engine,
schedulers, scenarios, LU) only inside point functions.

| Module              | Reproduces                                             |
|---------------------|--------------------------------------------------------|
| ``fig04``           | Fig. 4 — Thrifty vs Min-min counterexamples            |
| ``bounds``          | §4 — CCR of max-re-use vs the lower bounds             |
| ``maxreuse_trace``  | Figs. 5/6 — max-re-use memory layout walk              |
| ``table1``          | Table 1 — bandwidth-centric memory infeasibility       |
| ``table2``          | Table 2 + Figs. 7/8 — selection-algorithm ratios       |
| ``fig10``           | Fig. 10 — 7 algorithms × 3 matrix sizes                |
| ``fig11``           | Fig. 11 — run-to-run variation                         |
| ``fig12``           | Fig. 12 — impact of block size q                       |
| ``fig13``           | Fig. 13 — impact of worker memory size                 |
| ``lu``              | §7 — LU cost model and pivot-size search               |
| ``hetero``          | §6/§8 — heterogeneity-degree sweep (announced in §8)   |
| ``ablations``       | design-choice ablations (one-port, overlap, lookahead) |
| ``robustness``      | beyond the paper — degradation under non-stationary    |
|                     | platforms (drift, dropout, congestion, brownout)       |
"""

from repro.experiments import (  # noqa: F401  (re-exported for the CLI)
    ablations,
    bounds,
    fig04,
    fig10,
    fig11,
    fig12,
    fig13,
    hetero,
    lu,
    maxreuse_trace,
    robustness,
    table1,
    table2,
)

ALL_EXPERIMENTS = {
    "fig04": fig04,
    "bounds": bounds,
    "maxreuse": maxreuse_trace,
    "table1": table1,
    "table2": table2,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "lu": lu,
    "hetero": hetero,
    "ablations": ablations,
    "robustness": robustness,
}

__all__ = ["ALL_EXPERIMENTS", "campaign_for"]


def campaign_for(
    name: str,
    scale: int | None = None,
    engine: str | None = None,
    scenario: str | None = None,
):
    """The :class:`repro.runner.Campaign` for experiment ``name``.

    ``scale`` is forwarded to campaigns that support it (the Figure
    10-13 simulations); experiments with fixed paper instances ignore
    it.  ``engine`` selects the simulation backend (``"fast"``/
    ``"des"``) for campaigns whose sweeps run the chunk engine.
    ``scenario`` (``"KIND[:SEVERITY]"``, see :mod:`repro.scenarios`)
    narrows scenario-aware campaigns (currently ``robustness``) to one
    family; campaigns that ignore it do so silently, like ``scale``.
    The execution backend is not a campaign parameter.
    Raises ``KeyError`` for unknown names.
    """
    import inspect

    module = ALL_EXPERIMENTS[name]
    factory = module.campaign
    accepted = inspect.signature(factory).parameters
    kwargs = {}
    if scale is not None and "scale" in accepted:
        kwargs["scale"] = scale
    if engine is not None and "engine" in accepted:
        kwargs["engine"] = engine
    if scenario is not None and "scenario" in accepted:
        kwargs["scenario"] = scenario
    return factory(**kwargs)
