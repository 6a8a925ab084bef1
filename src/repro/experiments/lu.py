"""Section 7 — LU factorization costs and pivot-size selection.

Three sub-experiments:

1. **Cost model** — exact communication/computation totals vs the
   paper's closed forms over an ``r`` sweep (documenting that the
   printed communication formula omits the lower-order panel terms).
2. **Homogeneous parallelisation** — worker count ``P = ceil(µw/3c)``
   and the resulting makespan estimate on the UT cluster.
3. **Heterogeneous pivot search** — best pivot size µ on the Table 2
   platform, with the per-worker chunk policies.

The module's campaign groups four sweeps (costs, homogeneous,
policies, simulation); each ``run_*`` helper is the serial wrapper
around its sweep.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.tables import format_table
from repro.core.layout import mu_overlap
from repro.platform.named import table2_platform, ut_cluster_platform
from repro.runner import Campaign, Sweep, run_sweep, stamp_points

__all__ = [
    "run_costs",
    "run_homogeneous",
    "run_hetero_policies",
    "run_simulation",
    "main",
    "campaign",
]


def _costs_point(params: Mapping) -> dict:
    """Exact totals vs closed forms for one ``r``."""
    from repro.lu import (
        lu_communication_paper_closed_form,
        lu_computation_closed_form,
        lu_total_cost,
    )

    r, mu = params["r"], params["mu"]
    comm, comp = lu_total_cost(r, mu)
    return {
        "r": r,
        "mu": mu,
        "comm_exact": comm,
        "comm_paper": lu_communication_paper_closed_form(r, mu),
        "comm_panel_terms": 2.0 * r * (r - mu),
        "comp_exact": comp,
        "comp_paper": lu_computation_closed_form(r, mu),
    }


def _homogeneous_point(params: Mapping) -> dict:
    """Worker count and makespan estimate for one candidate µ."""
    from repro.lu import lu_makespan_estimate, lu_worker_count

    r, p, mu = params["r"], params["p"], params["mu"]
    platform = ut_cluster_platform(p=p)
    wk = platform.workers[0]
    return {
        "mu": mu,
        "P=ceil(mu*w/3c)": lu_worker_count(mu, wk.c, wk.w, p),
        "makespan_est_s": lu_makespan_estimate(r, mu, wk.c, wk.w, p),
    }


def _policies_point(params: Mapping) -> list[dict]:
    """Chunk policies + exhaustive pivot search (couples all workers)."""
    from repro.core.heterogeneous import chunk_sizes
    from repro.lu import best_pivot_size, chunk_policy

    r = params["r"]
    platform = table2_platform()
    best_mu, best_time = best_pivot_size(platform, r)
    mus = chunk_sizes(platform)
    rows = []
    for wk, mu_i in zip(platform.workers, mus):
        pol = chunk_policy(mu_i, best_mu, wk.c, wk.w)
        rows.append(
            {
                "worker": wk.label,
                "mu_i": mu_i,
                "pivot_mu": best_mu,
                "policy": pol.shape,
                "ratio": pol.ratio,
                "virtual": pol.virtual_count,
                "est_total_s": best_time,
            }
        )
    return rows


def _simulation_point(params: Mapping) -> dict:
    """Engine-simulated parallel LU for one µ."""
    from repro.lu import lu_makespan_estimate, simulate_parallel_lu

    r, p, mu = params["r"], params["p"], params["mu"]
    platform = ut_cluster_platform(p=p)
    wk = platform.workers[0]
    trace = simulate_parallel_lu(platform, r, mu)
    return {
        "mu": mu,
        "workers": len(trace.enrolled_workers),
        "sim_makespan_s": trace.makespan,
        "estimate_s": lu_makespan_estimate(r, mu, wk.c, wk.w, p),
        "port_util": trace.port_utilisation(0),
    }


def costs_sweep(
    mu: int = 8, r_values: tuple[int, ...] = (16, 32, 64, 128),
) -> Sweep:
    """Declare one cost-model point per ``r``."""
    return Sweep(
        name="lu-costs",
        run_fn=_costs_point,
        points=tuple({"r": r, "mu": mu} for r in r_values),
        title="Section 7.1: LU cost model (block units)",
    )


def homogeneous_sweep(r: int = 196, p: int = 8) -> Sweep:
    """Declare one point per candidate pivot size µ."""
    platform = ut_cluster_platform(p=p)
    mu = mu_overlap(platform.workers[0].m)
    candidates = sorted(
        {7, 14, 28, 49, 98, mu} & set(d for d in range(1, r + 1) if r % d == 0)
    )
    return Sweep(
        name="lu-homogeneous",
        run_fn=_homogeneous_point,
        points=tuple({"r": r, "p": p, "mu": c} for c in candidates),
        title="Section 7.2: homogeneous LU — workers and makespan estimates",
    )


def policies_sweep(r: int = 36) -> Sweep:
    """Declare the single pivot-search point (all workers coupled)."""
    return Sweep(
        name="lu-policies",
        run_fn=_policies_point,
        points=({"r": r},),
        title="Section 7.3: heterogeneous chunk policies (Table 2 platform)",
    )


def simulation_sweep(r: int = 56, p: int = 8, engine: str = "fast") -> Sweep:
    """Declare one simulated-LU point per µ dividing ``r``.

    ``engine`` is stamped for interface uniformity; the LU study uses
    its own kernel-level simulator (:func:`simulate_parallel_lu`), so
    the knob is inert here.
    """
    return Sweep(
        name="lu-simulation",
        run_fn=_simulation_point,
        points=stamp_points(
            tuple(
                {"r": r, "p": p, "mu": mu}
                for mu in (7, 14, 28)
                if r % mu == 0
            ),
            engine=engine,
        ),
        title="Section 7.2: simulated parallel LU on the UT cluster",
    )


def campaign(engine: str = "fast") -> Campaign:
    """The four LU sweeps, in the order ``main()`` prints them."""
    return Campaign(
        "lu",
        (
            costs_sweep(),
            homogeneous_sweep(),
            policies_sweep(),
            simulation_sweep(engine=engine),
        ),
    )


def run_costs(
    mu: int = 8, r_values: tuple[int, ...] = (16, 32, 64, 128),
) -> list[dict]:
    """Exact totals vs closed forms for an ``r`` sweep."""
    return run_sweep(costs_sweep(mu=mu, r_values=r_values)).rows


def run_homogeneous(r: int = 196, p: int = 8) -> list[dict]:
    """Worker counts and makespan estimates on the UT cluster."""
    return run_sweep(homogeneous_sweep(r=r, p=p)).rows


def run_hetero_policies(r: int = 36) -> list[dict]:
    """Chunk policies and the exhaustive pivot search on Table 2."""
    return run_sweep(policies_sweep(r=r)).rows


def run_simulation(r: int = 56, p: int = 8, engine: str = "fast") -> list[dict]:
    """Engine-simulated parallel LU vs the closed-form estimate."""
    return run_sweep(simulation_sweep(r=r, p=p, engine=engine)).rows


def main() -> None:
    """Print all three LU sub-experiments."""
    print(format_table(run_costs(), title="Section 7.1: LU cost model (block units)"))
    print(
        "\nNote: the paper's printed communication closed form equals "
        "pivot+core only; the panel terms (column comm_panel_terms) are "
        "the lower-order difference.\n"
    )
    print(
        format_table(
            run_homogeneous(),
            title="Section 7.2: homogeneous LU — workers and makespan estimates",
        )
    )
    print()
    print(
        format_table(
            run_hetero_policies(),
            title="Section 7.3: heterogeneous chunk policies (Table 2 platform)",
        )
    )
    print()
    print(
        format_table(
            run_simulation(),
            title="Section 7.2: simulated parallel LU on the UT cluster",
        )
    )


if __name__ == "__main__":
    main()
