"""Design-choice ablations (DESIGN.md Section 5).

* **one-port vs two-port master** — the paper adopts the strict
  one-port model; the two-port variant lets the master send and receive
  simultaneously.  Quantifies what the modelling choice costs.
* **overlap vs no-overlap layout** — µ²+4µ (spare A/B generation)
  versus µ²+2µ (bigger tiles, serialized receive/compute), i.e. the
  ODDOML-vs-DDOML design axis, swept across memory sizes.
* **start-up overhead** — measured fraction of time lost to C-tile
  I/O versus the paper's analytical bound ``µ/t + 2c/(tw)``.
* **lookahead depth** — selection ratio vs depth on Table 2.

The module's campaign groups the four ablations as four sweeps.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.tables import format_table
from repro.blocks.shape import ProblemShape
from repro.core.layout import mu_overlap
from repro.platform.model import Platform
from repro.platform.named import table2_platform, ut_cluster_platform
from repro.runner import Campaign, Sweep, run_sweep, stamp_points

__all__ = [
    "run_ports",
    "run_overlap",
    "run_startup",
    "run_lookahead",
    "main",
    "campaign",
]


def _ports_point(params: Mapping) -> dict:
    """HoLM makespan under a one- or two-port master."""
    from repro.engine import run_scheduler
    from repro.schedulers import HoLM
    from repro.workloads import FIG10_WORKLOADS

    shape = FIG10_WORKLOADS[0].scaled(params["scale"]).shape(80)
    platform = ut_cluster_platform(p=8)
    two_port = params["two_port"]
    trace = run_scheduler(
        HoLM(), platform, shape, two_port=two_port,
        engine=params.get("engine", "fast"),
    )
    return {
        "model": "two-port" if two_port else "one-port",
        "makespan_s": trace.makespan,
        "send_port_util": trace.port_utilisation(0),
    }


def _ports_aggregate(values: list) -> list[dict]:
    """Add the relative-to-one-port column (needs both rows)."""
    rows = [dict(v) for v in values]
    base = rows[0]["makespan_s"]
    for row in rows:
        row["vs_one_port_pct"] = 100.0 * (row["makespan_s"] - base) / base
    return rows


def _overlap_point(params: Mapping) -> dict:
    """ODDOML vs DDOML at one memory size."""
    from repro.engine import run_scheduler
    from repro.schedulers import DDOML, ODDOML

    m = params["m"]
    shape = ProblemShape(r=24, s=36, t=12, q=16)
    platform = Platform.homogeneous(4, c=0.2, w=0.1, m=m)
    engine = params.get("engine", "fast")
    t_over = run_scheduler(ODDOML(), platform, shape, engine=engine).makespan
    t_flat = run_scheduler(DDOML(), platform, shape, engine=engine).makespan
    return {
        "m_blocks": m,
        "mu_overlap": mu_overlap(m),
        "oddoml_s": t_over,
        "ddoml_s": t_flat,
        "overlap_gain_pct": 100.0 * (t_flat - t_over) / t_over,
    }


def _startup_point(params: Mapping) -> dict:
    """Measured C-tile overhead vs the paper's bound for one ``t``."""
    from repro.core.homogeneous import startup_overhead_fraction
    from repro.engine import run_scheduler
    from repro.schedulers import HoLM

    t = params["t"]
    c, w = 2.0, 4.5  # the paper's own example values
    m = 21  # µ = 3 under the overlap layout
    mu = mu_overlap(m)
    platform = Platform.homogeneous(1, c=c, w=w, m=m)
    shape = ProblemShape(r=mu, s=mu, t=t, q=8)
    trace = run_scheduler(
        HoLM(), platform, shape, engine=params.get("engine", "fast")
    )
    # Time attributable to C traffic = 2µ²c per chunk (1 chunk here).
    c_io = 2 * mu * mu * c
    return {
        "t": t,
        "mu": mu,
        "c_io_fraction": c_io / trace.makespan,
        "paper_bound": startup_overhead_fraction(mu, t, c, w),
    }


def _lookahead_point(params: Mapping) -> dict:
    """Selection ratio at one lookahead depth on the Table 2 platform."""
    from repro.core.heterogeneous import lookahead_selection

    platform = table2_platform()
    sel = lookahead_selection(
        platform, 10**6, 10**7, 10**6, depth=params["depth"], max_steps=1200
    )
    return {"depth": params["depth"], "ratio": sel.ratio}


def ports_sweep(scale: int = 8, engine: str = "fast") -> Sweep:
    """Declare the one-port/two-port pair."""
    return Sweep(
        name="ablation-ports",
        run_fn=_ports_point,
        points=stamp_points(
            tuple({"scale": scale, "two_port": tp} for tp in (False, True)),
            engine=engine,
        ),
        aggregate=_ports_aggregate,
        title="Ablation: one-port vs two-port master",
    )


def overlap_sweep(
    memories: tuple[int, ...] = (24, 60, 120, 360, 1200),
    engine: str = "fast",
) -> Sweep:
    """Declare one overlap-vs-flat point per memory size."""
    return Sweep(
        name="ablation-overlap",
        run_fn=_overlap_point,
        points=stamp_points(tuple({"m": m} for m in memories), engine=engine),
        title="Ablation: overlap vs no-overlap layout",
    )


def startup_sweep(
    t_values: tuple[int, ...] = (10, 25, 50, 100), engine: str = "fast",
) -> Sweep:
    """Declare one start-up-overhead point per inner dimension ``t``."""
    return Sweep(
        name="ablation-startup",
        run_fn=_startup_point,
        points=stamp_points(tuple({"t": t} for t in t_values), engine=engine),
        title="Ablation: start-up (C-tile I/O) overhead",
    )


def lookahead_sweep(
    depths: tuple[int, ...] = (1, 2, 3), engine: str = "fast",
) -> Sweep:
    """Declare one selection-ratio point per lookahead depth.

    ``engine`` is stamped for interface uniformity; the selection
    algorithm does not use the chunk engine, so the knob is inert.
    """
    return Sweep(
        name="ablation-lookahead",
        run_fn=_lookahead_point,
        points=stamp_points(tuple({"depth": d} for d in depths), engine=engine),
        title="Ablation: lookahead depth (Table 2)",
    )


def campaign(scale: int = 8, engine: str = "fast") -> Campaign:
    """The four ablation sweeps, in the order ``main()`` prints them.

    ``scale`` reaches the one scale-parameterised sweep (ports); the
    other three ablate fixed paper instances.
    """
    return Campaign(
        "ablations",
        (
            ports_sweep(scale=scale, engine=engine),
            overlap_sweep(engine=engine),
            startup_sweep(engine=engine),
            lookahead_sweep(engine=engine),
        ),
    )


def run_ports(scale: int = 8, engine: str = "fast") -> list[dict]:
    """HoLM under one-port vs two-port masters."""
    return run_sweep(ports_sweep(scale=scale, engine=engine)).rows


def run_overlap(
    memories: tuple[int, ...] = (24, 60, 120, 360, 1200),
    engine: str = "fast",
) -> list[dict]:
    """ODDOML (overlap) vs DDOML (bigger µ, no overlap) across memory."""
    return run_sweep(overlap_sweep(memories=memories, engine=engine)).rows


def run_startup(
    t_values: tuple[int, ...] = (10, 25, 50, 100), engine: str = "fast",
) -> list[dict]:
    """Measured C-tile overhead vs the paper's bound ``µ/t + 2c/tw``."""
    return run_sweep(startup_sweep(t_values=t_values, engine=engine)).rows


def run_lookahead(
    depths: tuple[int, ...] = (1, 2, 3), engine: str = "fast",
) -> list[dict]:
    """Selection ratio vs lookahead depth on the Table 2 platform."""
    return run_sweep(lookahead_sweep(depths=depths, engine=engine)).rows


def main() -> None:
    """Print all four ablations."""
    print(format_table(run_ports(), title="Ablation: one-port vs two-port master"))
    print()
    print(format_table(run_overlap(), title="Ablation: overlap vs no-overlap layout"))
    print()
    print(format_table(run_startup(), title="Ablation: start-up (C-tile I/O) overhead"))
    print()
    print(format_table(run_lookahead(), title="Ablation: lookahead depth (Table 2)"))


if __name__ == "__main__":
    main()
